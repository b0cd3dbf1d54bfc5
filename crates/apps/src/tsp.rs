//! Branch-and-bound traveling salesman over a shared work queue.
//!
//! The lock-dominated application of the suite: a queue of path prefixes
//! and the global best bound both live in shared memory behind locks, so
//! progress is governed by lock handoff latency — the microbenchmark gap
//! the paper's Figure 3 shows for locks translates directly into Figure
//! 4's TSP runtimes.
//!
//! Distances are integers (deterministic pseudo-random city coordinates),
//! so the optimal tour length is exact and identical to the sequential
//! branch-and-bound's.

use tmk::{SharedId, Substrate, Tmk};

/// Locks.
const QUEUE_LOCK: u32 = 1;
const BEST_LOCK: u32 = 2;

/// Prefixes shorter than this are expanded and requeued; at this depth a
/// node solves the subtree exhaustively.
const EXPAND_DEPTH: usize = 3;

/// Work units charged per city visited during exhaustive search.
const UNITS_PER_NODE: u64 = 12;

/// Problem configuration.
#[derive(Debug, Clone)]
pub struct TspConfig {
    pub cities: usize,
    /// Seed for the deterministic coordinate generator.
    pub seed: u64,
}

impl TspConfig {
    pub fn new(cities: usize) -> Self {
        TspConfig {
            cities,
            seed: 20030422,
        }
    }

    /// The symmetric integer distance matrix.
    pub fn distances(&self) -> Vec<Vec<u32>> {
        // xorshift64* coordinates in a 1000×1000 grid.
        let mut s = self.seed | 1;
        let mut next = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            s.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let pts: Vec<(i64, i64)> = (0..self.cities)
            .map(|_| ((next() % 1000) as i64, (next() % 1000) as i64))
            .collect();
        (0..self.cities)
            .map(|i| {
                (0..self.cities)
                    .map(|j| {
                        let dx = (pts[i].0 - pts[j].0) as f64;
                        let dy = (pts[i].1 - pts[j].1) as f64;
                        (dx * dx + dy * dy).sqrt().round() as u32
                    })
                    .collect()
            })
            .collect()
    }
}

/// Exhaustive DFS from a prefix with bound pruning. Returns work done
/// (nodes visited) and updates `best` in place.
fn dfs(
    dist: &[Vec<u32>],
    path: &mut Vec<u8>,
    visited: &mut [bool],
    len: u32,
    best: &mut u32,
    nodes: &mut u64,
) {
    let n = dist.len();
    *nodes += 1;
    if len >= *best {
        return;
    }
    if path.len() == n {
        let total = len + dist[*path.last().unwrap() as usize][path[0] as usize];
        if total < *best {
            *best = total;
        }
        return;
    }
    let last = *path.last().unwrap() as usize;
    for c in 0..n {
        if !visited[c] {
            let step = dist[last][c];
            if len + step < *best {
                visited[c] = true;
                path.push(c as u8);
                dfs(dist, path, visited, len + step, best, nodes);
                path.pop();
                visited[c] = false;
            }
        }
    }
}

/// Sequential reference: the exact optimal tour length.
pub fn tsp_seq(cfg: &TspConfig) -> u32 {
    let dist = cfg.distances();
    let mut best = u32::MAX;
    let mut path = vec![0u8];
    let mut visited = vec![false; cfg.cities];
    visited[0] = true;
    let mut nodes = 0;
    dfs(&dist, &mut path, &mut visited, 0, &mut best, &mut nodes);
    best
}

/// Shared-queue layout (all u32 slots in one region):
///   [0] head  [1] tail
/// Entries start at slot 8; each entry is `1 + MAX_PATH` u32s:
///   [len, city0, city1, …].
const MAX_PATH: usize = 24;
const ENTRY_SLOTS: usize = 1 + MAX_PATH;
const QUEUE_BASE: usize = 8;
const QUEUE_CAP: usize = 4096;

struct Queue {
    region: SharedId,
}

impl Queue {
    fn push<S: Substrate>(&self, tmk: &mut Tmk<S>, path: &[u8]) {
        let tail = tmk.get_u32(self.region, 1) as usize;
        assert!(tail < QUEUE_CAP, "work queue overflow");
        let base = QUEUE_BASE + tail * ENTRY_SLOTS;
        tmk.set_u32(self.region, base, path.len() as u32);
        for (k, &c) in path.iter().enumerate() {
            tmk.set_u32(self.region, base + 1 + k, c as u32);
        }
        tmk.set_u32(self.region, 1, tail as u32 + 1);
    }

    fn pop<S: Substrate>(&self, tmk: &mut Tmk<S>) -> Option<Vec<u8>> {
        let head = tmk.get_u32(self.region, 0) as usize;
        let tail = tmk.get_u32(self.region, 1) as usize;
        if head == tail {
            return None;
        }
        let base = QUEUE_BASE + head * ENTRY_SLOTS;
        let len = tmk.get_u32(self.region, base) as usize;
        let mut path = Vec::with_capacity(len);
        for k in 0..len {
            path.push(tmk.get_u32(self.region, base + 1 + k) as u8);
        }
        tmk.set_u32(self.region, 0, head as u32 + 1);
        Some(path)
    }
}

/// Parallel branch and bound. Returns the optimal tour length (identical
/// on every node, equal to [`tsp_seq`]).
pub fn tsp_parallel<S: Substrate>(tmk: &mut Tmk<S>, cfg: &TspConfig) -> u32 {
    let dist = cfg.distances();
    let n = cfg.cities;
    assert!(n <= MAX_PATH);
    let queue_region = tmk.malloc((QUEUE_BASE + QUEUE_CAP * ENTRY_SLOTS) * 4);
    let best_region = tmk.malloc(4096);
    let q = Queue {
        region: queue_region,
    };

    if tmk.proc_id() == 0 {
        tmk.set_u32(best_region, 0, u32::MAX);
        // Seed the queue with every prefix of EXPAND_DEPTH cities —
        // breadth-first expansion from the root, as in the TreadMarks
        // distribution's TSP. Workers then race to pop prefixes.
        let depth = EXPAND_DEPTH.min(n);
        let mut frontier: Vec<Vec<u8>> = vec![vec![0]];
        while frontier[0].len() < depth {
            let mut next = Vec::new();
            for path in &frontier {
                for c in 0..n as u8 {
                    if !path.contains(&c) {
                        let mut child = path.clone();
                        child.push(c);
                        next.push(child);
                    }
                }
            }
            frontier = next;
        }
        tmk.compute(frontier.len() as u64 * 4);
        tmk.acquire(QUEUE_LOCK);
        for path in &frontier {
            q.push(tmk, path);
        }
        tmk.release(QUEUE_LOCK);
    }
    tmk.barrier(0);

    // Workers: pop prefixes until the queue drains. The queue only ever
    // shrinks after seeding, so an empty pop is a final answer — no
    // spin-wait, no termination counter.
    loop {
        tmk.acquire(QUEUE_LOCK);
        let work = q.pop(tmk);
        tmk.release(QUEUE_LOCK);
        let Some(path) = work else { break };

        let path_len: u32 = path
            .windows(2)
            .map(|w| dist[w[0] as usize][w[1] as usize])
            .sum();
        // Snapshot the global bound.
        tmk.acquire(BEST_LOCK);
        let best = tmk.get_u32(best_region, 0);
        tmk.release(BEST_LOCK);
        if path_len >= best {
            continue; // pruned whole subtree
        }

        // Solve the subtree exhaustively with local pruning.
        let mut visited = vec![false; n];
        for &c in &path {
            visited[c as usize] = true;
        }
        let mut p = path.clone();
        let mut local_best = best;
        let mut nodes = 0u64;
        dfs(
            &dist,
            &mut p,
            &mut visited,
            path_len,
            &mut local_best,
            &mut nodes,
        );
        tmk.compute(nodes * UNITS_PER_NODE);
        if local_best < best {
            tmk.acquire(BEST_LOCK);
            let cur = tmk.get_u32(best_region, 0);
            if local_best < cur {
                tmk.set_u32(best_region, 0, local_best);
            }
            tmk.release(BEST_LOCK);
        }
    }

    tmk.barrier(1);
    tmk.acquire(BEST_LOCK);
    let answer = tmk.get_u32(best_region, 0);
    tmk.release(BEST_LOCK);
    tmk.barrier(2);
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_sim::{Ns, SimParams};
    use tmk::memsub::run_mem_dsm;
    use tmk::TmkConfig;

    #[test]
    fn distances_are_symmetric_and_stable() {
        let cfg = TspConfig::new(8);
        let d1 = cfg.distances();
        let d2 = cfg.distances();
        assert_eq!(d1, d2);
        for (i, row) in d1.iter().enumerate() {
            assert_eq!(row[i], 0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, d1[j][i]);
            }
        }
    }

    #[test]
    fn seq_finds_known_small_optimum() {
        // 4 cities: brute-force check.
        let cfg = TspConfig::new(4);
        let d = cfg.distances();
        let mut best = u32::MAX;
        let idx = [1usize, 2, 3];
        let perms = [
            [1, 2, 3],
            [1, 3, 2],
            [2, 1, 3],
            [2, 3, 1],
            [3, 1, 2],
            [3, 2, 1],
        ];
        let _ = idx;
        for p in perms {
            let tour = d[0][p[0]] + d[p[0]][p[1]] + d[p[1]][p[2]] + d[p[2]][0];
            best = best.min(tour);
        }
        assert_eq!(tsp_seq(&cfg), best);
    }

    #[test]
    fn parallel_matches_sequential_optimum() {
        for n in [1usize, 2, 4] {
            let cfg = TspConfig::new(9);
            let want = tsp_seq(&cfg);
            let out = run_mem_dsm(
                n,
                Arc::new(SimParams::paper_testbed()),
                Ns::from_us(5),
                TmkConfig::default(),
                move |tmk| tsp_parallel(tmk, &cfg),
            );
            for o in &out {
                assert_eq!(o.result, want, "n={n}");
            }
        }
    }
}
