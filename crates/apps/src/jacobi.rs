//! Jacobi: iterative 5-point relaxation on a square grid.
//!
//! Barrier-only synchronization and the highest computation-to-
//! communication ratio of the suite — which is why the paper's Figure 4
//! shows Jacobi with the *smallest* FAST/GM-over-UDP/GM gain (~2×):
//! there simply isn't much communication to accelerate.
//!
//! Double-buffered (read epoch k, write epoch k+1), so one barrier per
//! iteration is race-free. Boundary rows/columns are fixed.

use tmk::{Substrate, Tmk};

use crate::partition::band;

/// Work units charged per grid point per iteration (≈ 4 flops + loads on
/// a 700 MHz P-III at 10 ns/unit ⇒ 50 ns/point).
const UNITS_PER_POINT: u64 = 5;

/// Problem configuration.
#[derive(Debug, Clone)]
pub struct JacobiConfig {
    /// Grid edge (the paper's "Z×Z grid of real numbers").
    pub size: usize,
    pub iterations: usize,
}

impl JacobiConfig {
    pub fn new(size: usize, iterations: usize) -> Self {
        JacobiConfig { size, iterations }
    }
}

/// Deterministic initial condition.
fn initial(i: usize, j: usize) -> f32 {
    ((i * 31 + j * 17) % 101) as f32 / 7.0
}

/// One row's relaxation: `new[j] = 0.25 (up[j] + down[j] + row[j−1] +
/// row[j+1])` over the interior.
fn relax_row(up: &[f32], row: &[f32], down: &[f32], out: &mut [f32]) {
    let z = row.len();
    out[0] = row[0];
    out[z - 1] = row[z - 1];
    for j in 1..z - 1 {
        out[j] = 0.25 * (up[j] + down[j] + row[j - 1] + row[j + 1]);
    }
}

/// Sequential reference. Returns the final-grid checksum.
pub fn jacobi_seq(cfg: &JacobiConfig) -> f64 {
    let z = cfg.size;
    let mut cur = vec![0f32; z * z];
    let mut next = vec![0f32; z * z];
    for i in 0..z {
        for j in 0..z {
            cur[i * z + j] = initial(i, j);
        }
    }
    for _ in 0..cfg.iterations {
        // Fixed boundary rows.
        next[..z].copy_from_slice(&cur[..z]);
        next[(z - 1) * z..].copy_from_slice(&cur[(z - 1) * z..]);
        for i in 1..z - 1 {
            let (up, rest) = cur.split_at((i) * z);
            let up = &up[(i - 1) * z..];
            let row = &rest[..z];
            let down = &rest[z..2 * z];
            // Borrow juggling: copy out to keep it simple and identical
            // in evaluation order to the parallel version.
            let up = up.to_vec();
            let row = row.to_vec();
            let down = down.to_vec();
            let mut out = vec![0f32; z];
            relax_row(&up, &row, &down, &mut out);
            next[i * z..(i + 1) * z].copy_from_slice(&out);
        }
        std::mem::swap(&mut cur, &mut next);
    }
    // Row-grouped summation (matches the parallel reduction's order).
    (0..z)
        .map(|i| {
            cur[i * z..(i + 1) * z]
                .iter()
                .map(|&v| v as f64)
                .sum::<f64>()
        })
        .sum()
}

/// Parallel Jacobi over the DSM. All nodes call this; returns the final
/// checksum (computed by node 0 and published through shared memory, so
/// every node returns the same value).
pub fn jacobi_parallel<S: Substrate>(tmk: &mut Tmk<S>, cfg: &JacobiConfig) -> f64 {
    let z = cfg.size;
    let bytes = z * z * 4;
    let a = tmk.malloc(bytes);
    let b = tmk.malloc(bytes);
    let result = tmk.malloc(4096);
    tmk.distribute(a);
    tmk.distribute(b);

    let me = tmk.proc_id();
    let n = tmk.nprocs();
    let (lo, hi) = band(z, n, me);

    // Node 0 initializes.
    if me == 0 {
        let mut row = vec![0f32; z];
        for i in 0..z {
            for (j, v) in row.iter_mut().enumerate() {
                *v = initial(i, j);
            }
            tmk.write_f32s(a, i * z, &row);
        }
    }
    tmk.barrier(0);

    let (mut cur, mut next) = (a, b);
    let mut up = vec![0f32; z];
    let mut row = vec![0f32; z];
    let mut down = vec![0f32; z];
    let mut out = vec![0f32; z];
    for it in 0..cfg.iterations {
        // Fixed global boundary rows are owned by whoever holds them.
        for i in lo..hi {
            if i == 0 || i == z - 1 {
                tmk.read_f32s(cur, i * z, &mut row);
                tmk.write_f32s(next, i * z, &row);
                continue;
            }
            tmk.read_f32s(cur, (i - 1) * z, &mut up);
            tmk.read_f32s(cur, i * z, &mut row);
            tmk.read_f32s(cur, (i + 1) * z, &mut down);
            relax_row(&up, &row, &down, &mut out);
            tmk.write_f32s(next, i * z, &out);
        }
        tmk.compute(((hi - lo) * z) as u64 * UNITS_PER_POINT);
        tmk.barrier(1 + it as u32);
        std::mem::swap(&mut cur, &mut next);
    }

    // Distributed checksum: each node reduces its own rows (local reads)
    // into a shared row-partial array; node 0 folds the partials in row
    // order — bitwise identical to the sequential row-grouped sum, and
    // the gather costs one page of traffic instead of the whole grid.
    let partials = tmk.malloc(z * 8);
    for i in lo..hi {
        tmk.read_f32s(cur, i * z, &mut row);
        let p: f64 = row.iter().map(|&v| v as f64).sum();
        tmk.set_f64(partials, i, p);
    }
    tmk.barrier(u32::MAX - 2);
    if me == 0 {
        let mut sum = 0f64;
        for i in 0..z {
            sum += tmk.get_f64(partials, i);
        }
        tmk.set_f64(result, 0, sum);
    }
    tmk.barrier(u32::MAX - 1);
    tmk.get_f64(result, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_sim::{Ns, SimParams};
    use tmk::memsub::run_mem_dsm;
    use tmk::TmkConfig;

    #[test]
    fn seq_is_deterministic_and_smooths() {
        let c1 = jacobi_seq(&JacobiConfig::new(16, 4));
        let c2 = jacobi_seq(&JacobiConfig::new(16, 4));
        assert_eq!(c1, c2);
        // More iterations changes the field.
        let c3 = jacobi_seq(&JacobiConfig::new(16, 8));
        assert_ne!(c1, c3);
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        for n in [1usize, 2, 3, 4] {
            let cfg = JacobiConfig::new(32, 5);
            let want = jacobi_seq(&cfg);
            let out = run_mem_dsm(
                n,
                Arc::new(SimParams::paper_testbed()),
                Ns::from_us(5),
                TmkConfig::default(),
                move |tmk| jacobi_parallel(tmk, &cfg),
            );
            for o in &out {
                assert_eq!(o.result, want, "n={n} node {}", o.id);
            }
        }
    }

    #[test]
    fn zero_iterations_is_initial_sum() {
        let cfg = JacobiConfig::new(8, 0);
        let want: f64 = (0..8)
            .flat_map(|i| (0..8).map(move |j| initial(i, j) as f64))
            .sum();
        assert_eq!(jacobi_seq(&cfg), want);
    }
}
