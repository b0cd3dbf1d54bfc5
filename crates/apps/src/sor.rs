//! Red-black successive over-relaxation.
//!
//! Two half-sweeps per iteration (red points, then black points), a
//! barrier after each, and — following the paper's observation that its
//! SOR "uses locks for synchronization more than any other application" —
//! a lock-guarded global residual accumulated by every node every
//! iteration. Band boundaries share pages when rows are narrower than a
//! page, exercising the multi-writer (false sharing) protocol.

use tmk::{Substrate, Tmk};

use crate::partition::band;

/// Work units per updated point (5-point stencil + over-relaxation).
const UNITS_PER_POINT: u64 = 6;
/// The lock guarding the global residual.
const RESIDUAL_LOCK: u32 = 0;

/// Problem configuration: an `rows × cols` grid.
#[derive(Debug, Clone)]
pub struct SorConfig {
    pub rows: usize,
    pub cols: usize,
    pub iterations: usize,
    /// Over-relaxation factor.
    pub omega: f32,
}

impl SorConfig {
    pub fn new(rows: usize, cols: usize, iterations: usize) -> Self {
        SorConfig {
            rows,
            cols,
            iterations,
            omega: 1.5,
        }
    }
}

fn initial(i: usize, j: usize) -> f32 {
    (((i * 7 + j * 13) % 31) as f32 - 15.0) / 4.0
}

/// Update one color's points in a row; returns the absolute residual
/// contribution. `color` is (i + j) % 2.
#[allow(clippy::too_many_arguments)]
fn sweep_row(i: usize, color: usize, omega: f32, up: &[f32], row: &mut [f32], down: &[f32]) -> f64 {
    let cols = row.len();
    let mut res = 0f64;
    let start = 1 + (i + 1 + color) % 2;
    let mut j = start;
    while j < cols - 1 {
        let old = row[j];
        let gs = 0.25 * (up[j] + down[j] + row[j - 1] + row[j + 1]);
        let new = old + omega * (gs - old);
        row[j] = new;
        res += (new - old).abs() as f64;
        j += 2;
    }
    res
}

/// Sequential reference. Returns (checksum, final residual).
pub fn sor_seq(cfg: &SorConfig) -> (f64, f64) {
    let (r, c) = (cfg.rows, cfg.cols);
    let mut g = vec![0f32; r * c];
    for i in 0..r {
        for j in 0..c {
            g[i * c + j] = initial(i, j);
        }
    }
    let mut last_res = 0f64;
    for _ in 0..cfg.iterations {
        last_res = 0.0;
        for color in 0..2usize {
            for i in 1..r - 1 {
                let (above, rest) = g.split_at_mut(i * c);
                let (row, below) = rest.split_at_mut(c);
                let (up, down) = (&above[(i - 1) * c..], &below[..c]);
                last_res += sweep_row(i, color, cfg.omega, up, row, down);
            }
        }
    }
    let sum = (0..r)
        .map(|i| g[i * c..(i + 1) * c].iter().map(|&v| v as f64).sum::<f64>())
        .sum();
    (sum, last_res)
}

/// Parallel SOR. Returns (checksum, final residual) — identical on all
/// nodes, bitwise equal to the sequential version for the checksum.
pub fn sor_parallel<S: Substrate>(tmk: &mut Tmk<S>, cfg: &SorConfig) -> (f64, f64) {
    let (r, c) = (cfg.rows, cfg.cols);
    let grid = tmk.malloc(r * c * 4);
    let shared_res = tmk.malloc(4096);
    let result = tmk.malloc(4096);
    let me = tmk.proc_id();
    let n = tmk.nprocs();
    let (lo, hi) = band(r, n, me);

    if me == 0 {
        let mut row = vec![0f32; c];
        for i in 0..r {
            for (j, v) in row.iter_mut().enumerate() {
                *v = initial(i, j);
            }
            tmk.write_f32s(grid, i * c, &row);
        }
    }
    tmk.barrier(0);

    let mut up = vec![0f32; c];
    let mut row = vec![0f32; c];
    let mut down = vec![0f32; c];
    let mut bid = 1u32;
    let mut final_res = 0f64;
    for it in 0..cfg.iterations {
        // Reset the shared residual at the top of each iteration.
        if me == 0 {
            tmk.set_f64(shared_res, 0, 0.0);
        }
        tmk.barrier(bid);
        bid += 1;
        let mut local_res = 0f64;
        for color in 0..2usize {
            let rows = lo.max(1)..hi.min(r - 1);
            if !rows.is_empty() {
                tmk.read_f32s(grid, (rows.start - 1) * c, &mut up);
                tmk.read_f32s(grid, rows.start * c, &mut row);
            }
            for i in rows {
                // Rows `i - 1` and `i` are in `up` and `row` already, as
                // the grid holds them: only row `i + 1` is read. Their
                // pages stay valid through the half-sweep, and a read of a
                // valid page charges nothing.
                tmk.read_f32s(grid, (i + 1) * c, &mut down);
                local_res += sweep_row(i, color, cfg.omega, &up, &mut row, &down);
                tmk.write_f32s(grid, i * c, &row);
                // Row `i` moves up, row `i + 1` in, and `up`'s buffer is
                // the next row's.
                std::mem::swap(&mut up, &mut row);
                std::mem::swap(&mut row, &mut down);
            }
            tmk.compute(((hi - lo) * c / 2) as u64 * UNITS_PER_POINT);
            tmk.barrier(bid);
            bid += 1;
        }
        // Lock-guarded global residual: SOR's lock-heavy synchronization.
        tmk.acquire(RESIDUAL_LOCK);
        let acc = tmk.get_f64(shared_res, 0);
        tmk.set_f64(shared_res, 0, acc + local_res);
        tmk.release(RESIDUAL_LOCK);
        tmk.barrier(bid);
        bid += 1;
        if it == cfg.iterations - 1 {
            final_res = tmk.get_f64(shared_res, 0);
        }
    }

    // Distributed checksum (see jacobi.rs).
    let partials = tmk.malloc(r * 8);
    for i in lo..hi {
        tmk.read_f32s(grid, i * c, &mut row);
        let p: f64 = row.iter().map(|&v| v as f64).sum();
        tmk.set_f64(partials, i, p);
    }
    tmk.barrier(u32::MAX - 2);
    if me == 0 {
        let mut sum = 0f64;
        for i in 0..r {
            sum += tmk.get_f64(partials, i);
        }
        tmk.set_f64(result, 0, sum);
    }
    tmk.barrier(u32::MAX - 1);
    (tmk.get_f64(result, 0), final_res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_sim::{Ns, SimParams};
    use tmk::memsub::run_mem_dsm;
    use tmk::TmkConfig;

    #[test]
    fn seq_reduces_residual() {
        let cfg = SorConfig::new(24, 24, 2);
        let (_, r2) = sor_seq(&cfg);
        let cfg10 = SorConfig::new(24, 24, 20);
        let (_, r20) = sor_seq(&cfg10);
        assert!(r20 < r2, "SOR should converge: {r20} !< {r2}");
    }

    #[test]
    fn parallel_matches_sequential() {
        for n in [1usize, 2, 4] {
            let cfg = SorConfig::new(24, 16, 3);
            let (want_sum, want_res) = sor_seq(&cfg);
            let out = run_mem_dsm(
                n,
                Arc::new(SimParams::paper_testbed()),
                Ns::from_us(5),
                TmkConfig::default(),
                move |tmk| sor_parallel(tmk, &cfg),
            );
            for o in &out {
                assert_eq!(o.result.0, want_sum, "checksum n={n} node {}", o.id);
                let err = (o.result.1 - want_res).abs();
                assert!(
                    err < 1e-9 * want_res.abs().max(1.0),
                    "residual n={n}: {} vs {want_res}",
                    o.result.1
                );
            }
        }
    }

    #[test]
    fn narrow_rows_force_false_sharing() {
        // 64 columns = 256-byte rows: 16 rows per page; every band
        // boundary falls mid-page.
        let cfg = SorConfig::new(32, 64, 2);
        let (want_sum, _) = sor_seq(&cfg);
        let out = run_mem_dsm(
            4,
            Arc::new(SimParams::paper_testbed()),
            Ns::from_us(5),
            TmkConfig::default(),
            move |tmk| sor_parallel(tmk, &cfg),
        );
        for o in &out {
            assert_eq!(o.result.0, want_sum);
        }
    }
}
