//! 3-D complex FFT with a distributed transpose.
//!
//! The communication-heaviest application of the suite (the paper: 3D-FFT
//! "exchanges a large volume of messages per unit time" and has the
//! largest average message size) — and accordingly the biggest FAST/GM
//! win in Figure 4 (6.3× at 16 nodes, with UDP/GM *slowing down* from 8
//! to 16 nodes).
//!
//! Slab decomposition: radix-2 Cooley-Tukey along x and y inside each
//! node's z-slab (local), a z↔x transpose through shared memory (remote
//! reads of every other node's slab), then the final axis locally.

use tmk::{Substrate, Tmk};

use crate::partition::band;

/// Work units per butterfly.
const UNITS_PER_BUTTERFLY: u64 = 8;

/// Problem configuration: a `size³` complex grid (`size` a power of two).
#[derive(Debug, Clone)]
pub struct FftConfig {
    pub size: usize,
}

impl FftConfig {
    pub fn new(size: usize) -> Self {
        assert!(size.is_power_of_two(), "FFT size must be a power of two");
        FftConfig { size }
    }
}

/// Deterministic initial field.
fn initial(x: usize, y: usize, z: usize, n: usize) -> (f64, f64) {
    let s = (x * 73 + y * 179 + z * 283) % (n * n);
    let re = (s as f64) / (n as f64) - (n as f64) / 2.0;
    let im = ((s * 7 + 3) % 17) as f64 / 17.0;
    (re, im)
}

/// In-place radix-2 decimation-in-time FFT over interleaved (re, im)
/// pairs. `data.len() == 2 * n`, `n` a power of two.
pub fn fft1d(data: &mut [f64]) {
    let n = data.len() / 2;
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            data.swap(2 * i, 2 * j);
            data.swap(2 * i + 1, 2 * j + 1);
        }
        let mut m = n >> 1;
        while m >= 1 && j & m != 0 {
            j ^= m;
            m >>= 1;
        }
        j |= m;
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let a = i + k;
                let b = i + k + len / 2;
                let (br, bi) = (data[2 * b], data[2 * b + 1]);
                let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                let (ar, ai) = (data[2 * a], data[2 * a + 1]);
                data[2 * a] = ar + tr;
                data[2 * a + 1] = ai + ti;
                data[2 * b] = ar - tr;
                data[2 * b + 1] = ai - ti;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Naive DFT for validation of [`fft1d`].
pub fn dft1d(data: &[f64]) -> Vec<f64> {
    let n = data.len() / 2;
    let mut out = vec![0f64; 2 * n];
    for k in 0..n {
        let (mut sr, mut si) = (0f64, 0f64);
        for t in 0..n {
            let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            let (c, s) = (ang.cos(), ang.sin());
            sr += data[2 * t] * c - data[2 * t + 1] * s;
            si += data[2 * t] * s + data[2 * t + 1] * c;
        }
        out[2 * k] = sr;
        out[2 * k + 1] = si;
    }
    out
}

/// Index of complex element (x, y, z) in the interleaved slab layout
/// `[z][y][x]`, in f64 slots.
fn slot(x: usize, y: usize, z: usize, n: usize) -> usize {
    2 * ((z * n + y) * n + x)
}

/// Sequential reference: full 3-D FFT, returning the transposed-layout
/// checksum that the parallel version produces.
pub fn fft_seq(cfg: &FftConfig) -> f64 {
    let n = cfg.size;
    let mut a = vec![0f64; 2 * n * n * n];
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let (re, im) = initial(x, y, z, n);
                a[slot(x, y, z, n)] = re;
                a[slot(x, y, z, n) + 1] = im;
            }
        }
    }
    // FFT along x.
    let mut row = vec![0f64; 2 * n];
    for z in 0..n {
        for y in 0..n {
            row.copy_from_slice(&a[slot(0, y, z, n)..slot(0, y, z, n) + 2 * n]);
            fft1d(&mut row);
            a[slot(0, y, z, n)..slot(0, y, z, n) + 2 * n].copy_from_slice(&row);
        }
    }
    // FFT along y.
    for z in 0..n {
        for x in 0..n {
            for y in 0..n {
                row[2 * y] = a[slot(x, y, z, n)];
                row[2 * y + 1] = a[slot(x, y, z, n) + 1];
            }
            fft1d(&mut row);
            for y in 0..n {
                a[slot(x, y, z, n)] = row[2 * y];
                a[slot(x, y, z, n) + 1] = row[2 * y + 1];
            }
        }
    }
    // Transpose z<->x, then FFT along the (now contiguous) z axis.
    let mut b = vec![0f64; 2 * n * n * n];
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                b[slot(z, y, x, n)] = a[slot(x, y, z, n)];
                b[slot(z, y, x, n) + 1] = a[slot(x, y, z, n) + 1];
            }
        }
    }
    for x in 0..n {
        for y in 0..n {
            row.copy_from_slice(&b[slot(0, y, x, n)..slot(0, y, x, n) + 2 * n]);
            fft1d(&mut row);
            b[slot(0, y, x, n)..slot(0, y, x, n) + 2 * n].copy_from_slice(&row);
        }
    }
    // Plane-grouped weighted checksum (matches the parallel reduction).
    (0..n)
        .map(|zp| {
            let base = 2 * zp * n * n;
            b[base..base + 2 * n * n]
                .iter()
                .enumerate()
                .map(|(i, &v)| v * (((base + i) % 97) as f64 + 1.0))
                .sum::<f64>()
        })
        .sum()
}

/// Parallel 3-D FFT. Returns the same weighted checksum as [`fft_seq`],
/// identical on every node.
pub fn fft_parallel<S: Substrate>(tmk: &mut Tmk<S>, cfg: &FftConfig) -> f64 {
    fft_parallel_with(tmk, cfg, |_| {})
}

/// [`fft_parallel`], calling `at_transpose` on the node just after it
/// crosses the barrier that ends the transpose.
pub fn fft_parallel_with<S: Substrate>(
    tmk: &mut Tmk<S>,
    cfg: &FftConfig,
    at_transpose: impl FnOnce(&mut Tmk<S>),
) -> f64 {
    let n = cfg.size;
    let slab_bytes = 2 * n * n * n * 8;
    let a = tmk.malloc(slab_bytes);
    let b = tmk.malloc(slab_bytes);
    let result = tmk.malloc(4096);
    let me = tmk.proc_id();
    let np = tmk.nprocs();
    let (zlo, zhi) = band(n, np, me);

    // Initialize own slab (every node writes its own z-band: distributed
    // initialization, unlike Jacobi/SOR, matching the paper's FFT which
    // is bandwidth-bound, not startup-bound).
    let mut plane = vec![0f64; 2 * n * n];
    for z in zlo..zhi {
        for y in 0..n {
            for x in 0..n {
                let (re, im) = initial(x, y, z, n);
                plane[2 * (y * n + x)] = re;
                plane[2 * (y * n + x) + 1] = im;
            }
        }
        tmk.write_f64s(a, slot(0, 0, z, n), &plane);
    }
    tmk.barrier(0);

    // Phase 1: FFT along x and y inside own z planes (local math, remote
    // only if the page layout crosses bands — it doesn't: planes are
    // 2·n²·8 bytes, page-aligned for n ≥ 16).
    let mut row = vec![0f64; 2 * n];
    let mut butterflies = 0u64;
    for z in zlo..zhi {
        tmk.read_f64s(a, slot(0, 0, z, n), &mut plane);
        for y in 0..n {
            let off = 2 * y * n;
            row.copy_from_slice(&plane[off..off + 2 * n]);
            fft1d(&mut row);
            plane[off..off + 2 * n].copy_from_slice(&row);
        }
        for x in 0..n {
            for y in 0..n {
                row[2 * y] = plane[2 * (y * n + x)];
                row[2 * y + 1] = plane[2 * (y * n + x) + 1];
            }
            fft1d(&mut row);
            for y in 0..n {
                plane[2 * (y * n + x)] = row[2 * y];
                plane[2 * (y * n + x) + 1] = row[2 * y + 1];
            }
        }
        tmk.write_f64s(a, slot(0, 0, z, n), &plane);
        butterflies += (2 * n * n * n.ilog2() as usize / 2) as u64;
    }
    tmk.compute(butterflies * UNITS_PER_BUTTERFLY);
    tmk.barrier(1);

    // Phase 2: scatter transpose z<->x. Each node writes its *own* A
    // slab into the z-slices of B: every B page ends up with word-
    // disjoint contributions from every node — the multi-writer
    // twin/diff protocol at full stretch, and the all-to-all that makes
    // FFT the most bandwidth-hungry application here.
    let (xlo, xhi) = band(n, np, me);
    let zlen = zhi - zlo;
    let mut slab = vec![0f64; 2 * n * n * zlen];
    for (zi, z) in (zlo..zhi).enumerate() {
        tmk.read_f64s(a, slot(0, 0, z, n), &mut plane);
        slab[2 * n * n * zi..2 * n * n * (zi + 1)].copy_from_slice(&plane);
    }
    let mut seg = vec![0f64; 2 * zlen];
    for y in 0..n {
        for x in 0..n {
            for zi in 0..zlen {
                seg[2 * zi] = slab[2 * ((zi * n + y) * n + x)];
                seg[2 * zi + 1] = slab[2 * ((zi * n + y) * n + x) + 1];
            }
            // B[z' = x][y][x' = z]: our z-band is contiguous along x'.
            tmk.write_f64s(b, slot(zlo, y, x, n), &seg);
        }
    }
    tmk.compute((n * n * zlen) as u64 * 2);
    tmk.barrier(2);
    at_transpose(tmk);

    // Phase 3: FFT along the transposed axis, local in B.
    let mut butterflies = 0u64;
    for xb in xlo..xhi {
        for y in 0..n {
            tmk.read_f64s(b, slot(0, y, xb, n), &mut row);
            fft1d(&mut row);
            tmk.write_f64s(b, slot(0, y, xb, n), &row);
        }
        butterflies += (n * n.ilog2() as usize / 2 * n) as u64;
    }
    tmk.compute(butterflies * UNITS_PER_BUTTERFLY);
    tmk.barrier(3);

    // Distributed checksum: each node reduces the planes of its own
    // x-band (local after phase 3) to per-plane partials; node 0 folds
    // them in plane order — bitwise identical to fft_seq.
    let partials = tmk.malloc(n * 8);
    let mut buf = vec![0f64; 2 * n * n];
    for zb in xlo..xhi {
        tmk.read_f64s(b, slot(0, 0, zb, n), &mut buf);
        let base = 2 * zb * n * n;
        let mut p = 0f64;
        for (i, &v) in buf.iter().enumerate() {
            p += v * (((base + i) % 97) as f64 + 1.0);
        }
        tmk.set_f64(partials, zb, p);
    }
    tmk.barrier(u32::MAX - 2);
    if me == 0 {
        let mut sum = 0f64;
        for zb in 0..n {
            sum += tmk.get_f64(partials, zb);
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
    fn fft1d_matches_naive_dft() {
        let data: Vec<f64> = (0..32).map(|i| ((i * 37 % 11) as f64) - 5.0).collect();
        let want = dft1d(&data);
        let mut got = data.clone();
        fft1d(&mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
    }

    #[test]
    fn fft1d_parseval_energy_conserved() {
        let data: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
        let n = data.len() / 2;
        let time_energy: f64 = data.chunks(2).map(|c| c[0] * c[0] + c[1] * c[1]).sum();
        let mut freq = data.clone();
        fft1d(&mut freq);
        let freq_energy: f64 = freq
            .chunks(2)
            .map(|c| c[0] * c[0] + c[1] * c[1])
            .sum::<f64>()
            / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.abs());
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        for np in [1usize, 2, 4] {
            let cfg = FftConfig::new(8);
            let want = fft_seq(&cfg);
            let out = run_mem_dsm(
                np,
                Arc::new(SimParams::paper_testbed()),
                Ns::from_us(5),
                TmkConfig::default(),
                move |tmk| fft_parallel(tmk, &cfg),
            );
            for o in &out {
                assert_eq!(o.result, want, "np={np}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        FftConfig::new(12);
    }
}
