//! Order statistics over a pass's reps.

#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// The value at fraction `p` of the sorted samples, interpolating linearly
/// between neighbours.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn summarize(xs: &[f64]) -> Summary {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        n: s.len(),
        min: s[0],
        q1: percentile(&s, 0.25),
        median: percentile(&s, 0.5),
        q3: percentile(&s, 0.75),
        max: s[s.len() - 1],
    }
}
