//! Work partitioning helpers.

/// Contiguous band `[start, end)` of `total` items for node `me` of `n`:
/// the first `total % n` nodes get one extra item.
pub fn band(total: usize, n: usize, me: usize) -> (usize, usize) {
    assert!(me < n, "node {me} out of {n}");
    let base = total / n;
    let extra = total % n;
    let start = me * base + me.min(extra);
    let len = base + usize::from(me < extra);
    (start, (start + len).min(total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_exactly_once() {
        for total in [0usize, 1, 7, 16, 100, 1023] {
            for n in 1..=9 {
                let mut covered = 0;
                let mut prev_end = 0;
                for me in 0..n {
                    let (s, e) = band(total, n, me);
                    assert_eq!(s, prev_end, "bands must be contiguous");
                    assert!(e >= s);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, total);
                assert_eq!(prev_end, total);
            }
        }
    }

    #[test]
    fn balanced_within_one() {
        for total in [10usize, 97, 1024] {
            for n in [2usize, 3, 7, 16] {
                let sizes: Vec<usize> = (0..n)
                    .map(|m| {
                        let (s, e) = band(total, n, m);
                        e - s
                    })
                    .collect();
                let mx = *sizes.iter().max().unwrap();
                let mn = *sizes.iter().min().unwrap();
                assert!(mx - mn <= 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn bad_node_panics() {
        band(10, 2, 5);
    }
}
