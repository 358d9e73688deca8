//! Order statistics over step latencies.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The tail latency: the highest whole percentile `p` whose nearest-rank
/// value still has at least ten samples strictly beyond its rank, so the
/// number is backed by ten observations worse than it. Returns
/// `(percentile, value)`.
///
/// The search stops at the median: with fewer than twenty samples no
/// percentile above it qualifies and the tail is the nearest-rank p50, so
/// the figure never falls below the median, nor jumps, as the sample
/// count shrinks. Callers print the percentile and sample count beside it.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (50, 0.0);
    }
    let p = (50..=99u32)
        .rev()
        .find(|&p| n - nearest_rank(p, n) >= 10)
        .unwrap_or(50);
    (p, v[nearest_rank(p, n) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p · n / 100)`, at least 1.
fn nearest_rank(p: u32, n: usize) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples 1..=100: p90 has rank 90, ten samples beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90, 90.0));
        // 39 samples: p74 has rank ceil(28.86) = 29, ten beyond; p75 has
        // rank 30 and only nine beyond.
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&v), (74, 29.0));
        // 20 samples: exactly p50 (rank 10) leaves ten beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (50, 10.0));
    }

    #[test]
    fn tail_counts_ten_beyond_for_every_size() {
        for n in 20..500usize {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (p, value) = tail(&v);
            let rank = value as usize + 1;
            assert!(n - rank >= 10, "n={n}: only {} beyond p{p}", n - rank);
            if p < 99 {
                assert!(
                    n - nearest_rank(p + 1, n) < 10,
                    "n={n}: p{} also qualifies",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn tail_of_fewer_than_twenty_samples_is_the_median_rank() {
        assert_eq!(tail(&[5.0, 1.0, 9.0]), (50, 5.0));
        let v: Vec<f64> = (1..=13).map(f64::from).collect();
        assert_eq!(tail(&v), (50, 7.0));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), (50, 10.0));
        assert_eq!(tail(&[]), (50, 0.0));
    }
}
