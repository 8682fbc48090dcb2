//! Order statistics for latency samples.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending
/// `sorted`: the smallest sample with at least `p` % of the samples at or
/// below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // The small offset keeps float noise in `p·n/100` (e.g. 99.9 · 20000)
    // from pushing an exact rank up by one.
    let rank = (p * n as f64 / 100.0 - 1e-7).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// The median of ascending `sorted` (mean of the middle pair for even
/// counts). `None` for an empty slice.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// Percentiles the tail is chosen from, highest first. p99.9 is left
/// out: on a shared VM the top 0.1 % of sub-millisecond queries are the
/// scheduler's hiccups, which swing from run to run by more than any
/// regression bound.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail latency and how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; the median when even that has
/// fewer (the `beyond` field then says how many there are).
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    let pick = |p: f64| {
        let rank = nearest_rank(n, p)?;
        Some(Tail {
            percentile: p,
            value: sorted[rank - 1],
            beyond: n - rank,
            samples: n,
        })
    };
    TAIL_LADDER
        .iter()
        .filter_map(|&p| pick(p))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .or_else(|| pick(50.0))
}

/// Sorts a copy of `samples` ascending (NaNs last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_exact_quantiles() {
        // 1..=100: the p-th percentile is exactly p.
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        for p in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile(&data, p), Some(p));
        }
        assert_eq!(percentile(&data, 99.9), Some(100.0));
        assert_eq!(percentile(&data, 0.5), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&data, 0.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 has 10 samples beyond (991..=1000).
        let t = tail(&data).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );

        let data: Vec<f64> = (1..=20_000).map(f64::from).collect();
        let t = tail(&data).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 19_800.0, 200));

        // 60 samples: p90 leaves 6 beyond, p75 leaves 15.
        let data: Vec<f64> = (1..=60).map(f64::from).collect();
        let t = tail(&data).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 45.0, 15));
    }

    #[test]
    fn tail_falls_back_to_the_median_on_few_samples() {
        let data: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&data).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 6.0, 6));
        assert_eq!(tail(&[]), None);
    }
}
