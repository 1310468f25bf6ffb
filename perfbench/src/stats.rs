//! Order statistics for latency samples: medians, means and the tail
//! rule every report uses.

/// Percentile ladder the tail rule walks, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a percentile for it to be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// small slack keeps `0.999 × 10000` from rounding up past 9990.
fn rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// The `p`-th percentile (0..=100) of `sorted` by the nearest-rank method.
/// `sorted` must be ascending and non-empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    sorted[rank(p, n).clamp(1, n) - 1]
}

/// Median of unsorted samples (mean of the two middle values for an even
/// count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail of a latency distribution: the highest percentile on the ladder
/// with at least [`TAIL_MIN_BEYOND`] samples strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when even the median lacks ten samples
    /// beyond it — the tail then collapses onto the median).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// Applies the tail rule to unsorted samples; `None` for no samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let percentile = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Some(Tail {
        percentile,
        value: percentile_sorted(&sorted, percentile),
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 has 1 sample beyond, p99 has exactly 10.
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);

        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 leaves 1, p95 leaves 5, p90 leaves exactly 10.
        assert_eq!(tail(&v).unwrap().percentile, 90.0);

        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 99.9);
    }

    #[test]
    fn tail_collapses_onto_the_median_for_few_samples() {
        let v = [5.0, 1.0, 3.0];
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 3.0);
        assert!(tail(&[]).is_none());
        // 30 samples: p75 leaves 7, p50 leaves 15.
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 50.0);
        // 44 samples: p75 (rank 33) leaves 11.
        let v: Vec<f64> = (1..=44).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 75.0);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
