//! Order statistics over raw samples.

/// Percentile ladder for tails: the highest rung that still leaves at
/// least [`TAIL_MIN_BEYOND`] samples above it is the reported tail.
const TAIL_LADDER: [f64; 10] = [99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 87.5, 80.0, 75.0];
/// Samples that must lie beyond a tail percentile.
const TAIL_MIN_BEYOND: usize = 10;
/// Below this many samples a tail is no tail: only the median is given.
const TAIL_MIN_SAMPLES: usize = 40;

/// Nearest-rank percentile `pct` (0–100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Samples strictly beyond the nearest-rank position of `pct`.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - ((pct / 100.0 * n as f64).ceil() as usize).min(n)
}

/// The highest ladder percentile of `sorted` with at least ten samples
/// beyond it, as `(percentile, value)`; `None` under forty samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    if sorted.len() < TAIL_MIN_SAMPLES {
        return None;
    }
    TAIL_LADDER
        .iter()
        .find(|&&p| beyond(sorted.len(), p) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Sort ascending (samples are finite by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    percentile(&sorted(v.to_vec()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!(p, 99.0);
        assert_eq!(x, 990.0);
        assert!(tail(&v[..39]).is_none());
        assert_eq!(tail(&v[..80]).unwrap().0, 87.5);
    }

    #[test]
    fn nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
