//! Order statistics over timing samples.

use std::time::Duration;

/// Samples at or beyond a reported percentile: a percentile is reported
/// only when at least this many samples lie past it.
pub const TAIL_SAMPLES: usize = 10;

/// Fewest samples for which a p90 is reported (`TAIL_SAMPLES` beyond it).
pub const P90_MIN_SAMPLES: usize = 10 * TAIL_SAMPLES;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time `f` once.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = std::time::Instant::now();
    let r = std::hint::black_box(f());
    (r, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
