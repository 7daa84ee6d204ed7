//! Order statistics over the benchmark's samples.

/// The 1-based nearest rank of percentile `pct` (0 < `pct` ≤ 100) among
/// `n` samples: the smallest rank with at least `pct`% of the samples at
/// or below it. Integer arithmetic, so `rank(1000, 99)` is exactly 990.
pub fn rank(n: usize, pct: usize) -> usize {
    assert!(n > 0 && (1..=100).contains(&pct), "rank({n}, {pct})");
    (pct * n).div_ceil(100)
}

/// The nearest-rank `pct` percentile of `samples` (any order).
pub fn percentile(samples: &[f64], pct: usize) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), pct) - 1]
}

/// The fewest samples that leave ten beyond their `pct` percentile.
pub fn min_samples(pct: usize) -> usize {
    assert!(pct < 100, "no sample count leaves ten beyond p{pct}");
    1000usize.div_ceil(100 - pct)
}

/// `samples` cut into `k` consecutive windows of (nearly) equal length.
pub fn windows(samples: &[f64], k: usize) -> impl Iterator<Item = &[f64]> {
    let n = samples.len();
    (0..k).map(move |i| &samples[i * n / k..(i + 1) * n / k])
}

/// Each consecutive window's `pct` percentile: up to `max_windows`
/// windows, but never so many that a window has fewer than ten samples
/// beyond its percentile (and at least one window).
pub fn window_percentiles(samples: &[f64], pct: usize, max_windows: usize) -> Vec<f64> {
    let k = (samples.len() / min_samples(pct)).clamp(1, max_windows);
    windows(samples, k).map(|w| percentile(w, pct)).collect()
}

/// The median of `samples` (any order): the middle sample, or the mean
/// of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many samples lie beyond the nearest-rank `pct` percentile of
    /// `n` — the tail that percentile rests on.
    fn beyond(n: usize, pct: usize) -> usize {
        n - rank(n, pct)
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        assert_eq!(rank(1000, 99), 990);
        assert_eq!(beyond(1000, 99), 10);
        // One sample fewer and the tail shrinks below ten: the timed
        // phase's floor of 1,000 batches is the smallest that works.
        assert_eq!(beyond(999, 99), 9);
        assert_eq!(beyond(2000, 99), 20);
    }

    #[test]
    fn percentile_selects_the_nearest_rank() {
        // 1..=1000 shuffled: the p99 is the 990th smallest, whatever
        // the order the samples arrive in.
        let samples: Vec<f64> = (0..1000u64)
            .map(|i| ((i * 337) % 1000 + 1) as f64)
            .collect();
        assert_eq!(percentile(&samples, 99), 990.0);
        assert_eq!(percentile(&samples, 50), 500.0);
        assert_eq!(percentile(&samples, 100), 1000.0);
        // An infinite sample (a failed batch) sorts last and so misses
        // every latency limit.
        let mut with_failure = samples.clone();
        with_failure[3] = f64::INFINITY;
        assert_eq!(percentile(&with_failure, 100), f64::INFINITY);
        assert_eq!(percentile(&with_failure, 99), 991.0);
    }

    #[test]
    fn windows_keep_ten_beyond_their_percentile() {
        assert_eq!(min_samples(99), 1000);
        assert_eq!(min_samples(50), 20);
        assert_eq!(beyond(min_samples(99), 99), 10);
        let cut: Vec<usize> = windows(&[0.0; 10], 3).map(<[f64]>::len).collect();
        assert_eq!(cut, vec![3, 3, 4]);
    }

    #[test]
    fn a_burst_moves_one_window() {
        // 5,000 batches at 1 ms, then outside load slows 600 batches of
        // one window to 9 ms: 12% of the run, far more than the 1% a
        // whole-run p99 can absorb.
        let mut samples = vec![1.0; 5000];
        for s in &mut samples[1200..1800] {
            *s = 9.0;
        }
        assert_eq!(percentile(&samples, 99), 9.0);
        let p99s = window_percentiles(&samples, 99, 10);
        assert_eq!(p99s, vec![1.0, 9.0, 1.0, 1.0, 1.0]);
        assert_eq!(median(&window_percentiles(&samples, 50, 10)), 1.0);
        // 1,999 samples leave room for one window only.
        assert_eq!(window_percentiles(&samples[1000..2999], 99, 10), vec![9.0]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
