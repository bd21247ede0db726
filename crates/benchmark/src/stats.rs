//! The benchmark's own order statistics. Deliberately independent of the
//! program's quantile helpers (`obs::hist`, `serve::loadgen`, …): changing
//! or merging those must not be able to move a benchmark number.

/// Exact nearest-rank percentile of raw samples: the smallest sample such
/// that at least `p` percent of the samples are less than or equal to it.
/// Always returns one of the samples.
///
/// # Panics
/// Panics on an empty slice, a NaN sample, or `p` outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank p50 — the one "median" every timing metric uses.
pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The fastest sample: what every end-to-end time reports. On this shared
/// two-core box a neighbour slows the same code by 25 % and more for a
/// minute at a time, which moves the median of a run as far; the fastest
/// operation of a run is the one the neighbours left alone.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    assert!(samples.iter().all(|s| !s.is_nan()), "samples are not NaN");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Mean over the groups of each group's [`fastest`] sample. `samples` are
/// `(group, value)` pairs; a group stands for one distinct input (one
/// store key), so a mix of cheap and dear inputs keeps its weights.
pub fn mean_of_fastest(samples: impl IntoIterator<Item = (usize, f64)>) -> f64 {
    let mut best: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
    for (group, value) in samples {
        assert!(!value.is_nan(), "samples are not NaN");
        let b = best.entry(group).or_insert(f64::INFINITY);
        *b = b.min(value);
    }
    assert!(!best.is_empty(), "mean_of_fastest of no samples");
    best.values().sum::<f64>() / best.len() as f64
}

/// Completions per second in the best of the equal windows that tile
/// `[0, span_s)`, each as close to `window_s` long as a whole number of
/// them allows (one window if the span is shorter). `done_at_s` are
/// completion times from the start of the span; one past its end counts
/// in no window. The best window is to a rate what [`fastest`] is to a time.
pub fn best_window_rate(done_at_s: &[f64], span_s: f64, window_s: f64) -> f64 {
    assert!(span_s > 0.0 && window_s > 0.0, "empty span or window");
    let windows = ((span_s / window_s).floor() as usize).max(1);
    let width = span_s / windows as f64;
    let mut counts = vec![0u64; windows];
    for &t in done_at_s {
        if (0.0..span_s).contains(&t) {
            counts[((t / width) as usize).min(windows - 1)] += 1;
        }
    }
    counts.into_iter().max().unwrap_or(0) as f64 / width
}

/// `(q1, median, q3)` of a run set, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// `compare` and the driver see the same spread. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("values are not NaN"));
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, clamped into the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_on_raw_samples() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 5.0), 15.0);
        assert_eq!(percentile(&s, 30.0), 20.0);
        assert_eq!(percentile(&s, 40.0), 20.0);
        assert_eq!(percentile(&s, 50.0), 35.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        // Order of arrival does not matter; the result is always a sample.
        let shuffled = [40.0, 15.0, 50.0, 20.0, 35.0];
        assert_eq!(percentile(&shuffled, 90.0), 50.0);
        // Even count: the lower middle, never an interpolated value.
        assert_eq!(p50(&[1.0, 2.0, 3.0, 4.0]), 2.0);
        // 100 samples 1..=100: pN is N.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile(&hundred, p), p);
        }
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn fastest_is_per_group_and_groups_weigh_the_same() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        // Two inputs, one cheap and asked for three times as often: the
        // result is the mean of the two minima, not the cheap minimum.
        let samples = [(0, 1.2), (0, 1.0), (0, 1.1), (7, 5.0), (0, 1.3), (7, 4.0)];
        assert_eq!(mean_of_fastest(samples), 2.5);
        assert_eq!(mean_of_fastest([(3, 9.0)]), 9.0);
    }

    #[test]
    fn best_window_ignores_a_stalled_stretch() {
        // 4 s at 10/s, but nothing completes during the second second.
        let done: Vec<f64> = (0..40)
            .map(|i| f64::from(i) * 0.1 + 0.05)
            .filter(|t| !(1.0..2.0).contains(t))
            .collect();
        assert_eq!(best_window_rate(&done, 4.0, 1.0), 10.0);
        // A completion after the span ends counts nowhere.
        assert_eq!(best_window_rate(&[0.1, 0.2, 4.5], 4.0, 1.0), 2.0);
        // A span shorter than the window is one window of its own length.
        assert_eq!(best_window_rate(&[0.01, 0.02, 0.03], 0.05, 1.0), 60.0);
        // 2.5 s tiles into two windows of 1.25 s.
        assert_eq!(
            best_window_rate(&[0.1, 1.2, 1.3, 2.4], 2.5, 1.0),
            2.0 / 1.25
        );
        assert_eq!(best_window_rate(&[], 1.0, 1.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; Python
        // extrapolates, which a spread must not, so the ends clamp.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 1.5, 2.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }
}
