//! Log-bucketed, mergeable histograms.
//!
//! The pipeline's distributional questions — p50/p99 per-piece compress
//! latency, blob-size spread, quantizer hit rates — need more than the
//! scalar counters of [`crate::counter!`], but must stay cheap enough to
//! record from inside `amrviz-par` worker closures. The scheme here is the
//! HDR-style log-linear layout used by SZ3/SDRBench-style evaluation
//! harnesses:
//!
//! * values `0..16` map to their own exact bucket (indices `0..16`);
//! * larger values split each power-of-two octave `[2^m, 2^{m+1})` into
//!   [`SUB_BUCKETS`] = 8 equal sub-buckets (≤ 12.5 % relative width),
//!   giving [`NUM_BUCKETS`] = 496 buckets total for the full `u64` range.
//!
//! Buckets are plain `u64` counts, so recording a value and merging two
//! histograms are bucket-wise integer sums — **commutative and
//! associative**, which is what makes the recorder's histograms
//! deterministic: no matter which worker thread recorded which value, in
//! what order, or how windows were merged, the snapshot is identical.
//! Percentiles interpolate linearly inside the target bucket and clamp to
//! the exact observed `[min, max]`, so they too are thread-count invariant
//! for a fixed multiset of recorded values.

use std::collections::BTreeMap;

/// Number of low bits used for sub-bucketing: each octave is split into
/// `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 3;

/// Sub-buckets per power-of-two octave (8 → ≤ 12.5 % relative error).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total number of addressable buckets for the full `u64` domain.
/// Indices `0..16` are exact; the highest value `u64::MAX` lands in
/// bucket `NUM_BUCKETS - 1`.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// Bucket index for a value (see module docs for the layout).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < (2 * SUB_BUCKETS) as u64 {
        // Exact region: 0..16 → indices 0..16.
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS + 1
        let sub = (v >> (msb - SUB_BITS)) & (SUB_BUCKETS as u64 - 1);
        ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub as usize
    }
}

/// Inclusive `[lo, hi]` value range covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
    if i < 2 * SUB_BUCKETS {
        (i as u64, i as u64)
    } else {
        let msb = (i / SUB_BUCKETS) as u32 + SUB_BITS - 1;
        let sub = (i % SUB_BUCKETS) as u64;
        let width = 1u64 << (msb - SUB_BITS);
        let lo = (1u64 << msb) + sub * width;
        // `lo + width` overflows for the very last bucket; add `width - 1`.
        (lo, lo + (width - 1))
    }
}

/// A mergeable log-bucketed histogram of `u64` samples.
///
/// The bucket vector grows lazily to the highest index touched, so an
/// idle histogram is a few words and a latency histogram over microsecond
/// values stays small.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Adds every sample of `other` into `self`. Bucket-wise integer sums,
    /// so merge order never changes the result.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`p` in `[0, 100]`), interpolated linearly
    /// inside the target bucket and clamped to the observed `[min, max]`.
    /// Returns 0.0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the target sample, 1-based.
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let (lo, hi) = bucket_bounds(i);
                let frac = (target - cum) as f64 / c as f64;
                let v = lo as f64 + frac * (hi - lo + 1) as f64;
                return v.clamp(self.min as f64, self.max as f64);
            }
            cum += c;
        }
        self.max as f64
    }

    /// Summary stats (count/sum/min/max/mean + p50/p90/p99) as one JSON
    /// object — the shape the serve STATS snapshot and the `repro` manifests
    /// share. Floats are plain decimal: integral values carry a trailing
    /// `.0`, non-finite ones render as `0.0`.
    pub fn stats_json(&self) -> String {
        fn fmt_f64(v: f64) -> String {
            if !v.is_finite() {
                "0.0".to_string()
            } else if v == v.trunc() && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{}}}",
            self.count(),
            self.sum(),
            self.min(),
            self.max(),
            fmt_f64(self.mean()),
            fmt_f64(self.percentile(50.0)),
            fmt_f64(self.percentile(90.0)),
            fmt_f64(self.percentile(99.0)),
        )
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }
}

/// Exact-rank percentile of an ascending sample: the value at index
/// `round((n − 1) · p)`, `p` in `[0, 1]`; 0 for an empty sample. For raw
/// samples already in hand (a journal, a load run) — where the samples
/// stream by, [`Histogram::percentile`] is the log-bucketed estimate.
pub fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0;
    };
    sorted[((last as f64 * p).round() as usize).min(last)]
}

/// Renders a snapshot map as an aligned text table (used by `--timing`).
pub fn render_text(hists: &BTreeMap<&'static str, Histogram>) -> String {
    let mut out = String::new();
    if hists.is_empty() {
        return out;
    }
    out.push_str(&format!(
        "{:<28} {:>9} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "histogram", "count", "mean", "p50", "p90", "p99", "max"
    ));
    for (name, h) in hists {
        out.push_str(&format!(
            "{:<28} {:>9} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12}\n",
            name,
            h.count(),
            h.mean(),
            h.percentile(50.0),
            h.percentile(90.0),
            h.percentile(99.0),
            h.max()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentile_picks_expected_ranks() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_percentile(&v, 0.50), 51); // round((99)*0.5)=50 → v[50]=51
        assert_eq!(exact_percentile(&v, 0.99), 99);
        assert_eq!(exact_percentile(&v, 1.0), 100);
        assert_eq!(exact_percentile(&[], 0.5), 0);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn buckets_tile_the_domain() {
        // Bounds are contiguous: each bucket starts right after the last.
        let mut expect_lo = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i} lower bound");
            assert!(hi >= lo);
            if hi == u64::MAX {
                assert_eq!(i, NUM_BUCKETS - 1);
                return;
            }
            expect_lo = hi + 1;
        }
        panic!("domain not covered");
    }

    #[test]
    fn index_and_bounds_agree() {
        for v in [
            0,
            1,
            15,
            16,
            17,
            100,
            1023,
            1024,
            4096,
            1 << 20,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} bounds=({lo},{hi})");
        }
    }

    #[test]
    fn relative_error_bounded() {
        // Sub-bucket width is <= 12.5 % of the bucket's lower bound.
        for v in [100u64, 1000, 123_456, 9_999_999] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!((hi - lo + 1) as f64 <= lo as f64 / 8.0 + 1.0, "v={v}");
        }
    }

    #[test]
    fn percentiles_interpolate_and_clamp() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        let p50 = h.percentile(50.0);
        assert!((40.0..=60.0).contains(&p50), "p50={p50}");
        let p99 = h.percentile(99.0);
        assert!((90.0..=100.0).contains(&p99), "p99={p99}");
        assert!(h.percentile(0.0) >= 1.0);
        assert!(h.percentile(100.0) <= 100.0);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_is_order_independent() {
        let samples: Vec<u64> = (0..500u64).map(|i| i * i % 7919 + i).collect();
        // Record sequentially.
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }
        // Record into 4 shards assigned round-robin, merge in two different
        // orders.
        let mut shards = vec![Histogram::new(); 4];
        for (i, &s) in samples.iter().enumerate() {
            shards[i % 4].record(s);
        }
        let mut fwd = Histogram::new();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = Histogram::new();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd, whole);
        assert_eq!(rev, whole);
    }

    #[test]
    fn single_sample_percentiles_collapse_to_the_sample() {
        // One sample: every percentile must be exactly that value — the
        // interpolation has nothing to spread over and the [min, max]
        // clamp pins both ends.
        for v in [0u64, 1, 15, 16, 17, 1000, u64::MAX] {
            let mut h = Histogram::new();
            h.record(v);
            for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(h.percentile(p), v as f64, "v={v} p={p}");
            }
        }
    }

    #[test]
    fn two_bucket_percentiles_split_at_the_rank_boundary() {
        // 3 samples in the exact bucket for 2, 1 sample in the bucket for
        // 1000: ranks 1-3 resolve inside the low bucket, rank 4 (p99, and
        // anything above 75%) inside the high one.
        let mut h = Histogram::new();
        h.record(2);
        h.record(2);
        h.record(2);
        h.record(1000);
        // Ranks 1-3 resolve in 2's exact bucket: interpolation spreads
        // them across [2, 3), so p50 (rank 2) and p75 (rank 3) stay below
        // the top of that bucket, never jumping toward 1000.
        let p50 = h.percentile(50.0);
        assert!((2.0..=3.0).contains(&p50), "rank 2 of 4: p50={p50}");
        let p75 = h.percentile(75.0);
        assert!((2.0..=3.0).contains(&p75), "rank 3 of 4: p75={p75}");
        let p99 = h.percentile(99.0);
        let (lo, hi) = bucket_bounds(bucket_index(1000));
        assert!(
            (lo as f64..=hi as f64 + 1.0).contains(&p99) && p99 <= 1000.0,
            "p99={p99} must interpolate inside 1000's bucket and clamp to max"
        );
        assert_eq!(h.percentile(100.0), 1000.0);
    }

    #[test]
    fn saturating_sum_keeps_percentiles_sane() {
        // Two u64::MAX samples overflow the sum (which saturates), but
        // counts, min/max and percentiles must stay exact.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(1);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), u64::MAX);
        // Rank 1 sits in 1's exact bucket (interpolated within [1, 2]).
        let p1 = h.percentile(1.0);
        assert!((1.0..=2.0).contains(&p1), "p1={p1}");
        assert_eq!(h.percentile(99.0), u64::MAX as f64);
        // Merging two saturated histograms must also saturate, not wrap.
        let mut a = h.clone();
        a.merge(&h);
        assert_eq!(a.sum(), u64::MAX);
        assert_eq!(a.count(), 6);
    }

    #[test]
    fn merge_commutes_property() {
        // rng-seeded property: merge(a, b) == merge(b, a) and both equal
        // direct recording of the combined multiset.
        amrviz_rng::check(0x4157_0001, 32, |rng| {
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            let mut whole = Histogram::new();
            for _ in 0..rng.range_usize(0, 300) {
                // Mix magnitudes so both the exact and log regions see
                // traffic, including occasional u64-scale outliers.
                let v = match rng.below(4) {
                    0 => rng.below(16),
                    1 => rng.below(1 << 10),
                    2 => rng.below(1 << 40),
                    _ => u64::MAX - rng.below(1 << 8),
                };
                whole.record(v);
                if rng.chance(0.5) {
                    a.record(v);
                } else {
                    b.record(v);
                }
            }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge must be commutative");
            assert_eq!(ab, whole, "merge must equal direct recording");
        });
    }

    #[test]
    fn render_text_lists_each_histogram() {
        let mut m = BTreeMap::new();
        let mut h = Histogram::new();
        h.record(5);
        h.record(500);
        m.insert("a.us", h);
        let t = render_text(&m);
        assert!(t.contains("a.us"));
        assert!(t.contains("p99"));
    }
}
