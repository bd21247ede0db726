//! Pointwise error statistics between an original and a reconstruction.

/// Summary of pointwise reconstruction error.
#[derive(Debug, Clone, Copy)]
pub struct QualityStats {
    /// Number of samples compared.
    pub n: usize,
    /// Value range (max − min) of the *original* data.
    pub range: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Peak signal-to-noise ratio, `20·log10(range/RMSE)` (dB).
    /// `f64::INFINITY` for bit-exact reconstructions.
    pub psnr: f64,
    /// Largest absolute pointwise error.
    pub max_abs_err: f64,
}

/// Computes pointwise statistics. Panics if lengths differ or are zero.
pub fn quality(original: &[f64], reconstructed: &[f64]) -> QualityStats {
    assert_eq!(
        original.len(),
        reconstructed.len(),
        "quality: length mismatch"
    );
    assert!(!original.is_empty(), "quality: empty input");

    let _sp = amrviz_obs::span!("metrics.quality", n = original.len());
    // Fixed-size chunks reduced in chunk order: the float accumulation
    // grouping depends only on CHUNK, never on the thread count, so the
    // stats are bit-identical at any `--threads` setting. In a chunk the
    // squared errors add up serially in element order; the extrema are
    // exact in any order, so they stay off that chain in `LANES`
    // compare-select lanes, which vectorise.
    const CHUNK: usize = 1 << 16;
    const LANES: usize = 8;
    let min = |a: f64, x: f64| if x < a { x } else { a };
    let max = |a: f64, x: f64| if x > a { x } else { a };
    let start = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64, 0.0f64);
    let (lo, hi, se_sum, max_ae) = amrviz_par::reduce_chunked(
        original.len(),
        CHUNK,
        start,
        |r| {
            let (o, rv) = (&original[r.clone()], &reconstructed[r]);
            let mut lo = [f64::INFINITY; LANES];
            let mut hi = [f64::NEG_INFINITY; LANES];
            let mut mx = [0.0f64; LANES];
            let mut se = 0.0;
            let (rows, tail) = o.as_chunks::<LANES>();
            let (rv_rows, rv_tail) = rv.as_chunks::<LANES>();
            for (o, rv) in rows.iter().zip(rv_rows) {
                let d: [f64; LANES] = std::array::from_fn(|i| o[i] - rv[i]);
                for i in 0..LANES {
                    lo[i] = min(lo[i], o[i]);
                    hi[i] = max(hi[i], o[i]);
                    mx[i] = max(mx[i], d[i].abs());
                }
                se = d.iter().fold(se, |se, d| se + d * d);
            }
            let mut acc = (
                lo.into_iter().fold(f64::INFINITY, min),
                hi.into_iter().fold(f64::NEG_INFINITY, max),
                mx.into_iter().fold(0.0, max),
            );
            for (&o, &rv) in tail.iter().zip(rv_tail) {
                let d = o - rv;
                se += d * d;
                acc = (min(acc.0, o), max(acc.1, o), max(acc.2, d.abs()));
            }
            (acc.0, acc.1, se, acc.2)
        },
        |(al, ah, se1, m1), (bl, bh, se2, m2)| (al.min(bl), ah.max(bh), se1 + se2, m1.max(m2)),
    );
    let range = hi - lo;

    let n = original.len();
    let rmse = (se_sum / n as f64).sqrt();
    let psnr = if rmse == 0.0 {
        f64::INFINITY
    } else if range == 0.0 {
        f64::NEG_INFINITY
    } else {
        20.0 * (range / rmse).log10()
    };
    QualityStats {
        n,
        range,
        rmse,
        psnr,
        max_abs_err: max_ae,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_data_is_lossless() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let s = quality(&a, &a);
        assert_eq!(s.rmse, 0.0);
        assert_eq!(s.psnr, f64::INFINITY);
        assert_eq!(s.max_abs_err, 0.0);
        assert_eq!(s.range, 3.0);
    }

    #[test]
    fn known_error_values() {
        let orig = vec![0.0, 10.0]; // range 10
        let recon = vec![1.0, 9.0]; // errors ±1
        let s = quality(&orig, &recon);
        assert!((s.rmse - 1.0).abs() < 1e-15);
        assert!((s.psnr - 20.0).abs() < 1e-12); // 20·log10(10/1)
        assert_eq!(s.max_abs_err, 1.0);
    }

    #[test]
    fn psnr_scales_with_error() {
        let orig: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let small: Vec<f64> = orig.iter().map(|v| v + 0.001).collect();
        let large: Vec<f64> = orig.iter().map(|v| v + 0.1).collect();
        let s_small = quality(&orig, &small);
        let s_large = quality(&orig, &large);
        assert!(s_small.psnr > s_large.psnr);
        // Error ratio 100 → 40 dB PSNR difference.
        assert!((s_small.psnr - s_large.psnr - 40.0).abs() < 1e-9);
    }

    #[test]
    fn constant_original_handled() {
        let orig = vec![5.0; 10];
        let recon = vec![5.5; 10];
        let s = quality(&orig, &recon);
        assert_eq!(s.range, 0.0);
        assert_eq!(s.psnr, f64::NEG_INFINITY);
    }

    #[test]
    fn one_pass_matches_the_two_pass_reference() {
        // The reference: min/max in one chunked reduction, the error sum and
        // max in a second, both over the same 65 536-element chunks.
        fn two_pass(orig: &[f64], recon: &[f64]) -> [f64; 3] {
            let chunks = || orig.chunks(1 << 16).zip(recon.chunks(1 << 16));
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (o, _) in chunks() {
                let (l, h) = o
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
                        (l.min(v), h.max(v))
                    });
                (lo, hi) = (lo.min(l), hi.max(h));
            }
            let (mut se, mut mx) = (0.0f64, 0.0f64);
            for (o, r) in chunks() {
                let (s, m) = o.iter().zip(r).fold((0.0f64, 0.0f64), |(s, m), (&o, &r)| {
                    let d = o - r;
                    (s + d * d, m.max(d.abs()))
                });
                (se, mx) = (se + s, mx.max(m));
            }
            [hi - lo, (se / orig.len() as f64).sqrt(), mx]
        }
        amrviz_rng::check(0x9a11, 6, |rng| {
            // Several chunks and a ragged last one, whose length is not a
            // multiple of the 8 extrema lanes.
            let n = 8 * rng.range_usize(0, 25_000) + rng.range_usize(1, 7);
            let orig: Vec<f64> = (0..n).map(|_| rng.range_f64(-3.0, 5.0)).collect();
            let recon: Vec<f64> = orig
                .iter()
                .map(|v| v + rng.range_f64(-0.01, 0.01))
                .collect();
            let q = quality(&orig, &recon);
            let got = [q.range, q.rmse, q.max_abs_err];
            assert_eq!(
                got.map(f64::to_bits),
                two_pass(&orig, &recon).map(f64::to_bits),
                "n = {n}"
            );
        });
    }

    #[test]
    fn every_reported_statistic_is_pinned_to_the_bit() {
        // Two chunks, the second ragged; errors of both signs and a zero.
        let orig: Vec<f64> = (0..70_000).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let recon: Vec<f64> = (0..70_000)
            .map(|i| orig[i] + ((i * 7919 % 13) as f64 - 6.0) * 1e-3)
            .collect();
        let q = quality(&orig, &recon);
        assert_eq!(q.n, 70_000);
        assert_eq!(
            [q.range, q.rmse, q.psnr, q.max_abs_err].map(f64::to_bits),
            [
                4618441417858186922,
                4570774207100648034,
                4634211168410610009,
                4573567551181324032
            ]
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        quality(&[1.0], &[1.0, 2.0]);
    }
}
