//! Pointwise error statistics between an original and a reconstruction.

use amrviz_json::{Json, ToJson};

/// Summary of pointwise reconstruction error.
#[derive(Debug, Clone, Copy)]
pub struct QualityStats {
    /// Number of samples compared.
    pub n: usize,
    /// Value range (max − min) of the *original* data.
    pub range: f64,
    /// Mean squared error.
    pub mse: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Normalized RMSE (RMSE / range; 0 when the original is constant).
    pub nrmse: f64,
    /// Peak signal-to-noise ratio, `20·log10(range/RMSE)` (dB).
    /// `f64::INFINITY` for bit-exact reconstructions.
    pub psnr: f64,
    /// Largest absolute pointwise error.
    pub max_abs_err: f64,
    /// Mean absolute pointwise error.
    pub mean_abs_err: f64,
}

/// Computes pointwise statistics. Panics if lengths differ or are zero.
pub fn quality(original: &[f64], reconstructed: &[f64]) -> QualityStats {
    assert_eq!(
        original.len(),
        reconstructed.len(),
        "quality: length mismatch"
    );
    assert!(!original.is_empty(), "quality: empty input");

    // Fixed-size chunks reduced in chunk order: the float accumulation
    // grouping depends only on CHUNK, never on the thread count, so the
    // stats are bit-identical at any `--threads` setting. One trip over
    // the data yields the original's range and the error sums together.
    const CHUNK: usize = 1 << 16;
    let start = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64, 0.0f64, 0.0f64);
    let (min, max, se_sum, ae_sum, max_ae) = amrviz_par::reduce_chunked(
        original.len(),
        CHUNK,
        start,
        |r| {
            original[r.clone()].iter().zip(&reconstructed[r]).fold(
                start,
                |(lo, hi, se, ae, mx), (&o, &rv)| {
                    let d = o - rv;
                    (
                        lo.min(o),
                        hi.max(o),
                        se + d * d,
                        ae + d.abs(),
                        mx.max(d.abs()),
                    )
                },
            )
        },
        |(al, ah, se1, ae1, m1), (bl, bh, se2, ae2, m2)| {
            (al.min(bl), ah.max(bh), se1 + se2, ae1 + ae2, m1.max(m2))
        },
    );
    let range = max - min;

    let n = original.len();
    let mse = se_sum / n as f64;
    let rmse = mse.sqrt();
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
        mse,
        rmse,
        nrmse: if range == 0.0 { 0.0 } else { rmse / range },
        psnr,
        max_abs_err: max_ae,
        mean_abs_err: ae_sum / n as f64,
    }
}

impl ToJson for QualityStats {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("n", self.n)
            .set("range", self.range)
            .set("mse", self.mse)
            .set("rmse", self.rmse)
            .set("nrmse", self.nrmse)
            .set("psnr", self.psnr)
            .set("max_abs_err", self.max_abs_err)
            .set("mean_abs_err", self.mean_abs_err);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_data_is_lossless() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let s = quality(&a, &a);
        assert_eq!(s.mse, 0.0);
        assert_eq!(s.psnr, f64::INFINITY);
        assert_eq!(s.max_abs_err, 0.0);
        assert_eq!(s.range, 3.0);
    }

    #[test]
    fn known_error_values() {
        let orig = vec![0.0, 10.0]; // range 10
        let recon = vec![1.0, 9.0]; // errors ±1
        let s = quality(&orig, &recon);
        assert!((s.mse - 1.0).abs() < 1e-15);
        assert!((s.rmse - 1.0).abs() < 1e-15);
        assert!((s.psnr - 20.0).abs() < 1e-12); // 20·log10(10/1)
        assert_eq!(s.max_abs_err, 1.0);
        assert!((s.nrmse - 0.1).abs() < 1e-15);
        assert_eq!(s.mean_abs_err, 1.0);
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
        assert_eq!(s.nrmse, 0.0);
    }

    #[test]
    fn one_pass_matches_the_two_pass_reference() {
        // The reference: min/max in one chunked reduction, the error sums in
        // a second, both over the same 65 536-element chunks.
        fn two_pass(orig: &[f64], recon: &[f64]) -> [f64; 4] {
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
            let (mut se, mut ae, mut mx) = (0.0f64, 0.0f64, 0.0f64);
            for (o, r) in chunks() {
                let (s, a, m) =
                    o.iter()
                        .zip(r)
                        .fold((0.0f64, 0.0f64, 0.0f64), |(s, a, m), (&o, &r)| {
                            let d = o - r;
                            (s + d * d, a + d.abs(), m.max(d.abs()))
                        });
                (se, ae, mx) = (se + s, ae + a, mx.max(m));
            }
            let n = orig.len() as f64;
            [hi - lo, se / n, ae / n, mx]
        }
        amrviz_rng::check(0x9a11, 6, |rng| {
            // Several chunks and a ragged last one.
            let n = rng.range_usize(1, 200_000);
            let orig: Vec<f64> = (0..n).map(|_| rng.range_f64(-3.0, 5.0)).collect();
            let recon: Vec<f64> = orig
                .iter()
                .map(|v| v + rng.range_f64(-0.01, 0.01))
                .collect();
            let q = quality(&orig, &recon);
            let got = [q.range, q.mse, q.mean_abs_err, q.max_abs_err];
            assert_eq!(
                got.map(f64::to_bits),
                two_pass(&orig, &recon).map(f64::to_bits),
                "n = {n}"
            );
        });
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        quality(&[1.0], &[1.0, 2.0]);
    }
}
