//! Error-bounded linear quantization with outlier escape — the error-control
//! stage shared by every SZ-style pipeline.
//!
//! Given a prediction `p` for a true value `x` and an absolute bound `eb`,
//! the residual is quantized to `m = round((x − p) / (2·eb))`, reconstructed
//! as `x̂ = p + 2·eb·m`, which guarantees `|x − x̂| ≤ eb`. The symbol stream
//! uses `0` as an escape for *outliers* — residuals too large for the bin
//! budget, or cases where floating-point cancellation would break the bound —
//! whose values are stored verbatim.
//!
//! # Rounding without libm
//!
//! `f64::round` is a libm call on the default x86-64 target (no SSE4.1), and
//! the quantizer runs once per value of every SZ stream. [`Quantizer::quantize`]
//! therefore rounds with one truncating conversion instead. With
//! `t = (x − p) / (2·eb)`:
//!
//! * **Range.** `round` rounds halves away from zero, so
//!   `|round(t)| ≥ RADIUS ⇔ |t| ≥ RADIUS − 0.5`. The in-range test is
//!   `|t| < RADIUS − 0.5`, which NaN and ±∞ fail like every other outlier.
//! * **Identity.** Let `h = 0.49999999999999994` (the largest double below
//!   ½, `½ − 2⁻⁵⁴`). For every in-range `t`,
//!   `trunc(t + copysign(h, t)) = round(t)`. Take `t ≥ 0` with integer part
//!   `k` (negative `t` mirrors): if `frac(t) < ½` the exact sum is at most
//!   `k + 1 − ulp(t) − 2⁻⁵⁴`, below the representable `k + 1 − ulp(t)`, so
//!   the rounded sum stays under `k + 1`; if `frac(t) ≥ ½` the exact sum is
//!   at least `k + 1 − 2⁻⁵⁴`, which rounds to `k + 1` (for `k = 0` it is the
//!   tie between `1 − 2⁻⁵³` and `1`, and ties-to-even picks `1`). Adding a
//!   plain `0.5` fails exactly there: `0.49999999999999994 + 0.5` rounds up
//!   to `1.0`. The argument needs halves to be representable next to `t`,
//!   i.e. `|t| < 2⁵¹`; in range `ulp(t) ≤ 2⁻³⁸`, and the ZFP-like codec,
//!   which shares `round_half_away`, stays below `2⁴⁵`.
//!
//! The result differs from `round` in one unobservable bit: `round(−0.3)` is
//! `−0.0` and the integer path gives `+0`, so a reconstruction of `p = −0.0`
//! with a zero residual is `+0.0` here — which is what the decoder (integer
//! codes only) has always produced. Codes, outliers and every nonzero value
//! are unchanged.

use crate::CompressError;

/// Quantization symbol radius: codes are `m + RADIUS`, so the symbol
/// alphabet is `1 ..= 2·RADIUS` with `0` reserved for outliers.
pub const RADIUS: i64 = 1 << 15;

/// `t.round()` as an integer without the libm call; exact for
/// `|t| < 2⁵¹` (see the module docs), which callers establish first.
#[inline(always)]
pub(crate) fn round_half_away(t: f64) -> i64 {
    /// The largest double below one half.
    const BELOW_HALF: f64 = 0.499_999_999_999_999_94;
    (t + BELOW_HALF.copysign(t)) as i64
}

/// `t.round()` if it is a symbol (`|round(t)| < RADIUS`). NaN fails the
/// range test like any other outlier.
#[inline(always)]
fn round_in_range(t: f64) -> Option<i64> {
    (t.abs() < RADIUS as f64 - 0.5).then(|| round_half_away(t))
}

/// Outcome of quantizing one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quantized {
    /// In-range residual: symbol code and the reconstructed value.
    Code { code: u32, recon: f64 },
    /// Out-of-range: the value must be stored verbatim.
    Outlier,
}

/// Tally of quantization outcomes over one encode pass.
///
/// Encoders accumulate locally (no recorder traffic on the per-value fast
/// path) and publish once per stream via [`QuantStats::report`], which is
/// how the `quantizer.codes` / `quantizer.outliers` counters in
/// `amrviz-obs` are fed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QuantStats {
    /// Values that quantized to an in-range symbol.
    pub codes: u64,
    /// Values that escaped as verbatim outliers.
    pub outliers: u64,
}

impl QuantStats {
    /// Publishes the tally to the global observability counters (batched:
    /// two counter adds per stream, regardless of value count) and records
    /// the stream's integer hit rate (% of values that quantized in-range)
    /// into the `quantizer.hit_pct` histogram, giving the *distribution*
    /// of hit rates across streams rather than just the global mean.
    pub fn report(&self) {
        amrviz_obs::counter!("quantizer.codes", self.codes);
        amrviz_obs::counter!("quantizer.outliers", self.outliers);
        let total = self.codes + self.outliers;
        if let Some(hit_pct) = (self.codes * 100).checked_div(total) {
            amrviz_obs::histogram!("quantizer.hit_pct", hit_pct);
        }
    }
}

/// Error-bounded linear quantizer.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    eb: f64,
    inv_2eb: f64,
}

impl Quantizer {
    /// # Panics
    /// Panics if `eb` is not strictly positive and finite.
    pub fn new(eb: f64) -> Self {
        assert!(eb > 0.0 && eb.is_finite(), "error bound must be positive");
        Quantizer {
            eb,
            inv_2eb: 0.5 / eb,
        }
    }

    pub fn eb(&self) -> f64 {
        self.eb
    }

    /// Quantizes `actual` against prediction `pred`.
    #[inline]
    pub fn quantize(&self, pred: f64, actual: f64) -> Quantized {
        match self.encode(pred, actual) {
            (0, _) => Quantized::Outlier,
            (code, recon) => Quantized::Code { code, recon },
        }
    }

    /// The row kernels' form of [`Quantizer::quantize`]: the symbol and the
    /// value the decoder will hold at this position. An outlier is
    /// `(0, actual)` — the caller stores `actual` verbatim.
    #[inline(always)]
    pub(crate) fn encode(&self, pred: f64, actual: f64) -> (u32, f64) {
        let Some(m) = round_in_range((actual - pred) * self.inv_2eb) else {
            return (0, actual);
        };
        let recon = pred + 2.0 * self.eb * m as f64;
        // Floating-point safety net: if cancellation pushed the
        // reconstruction outside the bound, escape to an outlier.
        if (recon - actual).abs() > self.eb {
            return (0, actual);
        }
        ((m + RADIUS) as u32, recon)
    }

    /// Reconstructs from a symbol code (inverse of the `Code` arm).
    #[inline]
    pub fn reconstruct(&self, pred: f64, code: u32) -> f64 {
        let m = code as i64 - RADIUS;
        pred + 2.0 * self.eb * m as f64
    }
}

/// Appends the values whose symbol is the outlier escape. Encoders call
/// this once per row, after the cell loop: a `push` inside that loop is a
/// possible call, and a call makes the compiler keep every value the loop
/// carries from cell to cell on the stack.
#[inline]
pub(crate) fn append_outliers(codes: &[u32], actual: &[f64], outliers: &mut Vec<f64>) {
    outliers.extend(
        codes
            .iter()
            .zip(actual)
            .filter(|(&code, _)| code == 0)
            .map(|(_, &v)| v),
    );
}

/// The verbatim outlier values of a stream, in code order. Only
/// constructible from a section that holds exactly one value per zero code,
/// so reading is infallible and the reconstruction loops carry no `Result`.
pub(crate) struct Outliers<'a>(std::slice::ChunksExact<'a, u8>);

impl<'a> Outliers<'a> {
    /// Checks `section` against the zero (escape) symbols of `codes`: a
    /// short *or* surplus section is malformed.
    pub(crate) fn new(section: &'a [u8], codes: &[u32]) -> Result<Self, CompressError> {
        let escapes = codes.iter().filter(|&&c| c == 0).count();
        if section.len() != escapes * 8 {
            return Err(CompressError::Malformed(format!(
                "{escapes} outlier codes but a {}-byte outlier section",
                section.len()
            )));
        }
        Ok(Outliers(section.chunks_exact(8)))
    }

    /// The next outlier value.
    #[inline]
    pub(crate) fn take(&mut self) -> f64 {
        let bytes = self.0.next().expect("one value per zero code");
        f64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }
}

/// The `f64::round` quantizer the integer path replaced, kept as the
/// reference the compressors' per-cell oracles quantize with.
#[cfg(test)]
pub(crate) fn quantize_oracle(q: &Quantizer, pred: f64, actual: f64) -> Quantized {
    let diff = actual - pred;
    let m = (diff * q.inv_2eb).round();
    if m.abs() >= RADIUS as f64 || !m.is_finite() {
        return Quantized::Outlier;
    }
    let recon = pred + 2.0 * q.eb * m;
    if (recon - actual).abs() > q.eb {
        return Quantized::Outlier;
    }
    Quantized::Code {
        code: (m as i64 + RADIUS) as u32,
        recon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_rng::check;

    /// `round_in_range` as the parent computed it.
    fn round_oracle(t: f64) -> Option<i64> {
        let m = t.round();
        (m.abs() < RADIUS as f64 && m.is_finite()).then_some(m as i64)
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(if x >= 0.0 {
            x.to_bits() + 1
        } else {
            x.to_bits() - 1
        })
    }

    fn next_down(x: f64) -> f64 {
        -next_up(-x)
    }

    #[test]
    fn integer_rounding_equals_f64_round() {
        let check_around = |t: f64| {
            for t in [
                next_down(next_down(t)),
                next_down(t),
                t,
                next_up(t),
                next_up(next_up(t)),
            ] {
                assert_eq!(round_in_range(t), round_oracle(t), "t = {t:e}");
                assert_eq!(round_in_range(-t), round_oracle(-t), "t = {:e}", -t);
            }
        };
        // Every half-way point and every integer up to the radius; the last
        // half, RADIUS − 0.5, is the range limit itself.
        for k in 0..=RADIUS {
            check_around(k as f64);
            check_around(k as f64 + 0.5);
            check_around(k as f64 - 0.5);
        }
        assert_eq!(round_in_range(RADIUS as f64 - 0.5), None);
        assert_eq!(
            round_in_range(next_down(RADIUS as f64 - 0.5)),
            Some(RADIUS - 1)
        );
        // The value a plain `+ 0.5` gets wrong.
        assert_eq!(round_in_range(0.499_999_999_999_999_94), Some(0));
        for t in [
            0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_eq!(round_in_range(t), round_oracle(t), "t = {t:e}");
            assert_eq!(round_in_range(-t), round_oracle(-t), "t = {:e}", -t);
        }
    }

    #[test]
    fn quantize_equals_the_round_based_quantizer() {
        // 2¹⁶ draws; `Quantized` equality is value equality, which is all a
        // stream can observe (see the module docs on the sign of zero).
        check(0x0AC1E, 1 << 16, |rng| {
            let eb = 10f64.powf(rng.range_f64(-9.0, 3.0));
            let q = Quantizer::new(eb);
            let pred = rng.range_f64(-1e3, 1e3);
            // Residuals from well inside one bin to past the radius, and
            // exact bin edges, where rounding decides the code.
            let actual = match rng.below(4) {
                0 => pred + rng.range_f64(-4.0, 4.0) * eb,
                1 => pred + (2 * rng.range_i64(-40000, 40000) + 1) as f64 * eb,
                2 => pred + rng.range_f64(-7e4, 7e4) * 2.0 * eb,
                _ => rng.range_f64(-1e3, 1e3),
            };
            assert_eq!(
                q.quantize(pred, actual),
                quantize_oracle(&q, pred, actual),
                "pred {pred:e} actual {actual:e} eb {eb:e}"
            );
        });
    }

    #[test]
    fn outliers_reject_short_and_surplus_sections() {
        let codes = [5, 0, 7, 0];
        let section = [1.5f64, -2.5].map(f64::to_le_bytes).concat();
        let mut ok = Outliers::new(&section, &codes).unwrap();
        assert_eq!((ok.take(), ok.take()), (1.5, -2.5));
        for bad in [
            &section[..8],
            &section[..15],
            &[section.as_slice(), &[0]].concat()[..],
        ] {
            assert!(matches!(
                Outliers::new(bad, &codes),
                Err(CompressError::Malformed(_))
            ));
        }
        assert!(Outliers::new(&[], &[1, 2, 3]).is_ok());
    }

    #[test]
    fn zero_residual_gets_center_code() {
        let q = Quantizer::new(0.1);
        match q.quantize(5.0, 5.0) {
            Quantized::Code { code, recon } => {
                assert_eq!(code, RADIUS as u32);
                assert_eq!(recon, 5.0);
            }
            Quantized::Outlier => panic!("unexpected outlier"),
        }
    }

    #[test]
    fn bound_respected_for_in_range() {
        let q = Quantizer::new(0.01);
        for &(p, x) in &[(0.0, 0.004), (1.0, 1.5), (-3.0, -2.0), (10.0, 10.0099)] {
            if let Quantized::Code { recon, code } = q.quantize(p, x) {
                assert!((recon - x).abs() <= 0.01, "bound violated: {recon} vs {x}");
                assert_eq!(q.reconstruct(p, code), recon);
            }
        }
    }

    #[test]
    fn large_residual_is_outlier() {
        let q = Quantizer::new(1e-6);
        assert_eq!(q.quantize(0.0, 1.0), Quantized::Outlier);
    }

    #[test]
    fn nan_and_inf_are_outliers() {
        let q = Quantizer::new(0.1);
        assert_eq!(q.quantize(0.0, f64::NAN), Quantized::Outlier);
        assert_eq!(q.quantize(0.0, f64::INFINITY), Quantized::Outlier);
        assert_eq!(q.quantize(f64::NAN, 0.0), Quantized::Outlier);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_eb() {
        Quantizer::new(0.0);
    }

    #[test]
    fn roundtrip_never_violates_bound() {
        check(0x9AA, 512, |rng| {
            let pred = rng.range_f64(-1e12, 1e12);
            let actual = rng.range_f64(-1e12, 1e12);
            let eb_exp = rng.range_i64(-9, 2) as i32;
            let eb = 10f64.powi(eb_exp);
            let q = Quantizer::new(eb);
            match q.quantize(pred, actual) {
                Quantized::Code { code, recon } => {
                    assert!((recon - actual).abs() <= eb);
                    assert!(code > 0 && code <= 2 * RADIUS as u32);
                    assert_eq!(q.reconstruct(pred, code), recon);
                }
                Quantized::Outlier => {} // stored verbatim → exact
            }
        });
    }
}
