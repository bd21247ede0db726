//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! A [`Fft1dPlan`] precomputes the bit-reversal permutation and twiddle
//! factors for a fixed power-of-two length so that repeated transforms of
//! the same size (the common case when transforming the rows of a 3D grid)
//! do no trigonometry in the hot loop.

use crate::complex::Complex;
use crate::is_pow2;

/// Precomputed plan for transforms of one fixed length.
pub struct Fft1dPlan {
    n: usize,
    /// Bit-reversal permutation: `rev[i]` is `i` with its `log2(n)` low bits
    /// reversed.
    rev: Vec<u32>,
    /// Twiddles for the forward transform, concatenated per stage: stage `s`
    /// (half-size `m = 2^s`) contributes `m` factors `exp(-iπj/m)`.
    twiddles: Vec<Complex>,
}

impl Fft1dPlan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(is_pow2(n), "FFT length must be a power of two, got {n}");
        let bits = n.trailing_zeros();
        let mut rev = vec![0u32; n];
        for i in 0..n {
            rev[i] = (rev[i >> 1] >> 1) | (((i & 1) as u32) << (bits.saturating_sub(1)));
        }
        // Per-stage twiddles. Total size n-1 for n >= 1.
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut m = 1usize;
        while m < n {
            let step = -std::f64::consts::PI / m as f64;
            for j in 0..m {
                twiddles.push(Complex::cis(step * j as f64));
            }
            m <<= 1;
        }
        Fft1dPlan { n, rev, twiddles }
    }

    /// In-place forward transform.
    ///
    /// # Panics
    /// Panics if `data.len()` is not the plan length.
    pub fn forward(&self, data: &mut [Complex]) {
        self.transform(data, false);
    }

    /// In-place inverse transform (conjugate kernel, divides by `n`).
    pub fn inverse(&self, data: &mut [Complex]) {
        self.transform(data, true);
        let inv = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
    }

    fn transform(&self, data: &mut [Complex], invert: bool) {
        let n = self.n;
        assert_eq!(data.len(), n, "buffer length mismatch");
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Butterflies. Twiddles for stage with half-size m start at offset
        // m-1 (1 + 2 + ... + m/2 = m - 1).
        let mut m = 1usize;
        while m < n {
            let tw = &self.twiddles[m - 1..2 * m - 1];
            let mut k = 0;
            while k < n {
                for j in 0..m {
                    let w = if invert { tw[j].conj() } else { tw[j] };
                    let t = w * data[k + j + m];
                    let u = data[k + j];
                    data[k + j] = u + t;
                    data[k + j + m] = u - t;
                }
                k += 2 * m;
            }
            m <<= 1;
        }
    }
}

/// One-shot forward FFT (allocates a plan). Prefer [`Fft1dPlan`] in loops.
pub fn fft(data: &mut [Complex]) {
    Fft1dPlan::new(data.len()).forward(data);
}

/// One-shot inverse FFT.
pub fn ifft(data: &mut [Complex]) {
    Fft1dPlan::new(data.len()).inverse(data);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (*x - *y).abs() < tol,
                "mismatch: {x:?} vs {y:?} (tol {tol})"
            );
        }
    }

    /// Direct O(n²) DFT used as ground truth.
    fn dft_naive(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc += v * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 64] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin() + 0.3, (i as f64 * 0.7).cos()))
                .collect();
            let want = dft_naive(&x);
            let mut got = x.clone();
            fft(&mut got);
            assert_close(&got, &want, 1e-9 * n as f64);
        }
    }

    #[test]
    fn roundtrip() {
        let n = 256;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
            .collect();
        let mut y = x.clone();
        fft(&mut y);
        ifft(&mut y);
        assert_close(&y, &x, 1e-10);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 32;
        let mut x = vec![Complex::ZERO; n];
        x[0] = Complex::ONE;
        fft(&mut x);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_has_one_bin() {
        let n = 64;
        let k0 = 5;
        let mut x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * (k0 * i) as f64 / n as f64))
            .collect();
        fft(&mut x);
        for (k, z) in x.iter().enumerate() {
            if k == k0 {
                assert!((z.re - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leakage at bin {k}: {z:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        Fft1dPlan::new(12);
    }

    #[test]
    fn parsevals_theorem_holds() {
        let n = 128;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 1.7).sin(), (i as f64 * 0.31).tanh()))
            .collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x;
        fft(&mut y);
        let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }
}
