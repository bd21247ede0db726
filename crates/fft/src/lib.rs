//! Minimal complex FFT library.
//!
//! Provides an iterative radix-2 Cooley–Tukey transform in one dimension and
//! a separable three-dimensional transform built on top of it. The library
//! exists to support spectral synthesis of Gaussian random fields in
//! `amrviz-sim`; it is deliberately small and only supports power-of-two
//! lengths, which is all the synthetic generators need.
//!
//! Conventions: the forward transform computes
//! `X[k] = Σ_n x[n]·exp(-2πi·k·n/N)` (no normalization); the inverse applies
//! the conjugate kernel and divides by `N`, so `ifft(fft(x)) == x` up to
//! floating-point rounding.

mod complex;
mod fft1d;
mod fft3d;

pub use complex::Complex;
pub use fft1d::{fft, ifft, Fft1dPlan};
pub use fft3d::{fft3, ifft3, Grid3};

/// Returns `true` if `n` is a power of two (and nonzero).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_checks() {
        assert!(is_pow2(1));
        assert!(is_pow2(2));
        assert!(is_pow2(1024));
        assert!(!is_pow2(0));
        assert!(!is_pow2(3));
        assert!(!is_pow2(1023));
    }
}
