//! Reconstruction-quality metrics used throughout the evaluation.
//!
//! * [`quality`] — pointwise error statistics (MSE, RMSE, PSNR, max error);
//! * [`ssim3`] / [`ssim2`] — windowed structural similarity on volumes and
//!   images;
//! * [`rssim`] — the paper's proposed **reverse SSIM**, `R-SSIM = 1 − SSIM`
//!   (Eq. 1), which spreads the interesting `0.999…` range over orders of
//!   magnitude.
//!
//! ```
//! use amrviz_metrics::{quality, rssim, ssim3, SsimConfig};
//!
//! let orig: Vec<f64> = (0..512).map(|i| (i as f64 * 0.1).sin()).collect();
//! let noisy: Vec<f64> = orig.iter().map(|v| v + 1e-4).collect();
//! let q = quality(&orig, &noisy);
//! assert!(q.psnr > 80.0);
//! let s = ssim3(&orig, &noisy, [8, 8, 8], &SsimConfig::default());
//! assert!(rssim(s) < 1e-4);
//! ```

pub mod pointwise;
pub mod ssim;

pub use pointwise::{quality, QualityStats};
pub use ssim::{rssim, ssim2, ssim3, SsimConfig};
