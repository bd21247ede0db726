//! `amrviz-core` — the paper's analysis pipeline.
//!
//! Everything the study does is expressed as one flow:
//!
//! ```text
//! generate AMR snapshot (amrviz-sim)
//!   → compress level-by-level (amrviz-compress)
//!   → decompress
//!   → merge to uniform resolution / extract isosurfaces (amrviz-viz)
//!   → quality metrics: CR, PSNR, SSIM, R-SSIM, surface deviation
//! ```
//!
//! * [`scenario`] — the two applications (Nyx-like, WarpX-like) with their
//!   evaluation fields and iso-values;
//! * [`experiment`] — runners for each table/figure of the paper;
//! * [`report`] — plain-text table formatting for the `repro` harness;
//! * [`args`] — the flag parser the `amrviz` and `repro` binaries share.
//!
//! # Quickstart
//!
//! ```
//! use amrviz_core::prelude::*;
//!
//! // A tiny Nyx-like snapshot, SZ-Interp at rel. eb 1e-3:
//! let built = BuiltScenario::from_spec(Application::Nyx.spec(Scale::Tiny, 42));
//! let run = run_compression(&built, CompressorKind::SzInterp, 1e-3).unwrap();
//! assert!(run.compression_ratio > 1.0);
//! assert!(run.psnr_db > 40.0);
//! ```

pub mod args;
pub mod experiment;
pub mod report;
pub mod scenario;

pub use experiment::{
    run_compression, run_crack_analysis, run_rate_distortion, run_table1, run_table2,
    run_viz_quality, CompressionRun, CompressorKind, CrackRun, RateDistortionPoint, Table1Row,
    VizQualityRun,
};
pub use scenario::{Application, BuiltScenario, ScenarioSpec};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::experiment::{
        run_compression, run_crack_analysis, run_rate_distortion, run_table1, run_table2,
        run_viz_quality, CompressionRun, CompressorKind, CrackRun, RateDistortionPoint,
        VizQualityRun,
    };
    pub use crate::scenario::{Application, BuiltScenario, ScenarioSpec};
    pub use amrviz_sim::Scale;
    pub use amrviz_viz::IsoMethod;
}
