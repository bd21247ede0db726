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
//! * [`report`] — the result views: one column list per table or figure
//!   ([`report::TABLE1`], [`report::TABLE2`], [`report::RATE_DISTORTION`],
//!   [`report::CRACKS`], [`report::VIZ_QUALITY`], [`report::SUMMARY_RUNS`])
//!   renders its ASCII table, its `results.json` rows and its `SUMMARY`
//!   entries;
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
    run_viz_quality, CompressionRun, CompressorKind, CrackRun, Table1Row, VizQualityRun,
};
pub use scenario::{Application, BuiltScenario, ScenarioSpec};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::experiment::{
        run_compression, run_crack_analysis, run_rate_distortion, run_table1, run_table2,
        run_viz_quality, CompressionRun, CompressorKind, CrackRun, VizQualityRun,
    };
    pub use crate::scenario::{Application, BuiltScenario, ScenarioSpec};
    pub use amrviz_sim::Scale;
    pub use amrviz_viz::IsoMethod;
}
