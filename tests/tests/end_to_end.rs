//! End-to-end pipeline: generate → store → reload → compress → decompress →
//! visualize → evaluate, for both applications.

#![allow(clippy::needless_range_loop)] // level-indexed loops mirror the math

use amrviz_amr::plotfile::{read_plotfile, write_plotfile};
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, ErrorBound,
};
use amrviz_core::experiment::{run_compression, CompressorKind};
use amrviz_core::prelude::*;
use amrviz_metrics::quality;
use amrviz_viz::extract_amr_isosurface;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("amrviz_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&p).unwrap();
    p
}

#[test]
fn full_pipeline_both_apps() {
    for app in Application::ALL {
        let built = BuiltScenario::from_spec(app.spec(Scale::Tiny, 9));
        let field = app.eval_field();

        // Store and reload the snapshot; data must survive bit-exactly.
        let dir = tmpdir(app.label());
        write_plotfile(&dir, &built.hierarchy).unwrap();
        let reloaded = read_plotfile(&dir).unwrap();
        for lev in 0..built.hierarchy.num_levels() {
            assert_eq!(
                built.hierarchy.field_level(field, lev).unwrap(),
                reloaded.field_level(field, lev).unwrap(),
                "{app:?} level {lev} changed across plotfile round-trip"
            );
        }
        std::fs::remove_dir_all(&dir).ok();

        // Compress the *reloaded* hierarchy, decompress, and check quality.
        let comp = CompressorKind::SzInterp.instance();
        let cfg = AmrCodecConfig::default();
        let compressed =
            compress_hierarchy_field(&reloaded, field, comp.as_ref(), ErrorBound::Rel(1e-3), &cfg)
                .unwrap();
        assert!(compressed.compressed_bytes() < compressed.n_values * 8 / 3);
        let levels =
            decompress_hierarchy_field(&reloaded, &compressed, comp.as_ref(), &cfg).unwrap();

        // Pointwise bound on every level.
        for lev in 0..reloaded.num_levels() {
            let orig = reloaded.field_level(field, lev).unwrap();
            for (ofab, dfab) in orig.fabs().iter().zip(levels[lev].fabs()) {
                for (o, d) in ofab.data().iter().zip(dfab.data()) {
                    assert!((o - d).abs() <= compressed.abs_eb * (1.0 + 1e-12));
                }
            }
        }

        // The decompressed data still yields surfaces with every method.
        for method in IsoMethod::ALL {
            let res = extract_amr_isosurface(&reloaded, &levels, built.iso, method);
            assert!(
                res.total_triangles() > 0,
                "{app:?}/{method:?}: empty surface from decompressed data"
            );
        }
    }
}

#[test]
fn quality_metrics_track_error_bound() {
    let built = BuiltScenario::from_spec(Application::Warpx.spec(Scale::Tiny, 3));
    let mut last_psnr = f64::INFINITY;
    let mut last_cr = 0.0;
    for eb in [1e-4, 1e-3, 1e-2] {
        let run = run_compression(&built, CompressorKind::SzLr, eb).unwrap();
        assert!(run.psnr_db < last_psnr, "PSNR must fall as eb grows");
        assert!(run.compression_ratio > last_cr, "CR must grow with eb");
        last_psnr = run.psnr_db;
        last_cr = run.compression_ratio;
    }
}

#[test]
fn flattened_reconstruction_matches_pointwise_quality() {
    // The uniform-resolution merge used for Table 2 metrics must itself
    // honor the bound (merging only rearranges values).
    let built = BuiltScenario::from_spec(Application::Nyx.spec(Scale::Tiny, 5));
    let comp = CompressorKind::SzLr.instance();
    let cfg = AmrCodecConfig::default();
    let compressed = compress_hierarchy_field(
        &built.hierarchy,
        "baryon_density",
        comp.as_ref(),
        ErrorBound::Rel(1e-3),
        &cfg,
    )
    .unwrap();
    let levels =
        decompress_hierarchy_field(&built.hierarchy, &compressed, comp.as_ref(), &cfg).unwrap();
    let ur = amrviz_amr::resample::flatten_levels_to_finest(
        &built.hierarchy,
        &levels,
        amrviz_amr::resample::Upsample::PiecewiseConstant,
    )
    .unwrap();
    let q = quality(&built.uniform.data, &ur.data);
    assert!(q.max_abs_err <= compressed.abs_eb * (1.0 + 1e-12));
    assert!(q.psnr > 40.0);
}
