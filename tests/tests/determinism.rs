//! Determinism and stream-stability guarantees: the same seed must yield
//! bit-identical data, compressed streams, and extracted meshes — a
//! prerequisite for reproducible experiment tables.

#![allow(clippy::needless_range_loop)] // level-indexed loops mirror the math

use amrviz_compress::{compress_hierarchy_field, AmrCodecConfig, ErrorBound};
use amrviz_core::experiment::CompressorKind;
use amrviz_core::prelude::*;
use amrviz_viz::extract_amr_isosurface;

#[test]
fn same_seed_same_compressed_bytes() {
    for app in Application::ALL {
        let a = BuiltScenario::from_spec(app.spec(Scale::Tiny, 123));
        let b = BuiltScenario::from_spec(app.spec(Scale::Tiny, 123));
        let field = app.eval_field();
        for kind in CompressorKind::PAPER {
            let comp = kind.instance();
            let cfg = AmrCodecConfig::default();
            let ca = compress_hierarchy_field(
                &a.hierarchy,
                field,
                comp.as_ref(),
                ErrorBound::Rel(1e-3),
                &cfg,
            )
            .unwrap();
            let cb = compress_hierarchy_field(
                &b.hierarchy,
                field,
                comp.as_ref(),
                ErrorBound::Rel(1e-3),
                &cfg,
            )
            .unwrap();
            assert_eq!(
                ca.to_bytes(),
                cb.to_bytes(),
                "{app:?}/{}: non-deterministic stream",
                kind.label()
            );
        }
    }
}

#[test]
fn different_seeds_differ() {
    let a = BuiltScenario::from_spec(Application::Nyx.spec(Scale::Tiny, 1));
    let b = BuiltScenario::from_spec(Application::Nyx.spec(Scale::Tiny, 2));
    assert_ne!(a.uniform.data, b.uniform.data);
}

#[test]
fn extraction_is_deterministic() {
    let built = BuiltScenario::from_spec(Application::Warpx.spec(Scale::Tiny, 77));
    let field = built.spec.eval_field();
    let levels = &built.hierarchy.field(field).unwrap().levels;
    let m1 = extract_amr_isosurface(&built.hierarchy, levels, built.iso, IsoMethod::Resampling);
    let m2 = extract_amr_isosurface(&built.hierarchy, levels, built.iso, IsoMethod::Resampling);
    assert_eq!(m1.into_combined(), m2.into_combined());
}

#[test]
fn serialized_hierarchy_stream_roundtrip() {
    let built = BuiltScenario::from_spec(Application::Warpx.spec(Scale::Tiny, 31));
    let comp = CompressorKind::SzLr.instance();
    let cfg = AmrCodecConfig::default();
    let c = compress_hierarchy_field(
        &built.hierarchy,
        "Ez",
        comp.as_ref(),
        ErrorBound::Rel(1e-3),
        &cfg,
    )
    .unwrap();
    let bytes = c.to_bytes();
    let back = amrviz_compress::amr_codec::CompressedHierarchyField::from_bytes(&bytes).unwrap();
    assert_eq!(back.to_bytes(), bytes);
}
