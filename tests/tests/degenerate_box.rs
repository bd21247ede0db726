//! Regression coverage for degenerate refinement: a 1×1×1 fine box must
//! survive generation → compress → decompress → dual-cell extraction.
//!
//! This is the smallest box an AMR regridder can legally emit (AMReX
//! permits blocking_factor 1), and it exercises every per-box code path
//! at its extent-1 corner case: Lorenzo/regression blocks, interpolation
//! sweeps over single-sample dimensions, and dual-cell stitching where a
//! box contributes no interior dual cell at all.

use amrviz_amr::{AmrHierarchy, Box3, BoxArray, Geometry, IntVect};
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, ErrorBound,
};
use amrviz_integration_tests::{compressors, roundtrip_within_bound};
use amrviz_viz::{extract_amr_isosurface, IsoMethod};

/// An 8³ coarse domain with two fine boxes: a normal 4³ block and a lone
/// 1×1×1 cell far away from it.
fn degenerate_hierarchy() -> AmrHierarchy {
    let domain = Box3::from_dims(8, 8, 8);
    let geom = Geometry::unit(domain);
    let coarse = BoxArray::single(domain);
    let mut fine = BoxArray::new(vec![Box3::new(
        IntVect::new(2, 2, 2),
        IntVect::new(5, 5, 5),
    )]);
    // The degenerate box: one fine cell, not aligned to any 2³ octet.
    fine.push(Box3::single(IntVect::new(13, 13, 13)));
    let mut h = AmrHierarchy::new(geom, vec![2], vec![coarse, fine]).unwrap();
    h.add_field_from_fn("density", |lev, iv| {
        let s = if lev == 0 { 2.0 } else { 1.0 };
        let (x, y, z) = (iv.x() as f64 * s, iv.y() as f64 * s, iv.z() as f64 * s);
        (0.37 * x).sin() + (0.53 * y).cos() + 0.11 * z
    })
    .unwrap();
    h
}

#[test]
fn single_cell_box_roundtrips_within_bound() {
    let (h, cfg) = (degenerate_hierarchy(), AmrCodecConfig::default());
    for comp in compressors() {
        let bound = ErrorBound::Rel(1e-3);
        roundtrip_within_bound(&h, "density", comp.as_ref(), bound, &cfg, "a 1x1x1 box");
    }
}

#[test]
fn single_cell_box_survives_dual_cell_extraction() {
    let h = degenerate_hierarchy();
    let levels = &h.field("density").unwrap().levels;
    for method in IsoMethod::ALL {
        let res = extract_amr_isosurface(&h, levels, 1.0, method);
        // The surface crosses the domain; the coarse level must triangulate.
        assert!(
            res.level_meshes[0].num_triangles() > 0,
            "{}: no coarse triangles",
            method.label()
        );
    }
}

#[test]
fn skip_redundant_handles_single_cell_box() {
    let h = degenerate_hierarchy();
    let cfg = AmrCodecConfig {
        skip_redundant: true,
        restore_redundant: true,
    };
    for comp in compressors() {
        let name = comp.name();
        let c = compress_hierarchy_field(&h, "density", comp.as_ref(), ErrorBound::Rel(1e-3), &cfg)
            .unwrap_or_else(|e| panic!("{name}: compress failed: {e}"));
        let out = decompress_hierarchy_field(&h, &c, comp.as_ref(), &cfg)
            .unwrap_or_else(|e| panic!("{name}: decompress failed: {e}"));
        assert_eq!(out.len(), 2, "{name}: level count");
        // The coarse parent of the degenerate box is only 1/8 covered by
        // fine data, so it must keep its own encoded value — skipping it
        // as "redundant" would zero it (the outward-coarsening bug).
        let parent = IntVect::new(6, 6, 6);
        let orig = h
            .field_level("density", 0)
            .unwrap()
            .value_at(parent)
            .unwrap();
        let got = out[0].value_at(parent).unwrap();
        assert!(
            (orig - got).abs() <= c.abs_eb * (1.0 + 1e-12),
            "{name}: partially-covered coarse cell lost: {orig} vs {got} (eb {})",
            c.abs_eb
        );
    }
}
