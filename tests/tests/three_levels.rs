//! Three-level hierarchies: the pipelines must generalize beyond the
//! paper's two-level datasets (AMReX runs commonly use 3+ levels).

use amrviz_amr::{AmrHierarchy, Box3, BoxArray, Geometry, IntVect};
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, ErrorBound, SzInterp,
};
use amrviz_integration_tests::roundtrip_within_bound;
use amrviz_viz::{extract_amr_isosurface, IsoMethod};

/// 16³ root, 2× nested refinements toward the +x corner, sphere field.
fn three_level() -> AmrHierarchy {
    let geom = Geometry::unit(Box3::from_dims(16, 16, 16));
    let mut h = AmrHierarchy::new(
        geom,
        vec![2, 2],
        vec![
            BoxArray::single(geom.domain),
            // Level 1 covers x ∈ [8,16) of the coarse grid (refined: 16..31).
            BoxArray::single(Box3::new(IntVect::new(16, 0, 0), IntVect::new(31, 31, 31))),
            // Level 2 covers the x ∈ [12,16) strip of level 1 (indices 48..63).
            BoxArray::single(Box3::new(IntVect::new(48, 0, 0), IntVect::new(63, 63, 63))),
        ],
    )
    .unwrap();
    let g = *h.geometry();
    h.add_field_from_fn("f", move |lev, iv| {
        let ratio = [1, 2, 4][lev];
        let p = g.cell_center(iv, ratio);
        0.35 - ((p[0] - 0.55).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2)).sqrt()
    })
    .unwrap();
    h
}

#[test]
fn masks_and_densities_partition() {
    let h = three_level();
    let total: f64 = (0..3).map(|l| h.level_density(l)).sum();
    assert!((total - 1.0).abs() < 1e-12);
    // The middle level is covered by level 2 in its +x strip.
    let covered1 = h.covered_mask(1);
    assert!(covered1.any());
    assert!(covered1.get(IntVect::new(28, 4, 4)));
    assert!(!covered1.get(IntVect::new(18, 4, 4)));
}

#[test]
fn compression_roundtrips_across_three_levels() {
    let (h, cfg) = (three_level(), AmrCodecConfig::default());
    let bound = ErrorBound::Rel(1e-3);
    let (_, levels) = roundtrip_within_bound(&h, "f", &SzInterp, bound, &cfg, "three levels");
    assert_eq!(levels.len(), 3);
}

#[test]
fn skip_redundant_works_on_middle_levels() {
    let h = three_level();
    let comp = SzInterp;
    let cfg = AmrCodecConfig {
        skip_redundant: true,
        restore_redundant: true,
    };
    let c = compress_hierarchy_field(&h, "f", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
    let levels = decompress_hierarchy_field(&h, &c, &comp, &cfg).unwrap();
    // Level 1's covered strip must be restored from level 2 data within eb
    // (the original was built consistently? here fields are analytic, so
    // restriction differs from the analytic midpoint — allow a coarse-cell
    // scale tolerance instead).
    let covered1 = h.covered_mask(1);
    let orig1 = h.field_level("f", 1).unwrap();
    let h1 = h.geometry().cell_size_at(2)[0];
    for (ofab, dfab) in orig1.fabs().iter().zip(levels[1].fabs()) {
        for (cell, o) in ofab.iter() {
            let d = dfab.get(cell);
            if covered1.get(cell) {
                // Restriction of the analytic field ≈ cell value to O(h²),
                // plus the compression bound.
                assert!(
                    (o - d).abs() <= h1 + c.abs_eb,
                    "restored {cell:?}: {o} vs {d}"
                );
            } else {
                assert!((o - d).abs() <= c.abs_eb * (1.0 + 1e-12));
            }
        }
    }
}

#[test]
fn extraction_produces_three_level_surfaces() {
    let h = three_level();
    let levels = &h.field("f").unwrap().levels;
    // Iso value crossing all three regions: the sphere around x=0.55 with
    // radius 0.35 spans the whole domain.
    for method in IsoMethod::ALL {
        let res = extract_amr_isosurface(&h, levels, 0.0, method);
        assert_eq!(res.level_meshes.len(), 3);
        let nonempty = res
            .level_meshes
            .iter()
            .filter(|m| m.num_triangles() > 0)
            .count();
        assert!(
            nonempty >= 2,
            "{method:?}: only {nonempty} levels produced triangles"
        );
        assert!(res.total_triangles() > 100);
    }
}
