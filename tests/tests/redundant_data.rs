//! The redundant-coarse-data story across crates (paper §2.2 + Fig. 1c):
//! omitting it boosts compression but the dual-cell method needs it, and
//! restriction-based restoration keeps both properties.

#![allow(clippy::needless_range_loop)] // level-indexed loops mirror the math

use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, ErrorBound,
};
use amrviz_core::experiment::CompressorKind;
use amrviz_core::prelude::*;
use amrviz_viz::{extract_amr_isosurface, interface_gap};

#[test]
fn skip_and_restore_keeps_dual_cell_functional() {
    let built = BuiltScenario::from_spec(Application::Warpx.spec(Scale::Tiny, 11));
    let field = built.spec.eval_field();
    let comp = CompressorKind::SzInterp.instance();

    // Compress without redundant data, restore it by restriction.
    let cfg = AmrCodecConfig {
        skip_redundant: true,
        restore_redundant: true,
    };
    let compressed = compress_hierarchy_field(
        &built.hierarchy,
        field,
        comp.as_ref(),
        ErrorBound::Rel(1e-3),
        &cfg,
    )
    .unwrap();
    let levels =
        decompress_hierarchy_field(&built.hierarchy, &compressed, comp.as_ref(), &cfg).unwrap();

    // Dual-cell + redundant data still closes the gap on restored data.
    let geom = built.hierarchy.geometry();
    let gap_of = |method: IsoMethod| {
        let res = extract_amr_isosurface(&built.hierarchy, &levels, built.iso, method);
        interface_gap(
            &res.level_meshes[1],
            &res.level_meshes[0],
            geom.prob_lo,
            geom.prob_hi,
            [1e-9; 3],
        )
    };
    let plain = gap_of(IsoMethod::DualCell);
    let fixed = gap_of(IsoMethod::DualCellRedundant);
    assert!(
        fixed.mean_gap < 0.5 * plain.mean_gap,
        "restored redundant data failed to close the gap: {} vs {}",
        fixed.mean_gap,
        plain.mean_gap
    );
}

#[test]
fn skip_never_hurts_unique_cells() {
    // Omission only affects covered coarse cells; unique cells must honor
    // the bound exactly as without skipping.
    for app in Application::ALL {
        let built = BuiltScenario::from_spec(app.spec(Scale::Tiny, 13));
        let field = app.eval_field();
        let comp = CompressorKind::SzLr.instance();
        let cfg = AmrCodecConfig {
            skip_redundant: true,
            restore_redundant: false,
        };
        let compressed = compress_hierarchy_field(
            &built.hierarchy,
            field,
            comp.as_ref(),
            ErrorBound::Rel(1e-3),
            &cfg,
        )
        .unwrap();
        let levels =
            decompress_hierarchy_field(&built.hierarchy, &compressed, comp.as_ref(), &cfg).unwrap();
        let covered = built.hierarchy.covered_mask(0);
        let orig = built.hierarchy.field_level(field, 0).unwrap();
        for (ofab, dfab) in orig.fabs().iter().zip(levels[0].fabs()) {
            for (cell, o) in ofab.iter() {
                if covered.get(cell) {
                    continue; // omitted on purpose
                }
                let d = dfab.get(cell);
                assert!(
                    (o - d).abs() <= compressed.abs_eb * (1.0 + 1e-12),
                    "{app:?}: unique cell {cell:?} violated the bound"
                );
            }
        }
    }
}

#[test]
fn restored_cells_match_restriction_of_fine_data() {
    let built = BuiltScenario::from_spec(Application::Nyx.spec(Scale::Tiny, 19));
    let field = built.spec.eval_field();
    let comp = CompressorKind::SzInterp.instance();
    let cfg = AmrCodecConfig {
        skip_redundant: true,
        restore_redundant: true,
    };
    let compressed = compress_hierarchy_field(
        &built.hierarchy,
        field,
        comp.as_ref(),
        ErrorBound::Rel(1e-3),
        &cfg,
    )
    .unwrap();
    let levels =
        decompress_hierarchy_field(&built.hierarchy, &compressed, comp.as_ref(), &cfg).unwrap();

    // Because original coarse = restriction(original fine) by construction,
    // restored coarse = restriction(decompressed fine) must sit within the
    // error bound of the original coarse values.
    let covered = built.hierarchy.covered_mask(0);
    let orig = built.hierarchy.field_level(field, 0).unwrap();
    let mut checked = 0usize;
    for (ofab, dfab) in orig.fabs().iter().zip(levels[0].fabs()) {
        for (cell, o) in ofab.iter() {
            if !covered.get(cell) {
                continue;
            }
            let d = dfab.get(cell);
            assert!(
                (o - d).abs() <= compressed.abs_eb * (1.0 + 1e-9),
                "restored cell {cell:?}: |{o} - {d}| > {}",
                compressed.abs_eb
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "too few covered cells exercised: {checked}");
}
