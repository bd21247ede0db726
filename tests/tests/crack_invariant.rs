//! Crack/gap invariants at the level interface (the paper's Fig. 1
//! taxonomy), checked through `amrviz_viz::crack` and its obs counter:
//! re-sampling leaves genuine cracks (a nonzero rim with a nonzero gap),
//! plain dual cells leave a ~cell-wide gap, and dual cells + redundant
//! coarse data close the gap to (near) zero.

use std::sync::Mutex;

use amrviz_core::prelude::*;
use amrviz_integration_tests::warpx_like;
use amrviz_viz::{extract_amr_isosurface, interface_gap, CrackMetrics};

/// `viz.crack_rim_edges` is a process-global obs counter: every
/// `interface_gap` call made while the recorder is enabled adds to it, so
/// the tests in this file must not overlap.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn gap_for(built: &BuiltScenario, method: IsoMethod) -> CrackMetrics {
    let field = built.spec.eval_field();
    let levels = &built.hierarchy.field(field).unwrap().levels;
    let geom = built.hierarchy.geometry();
    let res = extract_amr_isosurface(&built.hierarchy, levels, built.iso, method);
    interface_gap(
        &res.level_meshes[1],
        &res.level_meshes[0],
        geom.prob_lo,
        geom.prob_hi,
        [1e-9; 3],
    )
}

/// One fine cell in physical units — the natural yardstick for gap sizes.
fn fine_cell(built: &BuiltScenario) -> f64 {
    let h = &built.hierarchy;
    h.geometry()
        .cell_size_at(h.ratio_to_level0(h.num_levels() - 1))[0]
}

#[test]
fn resampling_has_cracks_dual_has_gaps_redundant_closes_them() {
    let _g = lock();
    let built = warpx_like(42);
    let cell = fine_cell(&built);

    let crack = gap_for(&built, IsoMethod::Resampling);
    let gap = gap_for(&built, IsoMethod::DualCell);
    let fixed = gap_for(&built, IsoMethod::DualCellRedundant);

    // Re-sampling: the fine surface has an open rim at the interface and
    // the mismatch is real but sub-cell ("cracks").
    assert!(crack.n_rim_edges > 0, "re-sampling should leave a rim");
    assert!(crack.mean_gap > 0.0, "cracks have nonzero width");

    // Plain dual cells: a visible gap on the order of the cell size —
    // strictly worse than the cracks.
    assert!(gap.n_rim_edges > 0);
    assert!(
        gap.mean_gap > crack.mean_gap,
        "dual gap {} should exceed re-sampling crack {}",
        gap.mean_gap,
        crack.mean_gap
    );
    assert!(
        gap.mean_gap > 0.25 * cell,
        "dual gap {} should be on the cell scale ({cell})",
        gap.mean_gap
    );

    // Redundant coarse data: the gap collapses to (near) zero — under a
    // fine cell and a small fraction of the plain-dual gap.
    assert!(
        fixed.mean_gap < 0.5 * gap.mean_gap,
        "redundant data should close the gap: {} vs {}",
        fixed.mean_gap,
        gap.mean_gap
    );
    assert!(
        fixed.mean_gap < cell,
        "residual gap {} should be sub-cell ({cell})",
        fixed.mean_gap
    );
}

#[test]
fn rim_edge_counter_matches_reported_metrics() {
    let _g = lock();
    let built = warpx_like(42);
    amrviz_obs::reset();
    amrviz_obs::enable();
    let m = gap_for(&built, IsoMethod::Resampling);
    amrviz_obs::disable();
    let counters = amrviz_obs::counters_snapshot();
    assert_eq!(
        counters.get("viz.crack_rim_edges").copied(),
        Some(m.n_rim_edges as u64),
        "obs counter must agree with CrackMetrics"
    );
}

#[test]
fn watertight_single_level_reports_zero_everywhere() {
    let _g = lock();
    // A mesh measured against itself has no interface defects at all; this
    // pins the metric's zero so the positive assertions above mean
    // something.
    let built = warpx_like(42);
    let field = built.spec.eval_field();
    let levels = &built.hierarchy.field(field).unwrap().levels;
    let geom = built.hierarchy.geometry();
    let res = extract_amr_isosurface(
        &built.hierarchy,
        levels,
        built.iso,
        IsoMethod::DualCellRedundant,
    );
    let m = interface_gap(
        &res.level_meshes[0],
        &res.level_meshes[0],
        geom.prob_lo,
        geom.prob_hi,
        [1e-9; 3],
    );
    // Every rim midpoint lies on the mesh itself, so its distance is zero
    // up to point-in-triangle roundoff.
    assert!(m.max_gap < 1e-9, "self-distance {} not ~0", m.max_gap);
}
