//! Quantifying cracks and gaps at AMR level interfaces (paper Figs. 1, 5,
//! 6, 8 — turned into numbers).
//!
//! Each level's surface is extracted independently, so cross-level defects
//! show up as *open boundary* on the finer mesh near the interface. We
//! measure (a) how much open rim the fine mesh has away from the physical
//! domain boundary and (b) how far that rim sits from the coarse surface —
//! the visible crack/gap width.

use crate::mesh::TriMesh;
use crate::surface_compare::TriLocator;

/// Crack/gap measurements between one fine-level mesh and the next-coarser
/// mesh. All zero (the [`Default`]) when there is no interface rim or no
/// coarse surface to measure it against.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrackMetrics {
    /// Number of interface rim edges on the fine mesh (excluding rim on the
    /// physical domain boundary).
    pub n_rim_edges: usize,
    /// Total rim length.
    pub rim_length: f64,
    /// Mean distance from rim edge midpoints to the coarse surface.
    pub mean_gap: f64,
    /// Maximum gap.
    pub max_gap: f64,
}

/// Measures the interface gap between `fine` and `coarse`.
///
/// `domain_lo`/`domain_hi` bound the physical domain; a rim edge along one
/// of those outer faces (both ends within `boundary_tol[a]` of the same
/// face normal to axis `a`) is excluded — it is domain clipping, not a
/// level-interface defect.
pub fn interface_gap(
    fine: &TriMesh,
    coarse: &TriMesh,
    domain_lo: [f64; 3],
    domain_hi: [f64; 3],
    boundary_tol: [f64; 3],
) -> CrackMetrics {
    let mut m = CrackMetrics::default();
    let Some(locator) = TriLocator::build_owned(coarse.clone()) else {
        return m;
    };
    let in_a_domain_face = |p: [f64; 3], q: [f64; 3]| -> bool {
        (0..3).any(|a| {
            [domain_lo[a], domain_hi[a]].iter().any(|face| {
                (p[a] - face).abs() <= boundary_tol[a] && (q[a] - face).abs() <= boundary_tol[a]
            })
        })
    };
    let mut gaps = Vec::new();
    for (a, b) in fine.boundary_edges() {
        let p = fine.vertices[a as usize];
        let q = fine.vertices[b as usize];
        if in_a_domain_face(p, q) {
            continue;
        }
        let mid = [
            0.5 * (p[0] + q[0]),
            0.5 * (p[1] + q[1]),
            0.5 * (p[2] + q[2]),
        ];
        m.rim_length +=
            ((p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2)).sqrt();
        gaps.push(locator.distance(mid));
    }
    m.n_rim_edges = gaps.len();
    if !gaps.is_empty() {
        amrviz_obs::counter!("viz.crack_rim_edges", m.n_rim_edges);
        // The mean adds the gaps in ascending order, as the recorded means
        // always have: an in-order sum moves them in the last bits.
        gaps.sort_unstable_by(f64::total_cmp);
        m.mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
        m.max_gap = gaps[gaps.len() - 1];
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::DualMode;
    use crate::pipeline::{extract_amr_isosurface, IsoMethod};
    use amrviz_amr::{AmrHierarchy, Box3, BoxArray, Geometry, IntVect};

    fn two_level_sphere() -> AmrHierarchy {
        let geom = Geometry::unit(Box3::from_dims(16, 16, 16));
        let mut h = AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain),
                BoxArray::single(Box3::new(IntVect::new(16, 0, 0), IntVect::new(31, 31, 31))),
            ],
        )
        .unwrap();
        let g = *h.geometry();
        h.add_field_from_fn("f", move |lev, iv| {
            let p = g.cell_center(iv, if lev == 0 { 1 } else { 2 });
            0.3 - ((p[0] - 0.5).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2)).sqrt()
        })
        .unwrap();
        h
    }

    fn gap_for(method: IsoMethod) -> CrackMetrics {
        let h = two_level_sphere();
        let res = extract_amr_isosurface(&h, &h.field("f").unwrap().levels, 0.0, method);
        interface_gap(
            &res.level_meshes[1],
            &res.level_meshes[0],
            [0.0; 3],
            [1.0; 3],
            [1e-9; 3],
        )
    }

    #[test]
    fn resampling_has_cracks() {
        let m = gap_for(IsoMethod::Resampling);
        assert!(m.n_rim_edges > 0, "expected an interface rim");
        // Cracks are sub-coarse-cell mismatches: nonzero but smaller than a
        // coarse cell (1/16).
        assert!(
            m.mean_gap > 1e-6,
            "mean gap {} suspiciously small",
            m.mean_gap
        );
        assert!(m.max_gap < 2.0 / 16.0, "max gap {} too large", m.max_gap);
    }

    #[test]
    fn dual_gap_is_about_a_cell_and_larger_than_cracks() {
        let crack = gap_for(IsoMethod::Resampling);
        let gap = gap_for(IsoMethod::DualCell);
        assert!(gap.n_rim_edges > 0);
        // Dual gap ≈ (h_c + h_f)/2 = (1/16 + 1/32)/2 ≈ 0.047 — measured from
        // the rim midpoint to the coarse surface it should be at least the
        // fine half-cell.
        assert!(gap.mean_gap > 1.0 / 64.0, "gap {} too small", gap.mean_gap);
        assert!(
            gap.mean_gap > crack.mean_gap,
            "dual gap ({}) should exceed re-sampling crack ({})",
            gap.mean_gap,
            crack.mean_gap
        );
    }

    #[test]
    fn switching_cells_shrink_the_gap() {
        let plain = gap_for(IsoMethod::DualCell);
        let fixed = gap_for(IsoMethod::DualCellRedundant);
        assert!(
            fixed.mean_gap < 0.5 * plain.mean_gap,
            "redundant data should close the gap: {} vs {}",
            fixed.mean_gap,
            plain.mean_gap
        );
    }

    #[test]
    fn an_open_edge_across_a_domain_corner_is_counted() {
        // Two fine triangles, four open edges: Q–R lies in the `y = lo`
        // face, P–S and R–S in the `x = lo` face — domain clipping. P–Q runs
        // from the `x = lo` face to the `y = lo` face: on the domain boundary
        // at both ends, in no face of it.
        let (p, q) = ([0.0, 0.2, 0.5], [0.2, 0.0, 0.5]);
        let (r, s) = ([0.0, 0.0, 0.7], [0.0, 0.2, 0.9]);
        let fine = TriMesh {
            vertices: vec![p, q, r, s],
            triangles: vec![[0, 1, 2], [0, 2, 3]],
        };
        let coarse = TriMesh {
            vertices: vec![[0.0, 0.0, 0.4], [1.0, 0.0, 0.4], [0.0, 1.0, 0.4]],
            triangles: vec![[0, 1, 2]],
        };
        let m = interface_gap(&fine, &coarse, [0.0; 3], [1.0; 3], [1e-9; 3]);
        assert_eq!(m.n_rim_edges, 1, "the corner edge, once");
        assert!((m.rim_length - 0.08f64.sqrt()).abs() < 1e-12);
        assert!(
            (m.max_gap - 0.1).abs() < 1e-12,
            "midpoint 0.1 above z = 0.4"
        );
    }

    #[test]
    fn mean_and_max_gap_over_twenty_rim_edges() {
        // Twenty fine triangles, each with one open edge off the domain
        // faces (as in the corner test above), at heights 0.20 down to 0.01
        // above the coarse plane: the mean is 0.105, the max 0.20.
        let mut fine = TriMesh::new();
        for n in (1..=20u32).rev() {
            let z = f64::from(n) / 100.0;
            let at = fine.num_vertices() as u32;
            fine.vertices
                .extend([[0.0, 0.0, z], [0.0, 0.01, z], [0.01, 0.0, z]]);
            fine.triangles.push([at, at + 1, at + 2]);
        }
        let coarse = TriMesh {
            vertices: vec![[-1.0, -1.0, 0.0], [3.0, -1.0, 0.0], [-1.0, 3.0, 0.0]],
            triangles: vec![[0, 1, 2]],
        };
        let m = interface_gap(&fine, &coarse, [0.0; 3], [1.0; 3], [1e-9; 3]);
        assert_eq!(m.n_rim_edges, 20);
        assert!((m.mean_gap - 0.105).abs() < 1e-12, "mean {}", m.mean_gap);
        assert!((m.max_gap - 0.20).abs() < 1e-12, "max {}", m.max_gap);
    }

    #[test]
    fn every_reported_field_is_pinned_to_the_bit() {
        let got = IsoMethod::ALL.map(|method| {
            let m = gap_for(method);
            (
                m.n_rim_edges,
                [m.rim_length, m.mean_gap, m.max_gap].map(f64::to_bits),
            )
        });
        let want = [
            (
                76,
                [
                    4611139104434430292,
                    4570327120617934454,
                    4571650718869598056,
                ],
            ),
            (
                80,
                [
                    4611150729033560999,
                    4586923938995367598,
                    4586930980063777220,
                ],
            ),
            (
                80,
                [
                    4611150729033560999,
                    4567007007527438671,
                    4569295247879187591,
                ],
            ),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn watertight_mesh_reports_zero() {
        // Single-level sphere has no interface at all.
        let geom = Geometry::unit(Box3::from_dims(20, 20, 20));
        let mut h = AmrHierarchy::single_level(geom);
        let g = *h.geometry();
        h.add_field_from_fn("f", move |_, iv| {
            let p = g.cell_center(iv, 1);
            0.3 - ((p[0] - 0.5).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2)).sqrt()
        })
        .unwrap();
        let mesh = crate::dual::extract_dual_level(
            &h,
            h.field_level("f", 0).unwrap(),
            0,
            0.0,
            DualMode::Plain,
        );
        let m = interface_gap(&mesh, &mesh, [0.0; 3], [1.0; 3], [1e-9; 3]);
        assert_eq!(m.n_rim_edges, 0);
        assert_eq!(m.max_gap, 0.0);
    }
}
