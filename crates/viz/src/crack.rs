//! Quantifying cracks and gaps at AMR level interfaces (paper Figs. 1, 5,
//! 6, 8 — turned into numbers).
//!
//! Each level's surface is extracted independently, so cross-level defects
//! show up as *open boundary* on the finer mesh near the interface. We
//! measure (a) how much open rim the fine mesh has away from the physical
//! domain boundary and (b) how far that rim sits from the coarse surface —
//! the visible crack/gap width.

use amrviz_json::{Json, ToJson};

use crate::mesh::TriMesh;
use crate::surface_compare::TriLocator;

/// Crack/gap measurements between one fine-level mesh and the next-coarser
/// mesh.
#[derive(Debug, Clone, Copy)]
pub struct CrackMetrics {
    /// Number of interface rim edges on the fine mesh (excluding rim on the
    /// physical domain boundary).
    pub n_rim_edges: usize,
    /// Total rim length.
    pub rim_length: f64,
    /// Mean distance from rim edge midpoints to the coarse surface.
    pub mean_gap: f64,
    /// 95th-percentile gap, nearest rank.
    pub p95_gap: f64,
    /// Maximum gap.
    pub max_gap: f64,
}

impl ToJson for CrackMetrics {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("n_rim_edges", self.n_rim_edges)
            .set("rim_length", self.rim_length)
            .set("mean_gap", self.mean_gap)
            .set("p95_gap", self.p95_gap)
            .set("max_gap", self.max_gap);
        o
    }
}

/// Measures the interface gap between `fine` and `coarse`.
///
/// `domain_lo`/`domain_hi` bound the physical domain; a rim edge lying in
/// one of those outer faces (both ends within `boundary_tol` of the same
/// face) is excluded — it is domain clipping, not a level-interface defect.
pub fn interface_gap(
    fine: &TriMesh,
    coarse: &TriMesh,
    domain_lo: [f64; 3],
    domain_hi: [f64; 3],
    boundary_tol: f64,
) -> Option<CrackMetrics> {
    let locator = TriLocator::build_owned(coarse.clone())?;
    let in_a_domain_face = |p: [f64; 3], q: [f64; 3]| -> bool {
        (0..3).any(|a| {
            [domain_lo[a], domain_hi[a]].iter().any(|face| {
                (p[a] - face).abs() <= boundary_tol && (q[a] - face).abs() <= boundary_tol
            })
        })
    };
    let mut gaps: Vec<f64> = Vec::new();
    let mut rim_length = 0.0;
    let mut n_rim = 0usize;
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
        let len = ((p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2)).sqrt();
        rim_length += len;
        n_rim += 1;
        gaps.push(locator.distance(mid));
    }
    if gaps.is_empty() {
        return Some(CrackMetrics {
            n_rim_edges: 0,
            rim_length: 0.0,
            mean_gap: 0.0,
            p95_gap: 0.0,
            max_gap: 0.0,
        });
    }
    amrviz_obs::counter!("viz.crack_rim_edges", n_rim);
    gaps.sort_by(|x, y| x.partial_cmp(y).expect("finite distances"));
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let rank = (gaps.len() as f64 * 0.95).ceil() as usize;
    let p95 = gaps[rank.clamp(1, gaps.len()) - 1];
    let max = *gaps.last().expect("nonempty");
    Some(CrackMetrics {
        n_rim_edges: n_rim,
        rim_length,
        mean_gap: mean,
        p95_gap: p95,
        max_gap: max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::DualMode;
    use crate::pipeline::{extract_field_isosurface, IsoMethod};
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
        let res = extract_field_isosurface(&h, "f", 0.0, method).unwrap();
        interface_gap(
            &res.level_meshes[1],
            &res.level_meshes[0],
            [0.0; 3],
            [1.0; 3],
            1e-9,
        )
        .expect("coarse mesh nonempty")
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
        let m = interface_gap(&fine, &coarse, [0.0; 3], [1.0; 3], 1e-9).unwrap();
        assert_eq!(m.n_rim_edges, 1, "the corner edge, once");
        assert!((m.rim_length - 0.08f64.sqrt()).abs() < 1e-12);
        assert!(
            (m.max_gap - 0.1).abs() < 1e-12,
            "midpoint 0.1 above z = 0.4"
        );
    }

    #[test]
    fn p95_is_the_nearest_rank() {
        // Twenty fine triangles, each with one open edge off the domain
        // faces (as in the corner test above), at heights 0.20 down to 0.01
        // above the coarse plane: rank 19 of 20 is 0.19, the max 0.20.
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
        let m = interface_gap(&fine, &coarse, [0.0; 3], [1.0; 3], 1e-9).unwrap();
        assert_eq!(m.n_rim_edges, 20);
        assert!((m.p95_gap - 0.19).abs() < 1e-12, "p95 {}", m.p95_gap);
        assert!((m.max_gap - 0.20).abs() < 1e-12, "max {}", m.max_gap);
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
        let m = interface_gap(&mesh, &mesh, [0.0; 3], [1.0; 3], 1e-9).unwrap();
        assert_eq!(m.n_rim_edges, 0);
        assert_eq!(m.max_gap, 0.0);
    }
}
