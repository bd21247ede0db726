//! Whole-hierarchy isosurface extraction with method selection.

use amrviz_amr::{AmrHierarchy, MultiFab};

use crate::dual::{extract_dual_level, DualMode};
use crate::mesh::TriMesh;
use crate::resampling::extract_resampled_level;

/// The three extraction pipelines the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsoMethod {
    /// Basic: cell→vertex re-sampling + marching. Cracks between levels.
    Resampling,
    /// Advanced: dual cells, no gap handling. Gaps between levels.
    DualCell,
    /// Advanced: dual cells + redundant coarse data (switching cells).
    /// Gap-free, the paper's "fixed" configuration (Fig. 1c).
    DualCellRedundant,
}

impl IsoMethod {
    pub fn label(self) -> &'static str {
        match self {
            IsoMethod::Resampling => "re-sampling",
            IsoMethod::DualCell => "dual-cell",
            IsoMethod::DualCellRedundant => "dual-cell+redundant",
        }
    }

    pub const ALL: [IsoMethod; 3] = [
        IsoMethod::Resampling,
        IsoMethod::DualCell,
        IsoMethod::DualCellRedundant,
    ];
}

/// Extraction output: one surface per level.
///
/// Levels are *not* welded together — their concatenation
/// ([`AmrIsoResult::into_combined`]) shows exactly the cracks/gaps/overlaps
/// each method produces, which is the object of study. The concatenation is
/// built on demand; the result stores each triangle once, not twice.
#[derive(Debug, Clone)]
pub struct AmrIsoResult {
    pub method: IsoMethod,
    pub iso: f64,
    pub level_meshes: Vec<TriMesh>,
}

impl AmrIsoResult {
    /// Total triangle count across all level meshes.
    pub fn total_triangles(&self) -> usize {
        self.level_meshes.iter().map(TriMesh::num_triangles).sum()
    }

    /// Concatenates the level meshes in level order (the crack-preserving
    /// whole-hierarchy surface), consuming the result: the first level's
    /// mesh storage is reused as the accumulator instead of copied.
    pub fn into_combined(self) -> TriMesh {
        let mut meshes = self.level_meshes.into_iter();
        let mut combined = meshes.next().unwrap_or_default();
        for m in meshes {
            combined.append(&m);
        }
        combined
    }
}

/// Extracts the isosurface of a hierarchy field given per-level data (which
/// may be original or decompressed). `levels.len()` must equal
/// `hier.num_levels()` and each multifab must live on the hierarchy's box
/// arrays.
pub fn extract_amr_isosurface(
    hier: &AmrHierarchy,
    levels: &[MultiFab],
    iso: f64,
    method: IsoMethod,
) -> AmrIsoResult {
    assert_eq!(
        levels.len(),
        hier.num_levels(),
        "level data does not match hierarchy"
    );
    let mut sp = amrviz_obs::span!("extract", method = method.label());
    // One level at a time: the pool is spent inside each level (node and
    // mask rows, marching chunks), where the finest level — most of the
    // work — would otherwise be stuck on one worker.
    let level_meshes = levels.iter().enumerate().map(|(lev, mf)| {
        let mut lsp = amrviz_obs::span!("extract.level", level = lev);
        let mesh = match method {
            IsoMethod::Resampling => extract_resampled_level(hier, mf, lev, iso),
            IsoMethod::DualCell => extract_dual_level(hier, mf, lev, iso, DualMode::Plain),
            IsoMethod::DualCellRedundant => {
                extract_dual_level(hier, mf, lev, iso, DualMode::SwitchingCells)
            }
        };
        lsp.add_field("triangles", mesh.num_triangles());
        amrviz_obs::histogram!("extract.level_us", lsp.finish() * 1e6);
        mesh
    });
    let res = AmrIsoResult {
        method,
        iso,
        level_meshes: level_meshes.collect(),
    };
    sp.add_field("triangles", res.total_triangles());
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_amr::{Box3, BoxArray, Geometry, IntVect};

    fn two_level() -> AmrHierarchy {
        let geom = Geometry::unit(Box3::from_dims(12, 12, 12));
        let mut h = AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain),
                BoxArray::single(Box3::new(IntVect::new(12, 0, 0), IntVect::new(23, 23, 23))),
            ],
        )
        .unwrap();
        let g = *h.geometry();
        h.add_field_from_fn("f", move |lev, iv| {
            let p = g.cell_center(iv, if lev == 0 { 1 } else { 2 });
            0.35 - ((p[0] - 0.5).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2)).sqrt()
        })
        .unwrap();
        h
    }

    #[test]
    fn all_methods_produce_surfaces() {
        let h = two_level();
        let levels = &h.field("f").unwrap().levels;
        for method in IsoMethod::ALL {
            let res = extract_amr_isosurface(&h, levels, 0.0, method);
            assert_eq!(res.level_meshes.len(), 2);
            assert!(res.total_triangles() > 0, "{method:?} empty");
            let mut concatenated = TriMesh::new();
            for m in &res.level_meshes {
                concatenated.append(m);
            }
            assert_eq!(concatenated.num_triangles(), res.total_triangles());
            assert_eq!(res.into_combined(), concatenated);
        }
    }

    #[test]
    fn redundant_mode_adds_coarse_triangles() {
        let h = two_level();
        let levels = &h.field("f").unwrap().levels;
        let plain = extract_amr_isosurface(&h, levels, 0.0, IsoMethod::DualCell);
        let switching = extract_amr_isosurface(&h, levels, 0.0, IsoMethod::DualCellRedundant);
        assert!(
            switching.level_meshes[0].num_triangles() > plain.level_meshes[0].num_triangles(),
            "switching cells should extend the coarse surface"
        );
        // The fine level is unaffected by the mode.
        assert_eq!(
            switching.level_meshes[1].num_triangles(),
            plain.level_meshes[1].num_triangles()
        );
    }

    #[test]
    fn extraction_gives_back_every_buffer_it_rents() {
        let h = two_level();
        let levels = &h.field("f").unwrap().levels;
        for method in IsoMethod::ALL {
            extract_amr_isosurface(&h, levels, 0.0, method);
            let pooled = amrviz_par::scratch::pooled_counts();
            extract_amr_isosurface(&h, levels, 0.0, method);
            assert_eq!(amrviz_par::scratch::pooled_counts(), pooled, "{method:?}");
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = IsoMethod::ALL.iter().map(|m| m.label()).collect();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    #[should_panic(expected = "does not match hierarchy")]
    fn level_count_checked() {
        let h = two_level();
        let levels = vec![h.field("f").unwrap().levels[0].clone()];
        extract_amr_isosurface(&h, &levels, 0.0, IsoMethod::Resampling);
    }
}
