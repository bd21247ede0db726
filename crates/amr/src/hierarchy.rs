//! Multi-level AMR hierarchies with named fields.

use std::collections::BTreeMap;

use amrviz_codec::DecodeBudget;

use crate::box_array::BoxArray;
use crate::boxes::Box3;
use crate::error::AmrError;
use crate::geometry::Geometry;
use crate::mask::Raster;
use crate::multifab::MultiFab;

/// One named scalar field, with one [`MultiFab`] per level.
#[derive(Debug, Clone, PartialEq)]
pub struct AmrField {
    pub name: String,
    pub levels: Vec<MultiFab>,
}

/// A patch-based AMR hierarchy: per-level box arrays plus any number of
/// named fields defined on them. Coarse levels keep their data underneath
/// finer levels (the "redundant" coarse data of patch-based AMR).
#[derive(Debug, Clone)]
pub struct AmrHierarchy {
    geom: Geometry,
    /// Refinement ratio between level `l` and `l+1` (length: levels − 1).
    ref_ratios: Vec<i64>,
    box_arrays: Vec<BoxArray>,
    fields: BTreeMap<String, AmrField>,
    /// Simulation time of this snapshot (informational).
    pub time: f64,
    /// Simulation step of this snapshot (informational).
    pub step: u64,
}

/// Checks the structure of a hierarchy read from outside input (a plotfile
/// header, a serving artifact) before anything is built from it: every
/// physical extent finite and positive, every refinement ratio in 2..=16,
/// and every level's whole index domain — the region the visualization
/// masks allocate over — at most `budget.max_values` cells, counted with
/// checked arithmetic. O(levels); allocates nothing.
pub fn check_structure(
    geom: &Geometry,
    ref_ratios: &[i64],
    budget: &DecodeBudget,
) -> Result<(), AmrError> {
    let invalid = |msg: String| Err(AmrError::InvalidStructure(msg));
    for a in 0..3 {
        let extent = geom.prob_hi[a] - geom.prob_lo[a];
        if !(extent.is_finite() && extent > 0.0) {
            return invalid(format!("physical extent {extent} on axis {a}"));
        }
    }
    let size = geom.domain.size();
    let mut cells = size.iter().try_fold(1u64, |n, &d| n.checked_mul(d as u64));
    for (lev, &r) in std::iter::once(&1).chain(ref_ratios).enumerate() {
        if lev > 0 && !(2..=16).contains(&r) {
            return invalid(format!("refinement ratio {r} outside 2..=16"));
        }
        cells = cells.and_then(|n| n.checked_mul((r as u64).pow(3)));
        if cells.is_none_or(|n| n > budget.max_values as u64) {
            return invalid(format!(
                "level {lev} index domain exceeds {} cells",
                budget.max_values
            ));
        }
    }
    Ok(())
}

impl AmrHierarchy {
    /// Creates a hierarchy from per-level box arrays.
    ///
    /// Level 0 must exactly cover the geometry's domain; every level's boxes
    /// must be pairwise disjoint; every fine box must sit inside the refined
    /// index domain.
    pub fn new(
        geom: Geometry,
        ref_ratios: Vec<i64>,
        box_arrays: Vec<BoxArray>,
    ) -> Result<Self, AmrError> {
        if box_arrays.is_empty() {
            return Err(AmrError::InvalidStructure("no levels".into()));
        }
        if ref_ratios.len() + 1 != box_arrays.len() {
            return Err(AmrError::InvalidStructure(format!(
                "{} ref ratios for {} levels",
                ref_ratios.len(),
                box_arrays.len()
            )));
        }
        if ref_ratios.iter().any(|&r| r < 2) {
            return Err(AmrError::InvalidStructure("ref ratio must be >= 2".into()));
        }
        if !box_arrays[0].covers_exactly(&geom.domain) {
            return Err(AmrError::InvalidStructure(
                "level 0 must cover the domain exactly".into(),
            ));
        }
        let h = AmrHierarchy {
            geom,
            ref_ratios,
            box_arrays,
            fields: BTreeMap::new(),
            time: 0.0,
            step: 0,
        };
        for lev in 0..h.num_levels() {
            if let Err((a, b)) = h.box_arrays[lev].validate_disjoint() {
                return Err(AmrError::InvalidStructure(format!(
                    "level {lev} boxes {a} and {b} overlap"
                )));
            }
            let dom = h.level_domain(lev);
            for bx in h.box_arrays[lev].iter() {
                if !dom.contains_box(bx) {
                    return Err(AmrError::InvalidStructure(format!(
                        "level {lev} box {bx} escapes domain {dom}"
                    )));
                }
            }
        }
        Ok(h)
    }

    /// Single-level hierarchy over the whole domain.
    pub fn single_level(geom: Geometry) -> Self {
        AmrHierarchy::new(geom, Vec::new(), vec![BoxArray::single(geom.domain)])
            .expect("single-level hierarchy is always valid")
    }

    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    pub fn num_levels(&self) -> usize {
        self.box_arrays.len()
    }

    pub fn ref_ratios(&self) -> &[i64] {
        &self.ref_ratios
    }

    /// Refinement ratio between level `lev` and `lev + 1`.
    pub fn ratio_at(&self, lev: usize) -> i64 {
        self.ref_ratios[lev]
    }

    /// Accumulated refinement of level `lev` relative to level 0.
    pub fn ratio_to_level0(&self, lev: usize) -> i64 {
        self.ref_ratios[..lev].iter().product()
    }

    /// The full index domain at level `lev`'s resolution.
    pub fn level_domain(&self, lev: usize) -> Box3 {
        self.geom.domain.refine(self.ratio_to_level0(lev))
    }

    pub fn box_array(&self, lev: usize) -> &BoxArray {
        &self.box_arrays[lev]
    }

    pub fn box_arrays(&self) -> &[BoxArray] {
        &self.box_arrays
    }

    pub fn field_names(&self) -> Vec<&str> {
        self.fields.keys().map(String::as_str).collect()
    }

    pub fn fields(&self) -> impl Iterator<Item = &AmrField> {
        self.fields.values()
    }

    /// Adds (or replaces) a field. The multifabs must match the hierarchy's
    /// box arrays level by level.
    pub fn add_field(&mut self, name: &str, levels: Vec<MultiFab>) -> Result<(), AmrError> {
        if levels.len() != self.num_levels() {
            return Err(AmrError::InvalidStructure(format!(
                "field {name}: {} levels, hierarchy has {}",
                levels.len(),
                self.num_levels()
            )));
        }
        for (lev, mf) in levels.iter().enumerate() {
            if mf.box_array() != self.box_arrays[lev] {
                return Err(AmrError::InvalidStructure(format!(
                    "field {name}: level {lev} box array mismatch"
                )));
            }
        }
        self.fields.insert(
            name.to_string(),
            AmrField {
                name: name.to_string(),
                levels,
            },
        );
        Ok(())
    }

    /// Builds a field by evaluating `f(level, cell)` on every level.
    pub fn add_field_from_fn(
        &mut self,
        name: &str,
        f: impl Fn(usize, crate::ivec::IntVect) -> f64 + Sync,
    ) -> Result<(), AmrError> {
        let levels: Vec<MultiFab> = (0..self.num_levels())
            .map(|lev| MultiFab::from_fn(&self.box_arrays[lev], |iv| f(lev, iv)))
            .collect();
        self.add_field(name, levels)
    }

    pub fn field(&self, name: &str) -> Result<&AmrField, AmrError> {
        self.fields
            .get(name)
            .ok_or_else(|| AmrError::UnknownField(name.to_string()))
    }

    pub fn field_mut(&mut self, name: &str) -> Result<&mut AmrField, AmrError> {
        self.fields
            .get_mut(name)
            .ok_or_else(|| AmrError::UnknownField(name.to_string()))
    }

    pub fn field_level(&self, name: &str, lev: usize) -> Result<&MultiFab, AmrError> {
        let f = self.field(name)?;
        f.levels.get(lev).ok_or(AmrError::BadLevel {
            requested: lev,
            available: f.levels.len(),
        })
    }

    /// Mask over `level_domain(lev)`: cells covered by level `lev`'s own
    /// boxes. (Level 0 is always fully valid.)
    pub fn valid_mask(&self, lev: usize) -> Raster {
        Raster::from_box_array(self.level_domain(lev), &self.box_arrays[lev])
    }

    /// Mask over `level_domain(lev)`: cells covered by the *next finer*
    /// level (the redundant coarse cells). All-false on the finest level.
    pub fn covered_mask(&self, lev: usize) -> Raster {
        let dom = self.level_domain(lev);
        if lev + 1 >= self.num_levels() {
            return Raster::falses(dom);
        }
        let fine_coarsened = self.box_arrays[lev + 1].coarsen(self.ref_ratios[lev]);
        Raster::from_box_array(dom, &fine_coarsened)
    }

    /// Cells of level `lev` that are valid *and not* covered by finer data —
    /// the cells that actually contribute to post-analysis (paper Fig. 3).
    pub fn unique_mask(&self, lev: usize) -> Raster {
        let mut m = self.valid_mask(lev);
        let mut cov = self.covered_mask(lev);
        cov.invert();
        m.and(&cov);
        m
    }

    /// Fraction of the *physical domain volume* whose finest representation
    /// is level `lev` (the paper's per-level "density", Table 1).
    pub fn level_density(&self, lev: usize) -> f64 {
        let unique = self.unique_mask(lev).count() as f64;
        unique / self.level_domain(lev).num_cells() as f64
    }

    /// Total number of stored cells across all levels (per field).
    pub fn total_cells(&self) -> usize {
        self.box_arrays.iter().map(BoxArray::num_cells).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivec::IntVect;

    fn b(lo: [i64; 3], hi: [i64; 3]) -> Box3 {
        Box3::new(IntVect(lo), IntVect(hi))
    }

    /// 8³ coarse domain with a 8³-cell fine patch over its upper octant.
    fn two_level() -> AmrHierarchy {
        let geom = Geometry::unit(b([0, 0, 0], [7, 7, 7]));
        AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain),
                BoxArray::single(b([8, 8, 8], [15, 15, 15])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_domains() {
        let h = two_level();
        assert_eq!(h.num_levels(), 2);
        assert_eq!(h.ratio_to_level0(0), 1);
        assert_eq!(h.ratio_to_level0(1), 2);
        assert_eq!(h.level_domain(1), b([0, 0, 0], [15, 15, 15]));
        assert_eq!(h.total_cells(), 512 + 512);
    }

    #[test]
    fn masks_and_density() {
        let h = two_level();
        // Fine patch covers the coarse upper octant: 4³ = 64 coarse cells.
        let cov = h.covered_mask(0);
        assert_eq!(cov.count(), 64);
        assert!(cov.get(IntVect::new(5, 5, 5)));
        assert!(!cov.get(IntVect::new(3, 3, 3)));
        let unique0 = h.unique_mask(0);
        assert_eq!(unique0.count(), 512 - 64);
        // Densities: 7/8 of the volume is finest-at-coarse, 1/8 at fine.
        assert!((h.level_density(0) - 7.0 / 8.0).abs() < 1e-12);
        assert!((h.level_density(1) - 1.0 / 8.0).abs() < 1e-12);
        assert!((h.level_density(0) + h.level_density(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn field_roundtrip_and_validation() {
        let mut h = two_level();
        h.add_field_from_fn("rho", |lev, iv| lev as f64 * 100.0 + iv.sum() as f64)
            .unwrap();
        let mf0 = h.field_level("rho", 0).unwrap();
        assert_eq!(mf0.value_at(IntVect::new(1, 2, 3)), Some(6.0));
        let mf1 = h.field_level("rho", 1).unwrap();
        assert_eq!(mf1.value_at(IntVect::new(8, 8, 8)), Some(124.0));
        assert!(h.field("nope").is_err());
        assert!(h.field_level("rho", 7).is_err());
        assert_eq!(h.field_names(), vec!["rho"]);
    }

    #[test]
    fn rejects_level0_not_covering_domain() {
        let geom = Geometry::unit(b([0, 0, 0], [7, 7, 7]));
        let err = AmrHierarchy::new(
            geom,
            vec![],
            vec![BoxArray::single(b([0, 0, 0], [3, 7, 7]))],
        );
        assert!(err.is_err());
    }

    #[test]
    fn rejects_overlapping_level_boxes() {
        let geom = Geometry::unit(b([0, 0, 0], [7, 7, 7]));
        let err = AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain),
                BoxArray::new(vec![b([0, 0, 0], [7, 7, 7]), b([4, 4, 4], [11, 11, 11])]),
            ],
        );
        assert!(err.is_err());
    }

    #[test]
    fn rejects_escaping_fine_box() {
        let geom = Geometry::unit(b([0, 0, 0], [7, 7, 7]));
        let err = AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain),
                BoxArray::single(b([8, 8, 8], [16, 15, 15])),
            ],
        );
        assert!(err.is_err());
    }

    #[test]
    fn rejects_field_on_wrong_boxes() {
        let mut h = two_level();
        let bad = vec![
            MultiFab::zeros(&BoxArray::single(b([0, 0, 0], [7, 7, 7]))),
            MultiFab::zeros(&BoxArray::single(b([0, 0, 0], [7, 7, 7]))),
        ];
        assert!(h.add_field("bad", bad).is_err());
    }

    #[test]
    fn three_level_ratios() {
        let geom = Geometry::unit(b([0, 0, 0], [7, 7, 7]));
        let h = AmrHierarchy::new(
            geom,
            vec![2, 4],
            vec![
                BoxArray::single(geom.domain),
                BoxArray::single(b([0, 0, 0], [7, 7, 7])),
                BoxArray::single(b([0, 0, 0], [15, 15, 15])),
            ],
        )
        .unwrap();
        assert_eq!(h.ratio_to_level0(2), 8);
        assert_eq!(h.level_domain(2), b([0, 0, 0], [63, 63, 63]));
    }
}
