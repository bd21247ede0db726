//! Merging an AMR hierarchy to a single uniform-resolution grid.
//!
//! This is the standard post-analysis transformation the paper describes in
//! §2.2 / Fig. 3: coarse data is up-sampled, finer data overwrites it, and
//! the redundant coarse values underneath fine patches are thereby omitted.

use crate::boxes::Box3;
use crate::error::AmrError;
use crate::fab::Fab;
use crate::hierarchy::AmrHierarchy;
use crate::interp;
use crate::multifab::{rasterize_into, MultiFab};

/// How coarse data is up-sampled during flattening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Upsample {
    /// Each fine cell takes its parent's value (injection).
    #[default]
    PiecewiseConstant,
    /// Trilinear interpolation of coarse cell centers.
    Trilinear,
}

/// A dense uniform-resolution scalar field over a box region.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformField {
    pub region: Box3,
    pub data: Vec<f64>,
}

impl UniformField {
    pub fn new(region: Box3, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), region.num_cells());
        UniformField { region, data }
    }

    pub fn dims(&self) -> [usize; 3] {
        self.region.size()
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        let [nx, ny, _] = self.region.size();
        self.data[i + nx * (j + ny * k)]
    }

    pub fn min_max(&self) -> (f64, f64) {
        amrviz_par::min_max(&self.data)
    }
}

/// Up-samples a dense field covering `region` by `ratio`, returning a dense
/// field covering `region.refine(ratio)`. The field is taken by value: the
/// coarse buffer is moved into the interpolation (no clone), which matters
/// when flattening large hierarchies level by level.
pub fn upsample_dense_owned(field: UniformField, ratio: i64, method: Upsample) -> UniformField {
    let region = field.region;
    let coarse_fab = Fab::from_vec(region, field.data);
    let target = region.refine(ratio);
    let fine = match method {
        Upsample::PiecewiseConstant => {
            interp::prolong_piecewise_constant(&coarse_fab, target, ratio)
        }
        Upsample::Trilinear => interp::prolong_trilinear(&coarse_fab, target, ratio),
    };
    UniformField {
        region: target,
        data: fine.into_vec(),
    }
}

/// Flattens a hierarchy field to the finest level's resolution: level 0 is
/// rasterized over the whole domain, then repeatedly up-sampled with finer
/// valid data overwriting the interpolated values.
pub fn flatten_to_finest(
    hier: &AmrHierarchy,
    field: &str,
    method: Upsample,
) -> Result<UniformField, AmrError> {
    flatten_levels_to_finest(hier, &hier.field(field)?.levels, method)
}

/// [`flatten_to_finest`] over caller-supplied per-level data (one
/// [`MultiFab`] per level, on the hierarchy's box arrays). This is the entry
/// point for flattening *decompressed* level data: it borrows the levels
/// directly, so callers no longer need to clone the hierarchy and attach a
/// scratch field just to merge a reconstruction.
pub fn flatten_levels_to_finest(
    hier: &AmrHierarchy,
    levels: &[MultiFab],
    method: Upsample,
) -> Result<UniformField, AmrError> {
    if levels.len() != hier.num_levels() {
        return Err(AmrError::InvalidStructure(format!(
            "{} level fields for a {}-level hierarchy",
            levels.len(),
            hier.num_levels()
        )));
    }
    let dom0 = hier.level_domain(0);
    let mut data = vec![0.0; dom0.num_cells()];
    let written = rasterize_into(&levels[0], dom0, &mut data);
    debug_assert_eq!(written, dom0.num_cells(), "level 0 must cover the domain");
    let mut uniform = UniformField { region: dom0, data };
    for (lev, mf) in levels.iter().enumerate().skip(1) {
        uniform = upsample_dense_owned(uniform, hier.ratio_at(lev - 1), method);
        rasterize_into(mf, uniform.region, &mut uniform.data);
    }
    Ok(uniform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::box_array::BoxArray;
    use crate::geometry::Geometry;
    use crate::ivec::IntVect;

    fn b(lo: [i64; 3], hi: [i64; 3]) -> Box3 {
        Box3::new(IntVect(lo), IntVect(hi))
    }

    fn two_level_with_field(f: impl Fn(usize, IntVect) -> f64 + Sync) -> AmrHierarchy {
        let geom = Geometry::unit(b([0, 0, 0], [7, 7, 7]));
        let mut h = AmrHierarchy::new(
            geom,
            vec![2],
            vec![
                BoxArray::single(geom.domain),
                BoxArray::single(b([8, 8, 8], [15, 15, 15])),
            ],
        )
        .unwrap();
        h.add_field_from_fn("v", f).unwrap();
        h
    }

    #[test]
    fn flatten_prefers_fine_data() {
        // Coarse stores 1.0 everywhere; fine stores 2.0.
        let h = two_level_with_field(|lev, _| (lev + 1) as f64);
        let u = flatten_to_finest(&h, "v", Upsample::PiecewiseConstant).unwrap();
        assert_eq!(u.region, b([0, 0, 0], [15, 15, 15]));
        // Fine octant (all indices >= 8) must be 2.0; elsewhere 1.0.
        for (n, cell) in u.region.cells().enumerate() {
            let want = if cell[0] >= 8 && cell[1] >= 8 && cell[2] >= 8 {
                2.0
            } else {
                1.0
            };
            assert_eq!(u.data[n], want, "at {cell:?}");
        }
    }

    #[test]
    fn flatten_constant_field_is_constant() {
        let h = two_level_with_field(|_, _| 3.25);
        for method in [Upsample::PiecewiseConstant, Upsample::Trilinear] {
            let u = flatten_to_finest(&h, "v", method).unwrap();
            assert!(u.data.iter().all(|&v| (v - 3.25).abs() < 1e-12));
        }
    }

    #[test]
    fn upsample_dense_dims() {
        let u = UniformField::new(b([0, 0, 0], [1, 1, 1]), vec![1.0; 8]);
        let f = upsample_dense_owned(u, 2, Upsample::PiecewiseConstant);
        assert_eq!(f.dims(), [4, 4, 4]);
        assert!(f.data.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn flatten_levels_slice_matches_field_path() {
        let h = two_level_with_field(|lev, iv| lev as f64 * 10.0 + iv.sum() as f64);
        let by_name = flatten_to_finest(&h, "v", Upsample::Trilinear).unwrap();
        let levels = h.field("v").unwrap().levels.clone();
        let by_slice = flatten_levels_to_finest(&h, &levels, Upsample::Trilinear).unwrap();
        assert_eq!(by_name, by_slice);
        // Wrong level count is a structural error, not a panic.
        assert!(flatten_levels_to_finest(&h, &levels[..1], Upsample::Trilinear).is_err());
    }

    #[test]
    fn unknown_field_errors() {
        let h = two_level_with_field(|_, _| 0.0);
        assert!(flatten_to_finest(&h, "missing", Upsample::Trilinear).is_err());
    }

    #[test]
    fn uniform_field_accessors() {
        let u = UniformField::new(b([0, 0, 0], [1, 1, 0]), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(u.at(1, 0, 0), 2.0);
        assert_eq!(u.at(0, 1, 0), 3.0);
        assert_eq!(u.min_max(), (1.0, 4.0));
    }
}
