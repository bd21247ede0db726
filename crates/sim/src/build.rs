//! Shared machinery for assembling two-level snapshots from dense
//! fine-resolution fields.

use amrviz_amr::{
    berger_rigoutsos, restrict_average, AmrHierarchy, Box3, BoxArray, Fab, Geometry, IntVect,
    MultiFab, Raster, RegridConfig,
};

/// Structural parameters of a two-level snapshot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TwoLevelSpec {
    pub coarse_dims: [usize; 3],
    pub prob_hi: [f64; 3],
    /// Berger–Rigoutsos efficiency.
    pub efficiency: f64,
    /// Blocking factor at the coarse level.
    pub blocking: i64,
    /// Max cells per box at either level.
    pub max_box_cells: usize,
}

/// `p`-quantile (0..1) of `values` (interpolation-free, by selection).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty() && (0.0..=1.0).contains(&p));
    let mut v: Vec<f64> = values.to_vec();
    let k = ((v.len() - 1) as f64 * p).round() as usize;
    let (_, val, _) =
        v.select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("no NaNs in field data"));
    *val
}

/// Builds the two-level hierarchy: coarse data is the restriction of the
/// given dense fine fields (so the redundant coarse data is consistent, as
/// in a real patch-based AMR run), the fine level covers the clustered
/// `tags` region.
pub(crate) fn build_two_level(
    spec: &TwoLevelSpec,
    fine_fields: Vec<(String, Vec<f64>)>,
    tags: &Raster,
) -> AmrHierarchy {
    let [cx, cy, cz] = spec.coarse_dims;
    let domain = Box3::from_dims(cx, cy, cz);
    assert_eq!(tags.region(), domain, "tags must live on the coarse domain");
    let cfg = RegridConfig {
        efficiency: spec.efficiency,
        blocking_factor: spec.blocking,
        max_box_cells: Some(spec.max_box_cells),
    };
    build_two_level_from_boxes(spec, fine_fields, berger_rigoutsos(tags, &cfg))
}

/// Like [`build_two_level`], but with the refined region given explicitly
/// as coarse-level boxes (e.g. WarpX's single moving-window slab).
pub(crate) fn build_two_level_from_boxes(
    spec: &TwoLevelSpec,
    fine_fields: Vec<(String, Vec<f64>)>,
    coarse_cluster: BoxArray,
) -> AmrHierarchy {
    let [cx, cy, cz] = spec.coarse_dims;
    let domain = Box3::from_dims(cx, cy, cz);
    let geom = Geometry::new(domain, [0.0; 3], spec.prob_hi);

    let fine_ba = BoxArray::new(coarse_cluster.refine(2).boxes().to_vec())
        .chop_to_max_cells(spec.max_box_cells);
    let coarse_ba = BoxArray::single(domain).chop_to_max_cells(spec.max_box_cells);

    let mut hier = AmrHierarchy::new(geom, vec![2], vec![coarse_ba, fine_ba])
        .expect("constructed box arrays are valid");

    let fine_domain = domain.refine(2);
    for (name, fine_dense) in fine_fields {
        let fine = Fab::from_vec(fine_domain, fine_dense);
        let coarse = restrict_average(&fine, domain, 2);
        let levels = vec![
            MultiFab::from_dense(hier.box_array(0), domain, coarse.data()),
            MultiFab::from_dense(hier.box_array(1), fine_domain, fine.data()),
        ];
        hier.add_field(&name, levels)
            .expect("field matches constructed box arrays");
    }
    hier
}

/// Tags whole `block³` blocks whose mean value lands in the top `frac`
/// quantile — block-granular tagging that keeps Berger–Rigoutsos coverage
/// close to the target fraction even for spatially scattered fields (cell-
/// granular tags would inflate coverage to whichever blocks contain any
/// tagged cell).
pub(crate) fn tag_top_fraction_blocks(
    domain: Box3,
    dense: &[f64],
    block: usize,
    frac: f64,
) -> Raster {
    let [nx, ny, nz] = domain.size();
    assert_eq!(dense.len(), nx * ny * nz);
    let nb = [nx.div_ceil(block), ny.div_ceil(block), nz.div_ceil(block)];
    let mut means = Vec::with_capacity(nb[0] * nb[1] * nb[2]);
    for bk in 0..nb[2] {
        for bj in 0..nb[1] {
            for bi in 0..nb[0] {
                let mut sum = 0.0;
                let mut cnt = 0usize;
                for k in bk * block..((bk + 1) * block).min(nz) {
                    for j in bj * block..((bj + 1) * block).min(ny) {
                        for i in bi * block..((bi + 1) * block).min(nx) {
                            sum += dense[i + nx * (j + ny * k)];
                            cnt += 1;
                        }
                    }
                }
                means.push(sum / cnt as f64);
            }
        }
    }
    let thresh = quantile(&means, 1.0 - frac);
    let mut tags = Raster::falses(domain);
    let mut m = means.iter();
    for bk in 0..nb[2] {
        for bj in 0..nb[1] {
            for bi in 0..nb[0] {
                if *m.next().expect("mean per block") >= thresh {
                    let lo = domain.lo()
                        + IntVect::new(
                            (bi * block) as i64,
                            (bj * block) as i64,
                            (bk * block) as i64,
                        );
                    let hi = IntVect::new(
                        (((bi + 1) * block).min(nx) - 1) as i64,
                        (((bj + 1) * block).min(ny) - 1) as i64,
                        (((bk + 1) * block).min(nz) - 1) as i64,
                    ) + domain.lo();
                    tags.set_box(&Box3::new(lo, hi), true);
                }
            }
        }
    }
    tags
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_amr::regrid::tag_where;

    #[test]
    fn quantile_basics() {
        let v: Vec<f64> = (0..101).map(|i| i as f64).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
    }

    #[test]
    fn build_produces_consistent_hierarchy() {
        let spec = TwoLevelSpec {
            coarse_dims: [16, 16, 16],
            prob_hi: [1.0; 3],
            efficiency: 0.7,
            blocking: 4,
            max_box_cells: 4096,
        };
        let fine_dims = [32, 32, 32];
        let fine: Vec<f64> = (0..fine_dims[0] * fine_dims[1] * fine_dims[2])
            .map(|n| {
                let i = n % 32;
                if i < 16 {
                    10.0
                } else {
                    1.0
                }
            })
            .collect();
        let domain = Box3::from_dims(16, 16, 16);
        let coarse = restrict_average(&Fab::from_vec(domain.refine(2), fine.clone()), domain, 2);
        let tags = tag_where(domain, coarse.data(), |v| v > 5.0);
        let hier = build_two_level(&spec, vec![("u".into(), fine)], &tags);

        assert_eq!(hier.num_levels(), 2);
        // All tagged cells are covered by the fine level.
        let covered = hier.covered_mask(0);
        for cell in tags.true_cells() {
            assert!(covered.get(cell), "tag {cell:?} not refined");
        }
        // Coarse data is the restriction of fine data where covered.
        let c0 = hier.field_level("u", 0).unwrap();
        let f1 = hier.field_level("u", 1).unwrap();
        for cell in covered.true_cells() {
            let cv = c0.value_at(cell).unwrap();
            let mut avg = 0.0;
            for dz in 0..2 {
                for dy in 0..2 {
                    for dx in 0..2 {
                        avg += f1
                            .value_at(cell.refine(2) + IntVect::new(dx, dy, dz))
                            .unwrap();
                    }
                }
            }
            assert!((cv - avg / 8.0).abs() < 1e-12);
        }
    }
}
