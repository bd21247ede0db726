//! Coarse↔fine transfer operators (prolongation / restriction).

use crate::boxes::Box3;
use crate::fab::Fab;
use crate::ivec::IntVect;
use crate::multifab::MultiFab;

/// Piecewise-constant (injection) prolongation: each fine cell takes its
/// coarse parent's value. `target` is a fine-index box; `coarse` must cover
/// `target.coarsen(ratio)`.
///
/// Works a row at a time: a fine row or plane whose coarse parent row or
/// plane is the one just written is a copy of it, and only the first fine
/// row under each coarse row is expanded cell by cell.
pub fn prolong_piecewise_constant(coarse: &Fab, target: Box3, ratio: i64) -> Fab {
    let needed = target.coarsen(ratio);
    assert!(
        coarse.box3().contains_box(&needed),
        "coarse fab {:?} does not cover {:?}",
        coarse.box3(),
        needed
    );
    let (lo, hi) = (target.lo(), target.hi());
    let [nx, ny, _] = target.size();
    let parent = |fine: i64| fine.div_euclid(ratio);
    // Each fine cell's parent as an offset into a coarse row: one map for
    // every row.
    let x_parent: Vec<usize> = (lo[0]..=hi[0])
        .map(|i| (parent(i) - needed.lo()[0]) as usize)
        .collect();
    let mut data = Vec::with_capacity(target.num_cells());
    for k in lo[2]..=hi[2] {
        if k > lo[2] && parent(k) == parent(k - 1) {
            data.extend_from_within(data.len() - nx * ny..);
            continue;
        }
        for j in lo[1]..=hi[1] {
            if j > lo[1] && parent(j) == parent(j - 1) {
                data.extend_from_within(data.len() - nx..);
                continue;
            }
            let first = IntVect::new(needed.lo()[0], parent(j), parent(k));
            let coarse_row = &coarse.data()[coarse.box3().offset(first)..];
            data.extend(x_parent.iter().map(|&c| coarse_row[c]));
        }
    }
    Fab::from_vec(target, data)
}

/// Trilinear cell-centered prolongation. Fine cell centers are interpolated
/// from the 8 surrounding coarse cell centers; coarse indices are clamped to
/// the coarse fab's box at its boundary (one-sided constant extension).
///
/// `coarse` must cover `target.coarsen(ratio)` — the clamping supplies the
/// halo the stencil would otherwise need.
pub fn prolong_trilinear(coarse: &Fab, target: Box3, ratio: i64) -> Fab {
    let needed = target.coarsen(ratio);
    assert!(
        coarse.box3().contains_box(&needed),
        "coarse fab {:?} does not cover {:?}",
        coarse.box3(),
        needed
    );
    let cb = coarse.box3();
    let r = ratio as f64;
    Fab::from_fn(target, |fine| {
        // Position of the fine cell center in coarse index coordinates.
        let xc = (fine[0] as f64 + 0.5) / r - 0.5;
        let yc = (fine[1] as f64 + 0.5) / r - 0.5;
        let zc = (fine[2] as f64 + 0.5) / r - 0.5;
        let i0 = xc.floor() as i64;
        let j0 = yc.floor() as i64;
        let k0 = zc.floor() as i64;
        let fx = xc - i0 as f64;
        let fy = yc - j0 as f64;
        let fz = zc - k0 as f64;
        let clamp = |iv: IntVect| iv.max(cb.lo()).min(cb.hi());
        let mut acc = 0.0;
        for dz in 0..2i64 {
            let wz = if dz == 0 { 1.0 - fz } else { fz };
            for dy in 0..2i64 {
                let wy = if dy == 0 { 1.0 - fy } else { fy };
                for dx in 0..2i64 {
                    let wx = if dx == 0 { 1.0 - fx } else { fx };
                    let c = clamp(IntVect::new(i0 + dx, j0 + dy, k0 + dz));
                    acc += wx * wy * wz * coarse.get(c);
                }
            }
        }
        acc
    })
}

/// Conservative restriction: each coarse cell of `target` becomes the mean
/// of its `ratio³` fine children. `fine` must cover `target.refine(ratio)`.
pub fn restrict_average(fine: &Fab, target: Box3, ratio: i64) -> Fab {
    let needed = target.refine(ratio);
    assert!(
        fine.box3().contains_box(&needed),
        "fine fab {:?} does not cover {:?}",
        fine.box3(),
        needed
    );
    let inv = 1.0 / (ratio * ratio * ratio) as f64;
    Fab::from_fn(target, |coarse| {
        let base = coarse.refine(ratio);
        let mut acc = 0.0;
        for dz in 0..ratio {
            for dy in 0..ratio {
                for dx in 0..ratio {
                    acc += fine.get(base + IntVect::new(dx, dy, dz));
                }
            }
        }
        acc * inv
    })
}

/// The one average-down: overwrites each cell of `coarse` inside `region`
/// that has a full set of children in `fine` with their average
/// ([`restrict_average`]), and returns whether any cell was. A degenerate
/// unaligned fine box may hold the full set of children of no coarse cell
/// ([`Box3::coarsen_inward`]); its coarse parents keep their own data.
pub fn restrict_within(coarse: &mut MultiFab, fine: &MultiFab, ratio: i64, region: Box3) -> bool {
    let mut restricted_any = false;
    for cfab in coarse.fabs_mut() {
        let Some(target) = cfab.box3().intersect(&region) else {
            continue;
        };
        for ffab in fine.fabs() {
            let Some(covered) = ffab.box3().coarsen_inward(ratio) else {
                continue;
            };
            let Some(overlap) = target.intersect(&covered) else {
                continue;
            };
            cfab.copy_from(&restrict_average(ffab, overlap, ratio));
            restricted_any = true;
        }
    }
    restricted_any
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: [i64; 3], hi: [i64; 3]) -> Box3 {
        Box3::new(IntVect(lo), IntVect(hi))
    }

    #[test]
    fn piecewise_constant_copies_parent() {
        let coarse = Fab::from_fn(b([0, 0, 0], [1, 1, 1]), |iv| iv.sum() as f64);
        let fine = prolong_piecewise_constant(&coarse, b([0, 0, 0], [3, 3, 3]), 2);
        assert_eq!(fine.get(IntVect::new(0, 0, 0)), 0.0);
        assert_eq!(fine.get(IntVect::new(1, 1, 1)), 0.0);
        assert_eq!(fine.get(IntVect::new(2, 0, 0)), 1.0);
        assert_eq!(fine.get(IntVect::new(3, 3, 3)), 3.0);
    }

    #[test]
    fn piecewise_constant_matches_the_per_cell_oracle() {
        // The oracle is the per-cell definition: every fine cell looks its
        // parent up by floor division.
        amrviz_rng::check(0x9c01, 64, |rng| {
            let ratio = rng.range_i64(2, 4);
            // Negative, positive and straddling targets, aligned to the
            // ratio on no side in general.
            let lo = IntVect([0; 3].map(|_| rng.range_i64(-9, 6)));
            let target = Box3::new(lo, lo + IntVect([0; 3].map(|_| rng.range_i64(0, 9))));
            // The coarse fab covers the parents with uneven margins.
            let needed = target.coarsen(ratio);
            let margin = |rng: &mut amrviz_rng::Rng| IntVect([0; 3].map(|_| rng.range_i64(0, 2)));
            let cb = Box3::new(needed.lo() - margin(rng), needed.hi() + margin(rng));
            let coarse = Fab::from_fn(cb, |_| rng.f64());
            let want = Fab::from_fn(target, |fine| coarse.get(fine.coarsen(ratio)));
            let got = prolong_piecewise_constant(&coarse, target, ratio);
            assert_eq!(got.box3(), target);
            let bits = |f: &Fab| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "ratio {ratio} target {target:?}");
        });
    }

    #[test]
    fn trilinear_preserves_constants() {
        let coarse = Fab::constant(b([0, 0, 0], [3, 3, 3]), 7.5);
        let fine = prolong_trilinear(&coarse, b([0, 0, 0], [7, 7, 7]), 2);
        for (_, v) in fine.iter() {
            assert!((v - 7.5).abs() < 1e-12);
        }
    }

    #[test]
    fn trilinear_reproduces_linear_fields_in_interior() {
        // f(x) = x in physical coords; cell-centered values are linear in the
        // index, so trilinear interpolation should be exact away from the
        // clamped boundary.
        let coarse = Fab::from_fn(b([0, 0, 0], [7, 7, 7]), |iv| {
            iv[0] as f64 + 2.0 * iv[1] as f64 - 0.5 * iv[2] as f64
        });
        let target = b([4, 4, 4], [11, 11, 11]); // interior region
        let fine = prolong_trilinear(&coarse, target, 2);
        for (cell, v) in fine.iter() {
            // Expected: evaluate the same linear function at the fine center
            // expressed in coarse index coordinates.
            let x = (cell[0] as f64 + 0.5) / 2.0 - 0.5;
            let y = (cell[1] as f64 + 0.5) / 2.0 - 0.5;
            let z = (cell[2] as f64 + 0.5) / 2.0 - 0.5;
            let want = x + 2.0 * y - 0.5 * z;
            assert!((v - want).abs() < 1e-12, "at {cell:?}: {v} vs {want}");
        }
    }

    #[test]
    fn restriction_averages_children() {
        let fine = Fab::from_fn(b([0, 0, 0], [3, 3, 3]), |iv| iv[0] as f64);
        let coarse = restrict_average(&fine, b([0, 0, 0], [1, 1, 1]), 2);
        // children x-values: {0,1} → 0.5 and {2,3} → 2.5
        assert!((coarse.get(IntVect::new(0, 0, 0)) - 0.5).abs() < 1e-12);
        assert!((coarse.get(IntVect::new(1, 0, 0)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn restrict_average_averages_a_dense_block() {
        let fine = Fab::from_vec(b([0, 0, 0], [3, 3, 3]), (0..64).map(f64::from).collect());
        let coarse = restrict_average(&fine, b([0, 0, 0], [1, 1, 1]), 2);
        assert_eq!(coarse.data().len(), 8);
        // First coarse cell averages fine cells (0..1)³.
        let want = (0.0 + 1.0 + 4.0 + 5.0 + 16.0 + 17.0 + 20.0 + 21.0) / 8.0;
        assert_eq!(coarse.data()[0], want);
    }

    #[test]
    fn restrict_of_prolong_is_identity_for_pc() {
        let coarse = Fab::from_fn(b([0, 0, 0], [3, 3, 3]), |iv| (iv.sum() * iv[0]) as f64);
        let fine = prolong_piecewise_constant(&coarse, coarse.box3().refine(2), 2);
        let back = restrict_average(&fine, coarse.box3(), 2);
        for (c, v) in back.iter() {
            assert!((v - coarse.get(c)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn prolong_requires_coverage() {
        let coarse = Fab::zeros(b([0, 0, 0], [1, 1, 1]));
        prolong_piecewise_constant(&coarse, b([0, 0, 0], [7, 7, 7]), 2);
    }
}
