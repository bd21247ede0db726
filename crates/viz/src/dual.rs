//! The advanced AMR visualization method: dual-cell extraction
//! (paper §2.4, after Weber et al. 2001).
//!
//! Instead of re-sampling, the dual method builds a grid whose nodes are
//! the *cell centers* and marches the dual cells connecting them, using the
//! original data values unchanged. This avoids the dangling-node conflicts
//! of re-sampling — but the dual grid of each level stops half a cell from
//! the level boundary, producing **gaps** between levels (Fig. 1b / Fig. 8).
//!
//! [`DualMode::SwitchingCells`] closes the gaps using the redundant coarse
//! data of patch-based AMR: coarse dual cells that reach *into* the fine
//! region (but touch at least one uncovered coarse cell) are also marched,
//! overlapping the fine level's surface (Fig. 1c / upper part of Fig. 8).
//!
//! Crucially for the paper's thesis: dual-cell passes raw (decompressed)
//! cell values straight to the triangulator — no interpolation smooths the
//! compression artifacts, which is why this method *amplifies* them (§4.3).

use amrviz_amr::multifab::rasterize_into;
use amrviz_amr::{AmrHierarchy, Box3, IntVect, MultiFab, Raster};

use crate::marching::{marching_cubes, SampledGrid};
use crate::mesh::TriMesh;

/// Gap handling at coarse/fine interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DualMode {
    /// Plain dual cells: march only where all 8 cells are unique (valid and
    /// not covered by finer data). Leaves gaps between levels.
    Plain,
    /// Use redundant coarse data ("switching cells"): also march coarse dual
    /// cells extending into the fine region, as long as they touch at least
    /// one uncovered cell. Closes the visual gap.
    SwitchingCells,
}

/// Extracts the `iso` surface of one level using the dual-cell method.
pub fn extract_dual_level(
    hier: &AmrHierarchy,
    level_data: &MultiFab,
    lev: usize,
    iso: f64,
    mode: DualMode,
) -> TriMesh {
    let dom = hier.level_domain(lev);
    let [cx, cy, cz] = dom.size();
    if cx < 2 || cy < 2 || cz < 2 {
        return TriMesh::new();
    }
    let ratio0 = hier.ratio_to_level0(lev);
    let h = hier.geometry().cell_size_at(ratio0);

    // The cell values are rented scratch, the node values of the marched
    // grid, and go back once it is marched.
    let mut cells = amrviz_par::scratch::take_f64();
    cells.resize(dom.num_cells(), 0.0);
    rasterize_into(level_data, dom, &mut cells);
    let valid = hier.valid_mask(lev);
    let covered = hier.covered_mask(lev);

    let sp_mask = amrviz_obs::span!("dual.mask", level = lev);
    let mask = dual_mask(&valid, &covered, mode);
    sp_mask.finish();

    // Node grid sits at cell centers: origin shifted by h/2.
    let origin = [
        hier.geometry().prob_lo[0] + (dom.lo()[0] as f64 + 0.5) * h[0],
        hier.geometry().prob_lo[1] + (dom.lo()[1] as f64 + 0.5) * h[1],
        hier.geometry().prob_lo[2] + (dom.lo()[2] as f64 + 0.5) * h[2],
    ];
    let grid = SampledGrid {
        dims: [cx, cy, cz],
        origin,
        spacing: h,
        values: cells,
        cell_mask: mask,
    };
    let _sp = amrviz_obs::span!("dual.march", level = lev);
    let mesh = marching_cubes(&grid, iso);
    amrviz_par::scratch::give_f64(grid.values);
    mesh
}

/// The dual cells to march, over the dual-cell box of the level's `valid`
/// and `covered` masks. A dual cell connects a 2×2×2 neighborhood of cell
/// centers: over the four cell rows of a dual-cell row, 64 cells a word,
/// which cells are all valid, any unique and all unique (valid and not
/// covered); a dual cell takes its lower x cell's flags and the next one's.
fn dual_mask(valid: &Raster, covered: &Raster, mode: DualMode) -> Raster {
    let dom = valid.region();
    let dual_cells = Box3::new(dom.lo(), dom.hi() - IntVect::splat(1));
    Raster::from_rows(dual_cells, |j, k, out| {
        let rows = [(j, k), (j + 1, k), (j, k + 1), (j + 1, k + 1)]
            .map(|(j, k)| (valid.row_words(j, k), covered.row_words(j, k)));
        // Past the row's end every flag is zero.
        let column = |w: usize| {
            rows.iter()
                .fold((!0, 0, !0), |(all_v, any_u, all_u), (v, c)| {
                    let (v, c) = (
                        v.get(w).copied().unwrap_or(0),
                        c.get(w).copied().unwrap_or(0),
                    );
                    (all_v & v, any_u | v & !c, all_u & v & !c)
                })
        };
        let on = |here: u64, next: u64| here >> 1 | next << 63;
        let mut here = column(0);
        for (w, out) in out.iter_mut().enumerate() {
            let next = column(w + 1);
            *out = match mode {
                DualMode::Plain => here.2 & on(here.2, next.2),
                DualMode::SwitchingCells => {
                    here.0 & on(here.0, next.0) & (here.1 | on(here.1, next.1))
                }
            };
            here = next;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_amr::{Box3, BoxArray, Geometry, IntVect};

    fn sphere_field(g: Geometry, ratio: i64) -> impl Fn(IntVect) -> f64 {
        move |iv| {
            let p = g.cell_center(iv, ratio);
            0.3 - ((p[0] - 0.5).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2)).sqrt()
        }
    }

    fn single_level(n: usize) -> AmrHierarchy {
        let geom = Geometry::unit(Box3::from_dims(n, n, n));
        let mut h = AmrHierarchy::single_level(geom);
        let f = sphere_field(*h.geometry(), 1);
        h.add_field_from_fn("f", move |_, iv| f(iv)).unwrap();
        h
    }

    fn two_level() -> AmrHierarchy {
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
            sphere_field(g, if lev == 0 { 1 } else { 2 })(iv)
        })
        .unwrap();
        h
    }

    #[test]
    fn uniform_level_sphere_is_watertight() {
        let h = single_level(24);
        let mesh = extract_dual_level(&h, h.field_level("f", 0).unwrap(), 0, 0.0, DualMode::Plain);
        assert!(mesh.num_triangles() > 200);
        assert!(mesh.is_watertight());
        let exact = 4.0 * std::f64::consts::PI * 0.09;
        assert!((mesh.total_area() - exact).abs() / exact < 0.1);
    }

    #[test]
    fn plain_mode_leaves_a_gap() {
        let h = two_level();
        let coarse =
            extract_dual_level(&h, h.field_level("f", 0).unwrap(), 0, 0.0, DualMode::Plain);
        let fine = extract_dual_level(&h, h.field_level("f", 1).unwrap(), 1, 0.0, DualMode::Plain);
        let hc = 1.0 / 16.0;
        let hf = 1.0 / 32.0;
        // Plain coarse dual stops at least half a coarse cell short of the
        // interface at x = 0.5.
        let coarse_max_x = coarse
            .vertices
            .iter()
            .map(|v| v[0])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            coarse_max_x <= 0.5 - hc / 2.0 + 1e-9,
            "coarse dual reached {coarse_max_x}"
        );
        // Fine dual starts at least half a fine cell past the interface.
        let fine_min_x = fine
            .vertices
            .iter()
            .map(|v| v[0])
            .fold(f64::INFINITY, f64::min);
        assert!(
            fine_min_x >= 0.5 + hf / 2.0 - 1e-9,
            "fine dual reached {fine_min_x}"
        );
        // The gap between the two surfaces is ≈ (h_c + h_f)/2 wide.
        assert!(fine_min_x - coarse_max_x >= 0.5 * (hc + hf) - 1e-9);
    }

    #[test]
    fn switching_cells_close_the_gap() {
        let h = two_level();
        let coarse = extract_dual_level(
            &h,
            h.field_level("f", 0).unwrap(),
            0,
            0.0,
            DualMode::SwitchingCells,
        );
        let fine = extract_dual_level(&h, h.field_level("f", 1).unwrap(), 1, 0.0, DualMode::Plain);
        let hf = 1.0 / 32.0;
        // With redundant coarse data the coarse surface now extends past the
        // interface, overlapping the fine surface region.
        let coarse_max_x = coarse
            .vertices
            .iter()
            .map(|v| v[0])
            .fold(f64::NEG_INFINITY, f64::max);
        let fine_min_x = fine
            .vertices
            .iter()
            .map(|v| v[0])
            .fold(f64::INFINITY, f64::min);
        assert!(
            coarse_max_x >= fine_min_x - 1e-9,
            "no overlap: coarse ends {coarse_max_x}, fine starts {fine_min_x}"
        );
        // But not unboundedly far — only about one coarse dual ring.
        assert!(coarse_max_x <= 0.5 + 2.0 * hf + 1.0 / 16.0 + 1e-9);
    }

    #[test]
    fn dual_uses_raw_cell_values() {
        // A field that is exactly representable at cell centers: the dual
        // surface of f(x) = x − 0.5 must sit exactly at x = 0.5 (linear
        // interpolation between centers is exact for linear fields).
        let geom = Geometry::unit(Box3::from_dims(8, 8, 8));
        let mut h = AmrHierarchy::single_level(geom);
        let g = *h.geometry();
        h.add_field_from_fn("f", move |_, iv| g.cell_center(iv, 1)[0] - 0.5)
            .unwrap();
        let mesh = extract_dual_level(&h, h.field_level("f", 0).unwrap(), 0, 0.0, DualMode::Plain);
        assert!(!mesh.is_empty());
        for v in &mesh.vertices {
            assert!((v[0] - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn dual_mask_words_match_the_per_cell_rule() {
        // Row widths around one and two words, so a dual cell's upper x cell
        // is the next word's first for every 64th dual cell.
        for cx in [2, 63, 64, 65, 66, 129, 130] {
            amrviz_rng::check(0xd0a1 + cx as u64, 8, |rng| {
                let lo = IntVect::new(-7, 2, 4);
                let size = IntVect::new(cx as i64, rng.range_i64(2, 4), rng.range_i64(2, 4));
                let dom = Box3::new(lo, lo + size - IntVect::splat(1));
                let (mut valid, mut covered) = (Raster::falses(dom), Raster::falses(dom));
                for iv in dom.cells() {
                    valid.set(iv, rng.chance(0.85));
                    covered.set(iv, rng.chance(0.3));
                }
                for mode in [DualMode::Plain, DualMode::SwitchingCells] {
                    let mask = dual_mask(&valid, &covered, mode);
                    for d in mask.region().cells() {
                        let eight: Vec<IntVect> = (0..8)
                            .map(|c| d + IntVect::new(c & 1, c >> 1 & 1, c >> 2))
                            .collect();
                        let unique = |iv: &IntVect| valid.get(*iv) && !covered.get(*iv);
                        let want = match mode {
                            DualMode::Plain => eight.iter().all(unique),
                            DualMode::SwitchingCells => {
                                eight.iter().all(|iv| valid.get(*iv)) && eight.iter().any(unique)
                            }
                        };
                        assert_eq!(mask.get(d), want, "{mode:?} dual cell {d:?}");
                    }
                }
            });
        }
    }

    #[test]
    fn tiny_levels_yield_empty_meshes() {
        let geom = Geometry::unit(Box3::from_dims(1, 8, 8));
        let mut h = AmrHierarchy::single_level(geom);
        h.add_field_from_fn("f", |_, _| 1.0).unwrap();
        let mesh = extract_dual_level(&h, h.field_level("f", 0).unwrap(), 0, 0.5, DualMode::Plain);
        assert!(mesh.is_empty());
    }
}
