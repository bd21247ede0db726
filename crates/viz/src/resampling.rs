//! The basic AMR visualization method: cell→vertex re-sampling + marching
//! (paper §2.3).
//!
//! Per level, cell-centered data is "diffused" to the cell corners by
//! averaging the adjacent cells (the 2D example of the paper's Fig. 4), and
//! the resulting vertex-centered grid is triangulated. Each level is
//! processed independently at its own resolution; coarse cells covered by a
//! finer level are omitted. Because the levels' vertex grids disagree at
//! the interfaces (dangling nodes), the combined surface exhibits the
//! characteristic **cracks** of Fig. 1a — reproduced here by construction.

use amrviz_amr::multifab::rasterize_into;
use amrviz_amr::{AmrHierarchy, Box3, IntVect, MultiFab, Raster};

use crate::marching::{marching_cubes, SampledGrid};
use crate::mesh::TriMesh;

/// Extracts the `iso` surface of one level using the re-sampling method.
///
/// `level_data` must live on `hier.box_array(lev)` (it may be original or
/// decompressed data). Coarse cells covered by level `lev + 1` are not
/// triangulated.
pub fn extract_resampled_level(
    hier: &AmrHierarchy,
    level_data: &MultiFab,
    lev: usize,
    iso: f64,
) -> TriMesh {
    let dom = hier.level_domain(lev);
    let [cx, cy, cz] = dom.size();
    let ratio0 = hier.ratio_to_level0(lev);
    let h = hier.geometry().cell_size_at(ratio0);

    // The node grid is rented scratch, given back once it is marched: the
    // one level-sized buffer of the method.
    let valid = hier.valid_mask(lev);
    let mut nodes = amrviz_par::scratch::take_f64();
    let sp_nodes = amrviz_obs::span!("resample.nodes", level = lev);
    average_to_nodes(level_data, &valid, &mut nodes);
    sp_nodes.finish();

    // March the level's unique cells only: valid and not covered.
    let origin = hier.geometry().prob_lo;
    let grid = SampledGrid {
        dims: [cx + 1, cy + 1, cz + 1],
        origin,
        spacing: h,
        values: nodes,
        cell_mask: hier.unique_mask(lev),
    };
    let _sp = amrviz_obs::span!("resample.march", level = lev);
    let mesh = marching_cubes(&grid, iso);
    amrviz_par::scratch::give_f64(grid.values);
    mesh
}

/// Node planes per task of [`average_to_nodes`]. A task rasterizes the cell
/// planes its nodes touch, one more than it has node planes.
const NODE_PLANES: usize = 8;

/// Per byte of valid flags, its eight cells' weights: a byte each, 1 if
/// valid.
const WEIGHTS: [u64; 256] = {
    let (mut out, mut n) = ([0; 256], 0);
    while n < 256 * 8 {
        out[n / 8] |= (((n / 8) >> (n % 8) & 1) << (8 * (n % 8))) as u64;
        n += 1;
    }
    out
};

/// The vertex-centered grid of a level — its cells `level`, its domain
/// `valid`'s region — written over `nodes`: node (i, j, k) averages the ≤ 8
/// adjacent valid cells (`+0.0` where there is none). At patch boundaries
/// the average is one-sided — the "dangling node" conflict responsible for
/// cracks. Parallel over slabs of node planes.
fn average_to_nodes(level: &MultiFab, valid: &Raster, nodes: &mut Vec<f64>) {
    let dom = valid.region();
    let [cx, cy, cz] = dom.size();
    let (nnx, plane) = (cx + 1, (cx + 1) * (cy + 1));
    nodes.clear();
    nodes.resize(plane * (cz + 1), 0.0);
    amrviz_par::for_each_chunk_mut(nodes, NODE_PLANES * plane, |s, slab| {
        // The dense cell planes `ck0..ck1` under and over the slab's nodes,
        // in a rented buffer, and beside each cell its weight: 1 if valid.
        let nk0 = s * NODE_PLANES;
        let (ck0, ck1) = (nk0.saturating_sub(1), (nk0 + slab.len() / plane).min(cz));
        let (lo, hi) = (dom.lo(), dom.hi());
        let planes = Box3::new(
            IntVect::new(lo[0], lo[1], lo[2] + ck0 as i64),
            IntVect::new(hi[0], hi[1], lo[2] + ck1 as i64 - 1),
        );
        let (mut cells, mut weights) =
            (amrviz_par::scratch::take_f64(), vec![0; planes.num_cells()]);
        cells.resize(planes.num_cells(), 0.0);
        rasterize_into(level, planes, &mut cells);
        // Invalid cells count as absent: zero, of weight zero. A word of
        // valid flags at a time, a word of valid cells at once.
        let rows = cells.chunks_exact_mut(cx).zip(weights.chunks_exact_mut(cx));
        for (r, (cells, weights)) in rows.enumerate() {
            let flags = valid.row_words(r % cy, ck0 + r / cy);
            let words = cells.chunks_mut(64).zip(weights.chunks_mut(64));
            for (&f, (c, w)) in flags.iter().zip(words) {
                if f == u64::MAX {
                    w.fill(1);
                    continue;
                }
                for (k, w) in w.chunks_mut(8).enumerate() {
                    w.copy_from_slice(
                        &WEIGHTS[(f >> (8 * k)) as usize & 255].to_le_bytes()[..w.len()],
                    );
                }
                for (c, &w) in c.iter_mut().zip(&*w) {
                    *c = f64::from_bits(c.to_bits() & u64::from(w).wrapping_neg());
                }
            }
        }
        // An absent cell row reads as invalid cells.
        let absent = (vec![0.0; cx], vec![0; cx]);
        for (n, out) in slab.chunks_exact_mut(nnx).enumerate() {
            let (nj, nk) = (n % (cy + 1), nk0 + n / (cy + 1));
            // The 4 cell rows around this node row, z-major: node i sums
            // cells i − 1 and i of each in turn — the end nodes have an
            // absent one — and divides by how many were valid. Invalid cells
            // add `+0.0`, which cannot change a sum that started at `+0.0`;
            // an empty sum is `+0.0`, and `+0.0 / 1` keeps it.
            let rows: [(&[f64], &[u8]); 4] = std::array::from_fn(|r| {
                let [cj, ck] = [nj + (r & 1), nk + (r >> 1)].map(|c| c.wrapping_sub(1));
                let at = (cj < cy && ck < cz).then(|| cx * (cj + cy * (ck - ck0)));
                at.map_or((&absent.0[..], &absent.1[..]), |at| {
                    (&cells[at..][..cx], &weights[at..][..cx])
                })
            });
            let end = |c: usize| {
                let (s, n) = rows
                    .iter()
                    .fold((0.0, 0), |(s, n), (v, w)| (s + v[c], n + w[c]));
                s / f64::from(n.max(1))
            };
            (out[0], out[cx]) = (end(0), end(cx - 1));
            // The inner nodes the same way, with every cell in range.
            let lo = rows.map(|(v, w)| (&v[..cx - 1], &w[..cx - 1]));
            let hi = rows.map(|(v, w)| (&v[1..cx], &w[1..cx]));
            for (i, out) in out[1..cx].iter_mut().enumerate() {
                let (mut s, mut n) = (0.0, 0u8);
                for (lo, hi) in lo.iter().zip(&hi) {
                    s = (s + lo.0[i]) + hi.0[i];
                    n += lo.1[i] + hi.1[i];
                }
                *out = s / f64::from(n.max(1));
            }
        }
        amrviz_par::scratch::give_f64(cells);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_amr::{BoxArray, Fab, Geometry};

    /// Single-level hierarchy holding a sphere SDF-like field.
    fn single_level_sphere(n: usize) -> AmrHierarchy {
        let geom = Geometry::unit(Box3::from_dims(n, n, n));
        let mut h = AmrHierarchy::single_level(geom);
        let g = *h.geometry();
        h.add_field_from_fn("f", move |_, iv| {
            let p = g.cell_center(iv, 1);
            0.3 - ((p[0] - 0.5).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2)).sqrt()
        })
        .unwrap();
        h
    }

    /// Two-level hierarchy with the fine level over the x ≥ 0.5 half and a
    /// sphere field spanning the interface.
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

    /// [`average_to_nodes`] one node at a time: the per-node loop the row kernel
    /// replaced, kept as its oracle.
    fn per_node_oracle(cells: &[f64], valid: &Raster) -> Vec<f64> {
        let [cx, cy, cz] = valid.region().size();
        let (nnx, nny) = (cx + 1, cy + 1);
        let mut nodes = vec![0.0f64; nnx * nny * (cz + 1)];
        for (n, node) in nodes.iter_mut().enumerate() {
            let (ni, nj, nk) = (n % nnx, n / nnx % nny, n / (nnx * nny));
            let (mut sum, mut cnt) = (0.0, 0u32);
            for ck in nk.saturating_sub(1)..(nk + 1).min(cz) {
                for cj in nj.saturating_sub(1)..(nj + 1).min(cy) {
                    for ci in ni.saturating_sub(1)..(ni + 1).min(cx) {
                        let at = IntVect([ci, cj, ck].map(|c| c as i64));
                        if valid.get(valid.region().lo() + at) {
                            sum += cells[ci + cx * (cj + cy * ck)];
                            cnt += 1;
                        }
                    }
                }
            }
            if cnt > 0 {
                *node = sum / cnt as f64;
            }
        }
        nodes
    }

    #[test]
    fn node_rows_match_the_per_node_oracle_to_the_bit() {
        amrviz_rng::check(0x40de, 40, |rng| {
            // Node slabs of `NODE_PLANES` planes: one, two and three of them.
            // Rows of one word, or of up to three with long runs of valid
            // cells, so that whole words are valid.
            let wide = rng.chance(0.5);
            let [cx, cy, cz] = match wide {
                false => [7, 7, 3 * NODE_PLANES],
                true => [140, 3, 2 * NODE_PLANES],
            };
            let [cx, cy, cz] = [cx, cy, cz].map(|n| rng.range_usize(1, n));
            let lo = IntVect::new(3, -2, 5);
            let dom = Box3::new(lo, lo + IntVect([cx, cy, cz].map(|n| n as i64 - 1)));
            // Valid cells come in runs, so whole neighbourhoods are invalid;
            // every domain face has node rows with absent cell rows.
            let (mut valid, mut on) = (Raster::falses(dom), true);
            let cells: Vec<f64> = (0..dom.num_cells())
                .map(|n| {
                    if rng.chance(if wide { 0.01 } else { 0.2 }) {
                        on = !on;
                    }
                    let at = [n % cx, n / cx % cy, n / (cx * cy)];
                    valid.set(lo + IntVect(at.map(|c| c as i64)), on);
                    match (on, rng.below(4)) {
                        // What an invalid cell holds is never read.
                        (false, _) => f64::NAN,
                        (true, 0) => -0.0,
                        (true, _) => rng.range_f64(-1e3, 1e3),
                    }
                })
                .collect();
            // One fab per cell plane; the node grid written over a rented
            // buffer that held other values.
            let fabs = (0..cz).map(|k| {
                let plane = Box3::new(
                    lo + IntVect::new(0, 0, k as i64),
                    dom.hi() - IntVect::new(0, 0, (cz - 1 - k) as i64),
                );
                Fab::from_fn(plane, |iv| cells[dom.offset(iv)])
            });
            let mut got = vec![f64::NAN; 5];
            average_to_nodes(&MultiFab::from_fabs(fabs.collect()), &valid, &mut got);
            let want = per_node_oracle(&cells, &valid);
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want));
        });
    }

    #[test]
    fn uniform_level_sphere_is_watertight() {
        let h = single_level_sphere(24);
        let mf = h.field_level("f", 0).unwrap();
        let mesh = extract_resampled_level(&h, mf, 0, 0.0);
        assert!(mesh.num_triangles() > 200);
        assert!(mesh.is_watertight());
        let exact = 4.0 * std::f64::consts::PI * 0.09;
        assert!((mesh.total_area() - exact).abs() / exact < 0.1);
    }

    #[test]
    fn two_level_meshes_cover_their_halves() {
        let h = two_level_sphere();
        let coarse = extract_resampled_level(&h, h.field_level("f", 0).unwrap(), 0, 0.0);
        let fine = extract_resampled_level(&h, h.field_level("f", 1).unwrap(), 1, 0.0);
        assert!(!coarse.is_empty() && !fine.is_empty());
        // Coarse only keeps the x < 0.5 hemisphere (plus one-cell tolerance).
        for v in &coarse.vertices {
            assert!(v[0] <= 0.5 + 1e-9, "coarse vertex in fine region: {v:?}");
        }
        for v in &fine.vertices {
            assert!(v[0] >= 0.5 - 1e-9, "fine vertex in coarse region: {v:?}");
        }
    }

    #[test]
    fn cracks_appear_at_level_interface() {
        let h = two_level_sphere();
        let coarse = extract_resampled_level(&h, h.field_level("f", 0).unwrap(), 0, 0.0);
        let fine = extract_resampled_level(&h, h.field_level("f", 1).unwrap(), 1, 0.0);
        // Each half-sphere has an open rim at the interface plane.
        let coarse_rim = coarse.boundary_edges();
        let fine_rim = fine.boundary_edges();
        assert!(
            !coarse_rim.is_empty(),
            "coarse surface should end at the interface"
        );
        assert!(
            !fine_rim.is_empty(),
            "fine surface should end at the interface"
        );
        // Rim vertices lie on the interface plane x = 0.5.
        for &(a, b) in &fine_rim {
            for vi in [a, b] {
                let v = fine.vertices[vi as usize];
                assert!(
                    (v[0] - 0.5).abs() < 0.5 / 16.0,
                    "rim vertex off plane: {v:?}"
                );
            }
        }
        // The crack: rims from the two levels do not coincide exactly.
        // (Quantified by crack::interface_gap; here just assert the rims
        // have different vertex sets.)
        let fine_rim_xs: Vec<[f64; 3]> = fine_rim
            .iter()
            .map(|&(a, _)| fine.vertices[a as usize])
            .collect();
        let coarse_has_match = fine_rim_xs.iter().all(|fv| {
            coarse_rim.iter().any(|&(a, _)| {
                let cv = coarse.vertices[a as usize];
                (cv[1] - fv[1]).abs() < 1e-9 && (cv[2] - fv[2]).abs() < 1e-9
            })
        });
        assert!(!coarse_has_match, "expected dangling nodes between levels");
    }

    #[test]
    fn resampling_smooths_constant_field_to_empty() {
        let h = single_level_sphere(8);
        let mf = MultiFab::from_fn(h.box_array(0), |_| 1.0);
        let mesh = extract_resampled_level(&h, &mf, 0, 0.5);
        assert!(mesh.is_empty());
    }
}
