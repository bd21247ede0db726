//! Isosurface extraction on a sampled grid: marching cubes, with the case
//! table generated at compile time from one rule per cube face.
//!
//! **The face rule.** A cube face is seen from outside the cube and its four
//! corners are walked counter-clockwise. Every step from a corner below iso
//! to one at or above it starts an iso-segment on the edge it crosses, and
//! the segment ends on the next edge the walk leaves through. That decides
//! every face from its own four signs — on the two ambiguous patterns
//! (diagonal corners inside) it cuts each inside corner off on its own — so
//! two cubes sharing a face draw the same segments on it, and the surface is
//! watertight within a level by construction: no transcribed 256-case table
//! to get wrong (see DESIGN.md substitution note).
//!
//! **Loops.** A crossed cube edge lies in two faces of the cube, which walk
//! it in opposite directions: one segment arrives at it, one leaves. The
//! segments of a cube therefore chain into closed loops, and each loop is
//! fanned into triangles from its lowest edge.
//!
//! **Winding** is a property of the walk direction, not of any normal: a
//! segment runs from where the counter-clockwise walk enters the inside to
//! where it leaves it, so every loop runs counter-clockwise as seen from the
//! lower-valued side, and so does every triangle of its fan — under any
//! finite positive spacing, which `extract` insists on, whatever the
//! values. The neighbouring cube sees a shared face from the other side and
//! walks the same segment the other way round, which is what a consistently
//! oriented surface needs of the two triangles meeting there. (A fan is not
//! a minimal surface: a loop that crosses an ambiguous face twice may lay a
//! triangle flat into it, and the neighbour then lays the same one back.)
//!
//! Every cube edge runs from a corner to the next one along an axis, so a
//! crossing is named `(lo node, axis)` and welding needs no map. Extraction
//! is count → scan → emit, the same mesh for any chunking. Count: classify
//! the crossed cubes of every layer, and mark the crossings of every node
//! plane 64 edges a word — per node row and axis, the inside flags XOR the
//! flags one node on, AND the cube-mask rows around the edge. Scan: size one
//! mesh, unwritten, and give each fixed chunk of planes its own ranges of
//! it. Emit: a chunk numbers each plane's crossings (node raster order, then
//! axis) by a running count over the set bits of its words, into a table of
//! three ids per node for two planes; interpolates them straight into the
//! mesh, one row kernel per axis; and writes each cube's triangles (cube
//! raster order), one table load per corner. The plane on top of a chunk is
//! the next one's to interpolate: the lower chunk writes its ids only.
//!
//! Cracks between AMR *levels* (the paper's Fig. 1a) are unaffected by the
//! in-cell triangulator: they come from resolution mismatch at level
//! interfaces and are reproduced faithfully by the level extractors.

use std::mem::MaybeUninit as Uninit;

use amrviz_amr::{Box3, Raster};

use crate::mesh::TriMesh;

/// A node-centered sampled scalar grid in physical space.
///
/// `dims` counts grid *nodes* per axis; cubes (cells) number `dims − 1` per
/// axis. `cell_mask` selects which cubes are triangulated (the AMR
/// extractors restrict each level to its own region with it): a raster of
/// the cube grid's shape, its row `(j, k)` the cubes' row.
/// Every component of `spacing` must be finite and strictly positive: the
/// triangle winding is tabulated for a grid that is not mirrored.
#[derive(Debug, Clone)]
pub struct SampledGrid {
    pub dims: [usize; 3],
    pub origin: [f64; 3],
    pub spacing: [f64; 3],
    pub values: Vec<f64>,
    pub cell_mask: Raster,
}

impl SampledGrid {
    /// Builds a grid that marches every cube, evaluating `f` at every node.
    /// A grid with no cubes along an axis keeps a one-cube mask there; it
    /// marches nothing.
    pub fn from_fn(
        dims: [usize; 3],
        origin: [f64; 3],
        spacing: [f64; 3],
        mut f: impl FnMut(f64, f64, f64) -> f64,
    ) -> Self {
        let [nx, ny, nz] = dims;
        let [cx, cy, cz] = dims.map(|n| n.saturating_sub(1).max(1));
        let mut grid = SampledGrid {
            dims,
            origin,
            spacing,
            values: vec![0.0; nx * ny * nz],
            cell_mask: Raster::trues(Box3::from_dims(cx, cy, cz)),
        };
        for n in 0..grid.values.len() {
            let ([x, y, z], _) = grid.node([n % nx, n / nx % ny, n / (nx * ny)], 0);
            grid.values[n] = f(x, y, z);
        }
        grid
    }

    /// Number of cubes along each axis.
    pub fn cell_dims(&self) -> [usize; 3] {
        self.dims.map(|n| n.saturating_sub(1))
    }

    /// Position and value of the node one `step` (a corner or direction
    /// code `dx + 2dy + 4dz`) away from node `(i, j, k)`.
    #[inline]
    fn node(&self, [i, j, k]: [usize; 3], step: usize) -> ([f64; 3], f64) {
        let [i, j, k] = [i + (step & 1), j + (step >> 1 & 1), k + (step >> 2)];
        let pos = [
            self.origin[0] + i as f64 * self.spacing[0],
            self.origin[1] + j as f64 * self.spacing[1],
            self.origin[2] + k as f64 * self.spacing[2],
        ];
        (pos, self.values[i + self.dims[0] * (j + self.dims[1] * k)])
    }
}

/// Interpolation parameter clamp: keeps crossing vertices strictly off grid
/// nodes so no triangle degenerates when a sample equals the iso-value.
const T_EPS: f64 = 1e-6;

/// Cube layers per unit of parallel work. A constant, so the decomposition
/// never depends on the thread count.
const CHUNK: usize = 32;

/// The edge between two adjacent cube corners (`dx + 2dy + 4dz`) as
/// `lo corner << 3 | direction`.
const fn edge(p: usize, q: usize) -> usize {
    (if p < q { p } else { q }) << 3 | (p ^ q)
}

/// Per cube inside-mask (bit `c`: corner `c` is at or above iso): how many
/// triangles the cube emits, then each as three crossed [`edge`]s, wound to
/// face lower values. Built from the face rule of the module doc: at most
/// four loops of three to seven edges, at most five triangles.
const CUBE_TRIS: [(u8, [[u8; 3]; 5]); 256] = {
    let mut out = [(0, [[0; 3]; 5]); 256];
    let mut case = 0;
    while case < 256 {
        // Per crossed edge, the edge its outgoing iso-segment ends on.
        let mut next = [0; 64];
        let mut face = 0;
        while face < 6 {
            // The face's corners counter-clockwise as seen from outside.
            let (a, s) = (face >> 1, (face & 1) << (face >> 1));
            let (u, v) = (1 << ((a + 1) % 3), 1 << ((a + 2) % 3));
            let ring = if s != 0 {
                [s, s | u, s | u | v, s | v]
            } else {
                [0, v, u | v, u]
            };
            let mut i = 0;
            while i < 4 {
                // Enter on the walk's step `i → i + 1`, leave on `j → j + 1`.
                if case >> ring[i] & 1 == 0 && case >> ring[(i + 1) % 4] & 1 == 1 {
                    let mut j = i + 1;
                    while case >> ring[(j + 1) % 4] & 1 == 1 {
                        j += 1;
                    }
                    next[edge(ring[i], ring[(i + 1) % 4])] = edge(ring[j % 4], ring[(j + 1) % 4]);
                }
                i += 1;
            }
            face += 1;
        }
        // Each loop, met at its lowest edge, as a fan from there.
        let (filled, tris) = &mut out[case];
        let mut e = 0;
        while e < 64 {
            if next[e] != 0 {
                let (mut b, mut c) = (next[e], next[next[e]]);
                while c != e {
                    tris[*filled as usize] = [e as u8, b as u8, c as u8];
                    *filled += 1;
                    (next[b], b, c) = (0, c, next[c]);
                }
                next[b] = 0;
            }
            e += 1;
        }
        case += 1;
    }
    out
};

/// The cubes of a layer that the mask marches and an iso-crossing passes
/// through, in raster order — each the in-plane index `i + nx·j` of its
/// corner-0 node and its inside-mask — and how many triangles they will
/// emit.
type Layer = (Vec<(u32, u8)>, usize);

/// [`Layer`] `k` of the grid, from the `inside` flags of its nodes. A cube
/// is crossed when its eight corners are neither all outside nor all
/// inside: per cube row that is the OR and the AND of four node rows and of
/// the same rows one node on, 64 cubes a word, visited in raster order.
fn classify(grid: &SampledGrid, inside: &Raster, k: usize) -> Layer {
    let nx = grid.dims[0];
    let [cx, cy, _] = grid.cell_dims();
    // A node row may have one word more than a cube row; the mask's bits
    // past the cube row's end are zero.
    let words = cx.div_ceil(64);
    let (mut cubes, mut triangles) = (Vec::new(), 0);
    for j in 0..cy {
        let rows =
            [(0, 0), (1, 0), (0, 1), (1, 1)].map(|(dj, dk)| inside.row_words(j + dj, k + dk));
        let mask = grid.cell_mask.row_words(j, k);
        for w in 0..words {
            // Per node row, the flags at x = i and at x = i + 1 of cube i:
            // corner bits 2r and 2r + 1.
            let on = |r: &[u64]| r[w] >> 1 | r.get(w + 1).map_or(0, |&n| n << 63);
            let corners = rows.map(|r| (r[w], on(r)));
            let (any, all) = corners.iter().fold((0, u64::MAX), |(any, all), &(a, b)| {
                (any | a | b, all & a & b)
            });
            let mut crossed = any & !all & mask[w];
            while crossed != 0 {
                let b = crossed.trailing_zeros();
                crossed &= crossed - 1;
                let case = (0..4).fold(0, |case, r| {
                    let (a, next) = corners[r];
                    case | (a >> b & 1) << (2 * r) | (next >> b & 1) << (2 * r + 1)
                }) as usize;
                let i = 64 * w + b as usize;
                let n0 = u32::try_from(i + nx * j).expect("a node plane has under 2^32 nodes");
                cubes.push((n0, case as u8));
                triangles += CUBE_TRIS[case].0 as usize;
            }
        }
    }
    (cubes, triangles)
}

/// The crossings of a node plane, 64 edges a word — per node row its x, y
/// and z words back to back, bit `i` of the axis-`d` words set when the edge
/// from node `i` one node on along `d` is crossed: its ends lie on different
/// sides and some cube the mask marches contains it, one mesh vertex each —
/// and how many crossings that makes.
type Marks = (Vec<u64>, usize);

/// [`Marks`] of node plane `q`. An edge's ends differ where its node row's
/// `inside` flags differ from the row one node on; the cubes around it are
/// the ≤ 4 in-range cube rows that contain its node row — for a y or a z
/// edge the two of them it lies between, each cube `i` and `i − 1`.
fn mark(grid: &SampledGrid, inside: &Raster, q: usize) -> Marks {
    let [nx, ny, nz] = grid.dims;
    let [_, cy, cz] = grid.cell_dims();
    let words = nx.div_ceil(64);
    let cubes = |j: usize, k: usize| match j < cy && k < cz {
        true => grid.cell_mask.row_words(j, k),
        false => &[][..],
    };
    let nodes = |j: usize, k: usize| (j < ny && k < nz).then(|| inside.row_words(j, k));
    // Past a row's end, and in a row past the grid's, every word is zero.
    let at = |row: &[u64], w: usize| row.get(w).copied().unwrap_or(0);
    let mut out = vec![0; 3 * words * ny];
    for (j, row) in out.chunks_exact_mut(3 * words).enumerate() {
        let (jm, qm) = (j.wrapping_sub(1), q.wrapping_sub(1));
        let around = [cubes(jm, qm), cubes(jm, q), cubes(j, qm), cubes(j, q)];
        let (here, on_y, on_z) = (inside.row_words(j, q), nodes(j + 1, q), nodes(j, q + 1));
        let (on_y, on_z) = (on_y.unwrap_or_default(), on_z.unwrap_or_default());
        let (mut last_y, mut last_z) = (0, 0);
        for w in 0..words {
            let [a, b, c, d] = around.map(|r| at(r, w));
            let (y, z, h) = (c | d, b | d, here[w]);
            row[w] = (h ^ (h >> 1 | at(here, w + 1) << 63)) & (a | b | c | d);
            row[words + w] = (h ^ at(on_y, w)) & (y | y << 1 | last_y >> 63);
            row[2 * words + w] = (h ^ at(on_z, w)) & (z | z << 1 | last_z >> 63);
            (last_y, last_z) = (y, z);
        }
    }
    let crossings = out.iter().map(|w| w.count_ones() as usize).sum();
    (out, crossings)
}

/// A mesh vertex not yet written.
type Vertex = Uninit<[f64; 3]>;

/// The counted grid, emitted a chunk of node planes at a time.
struct Emitter<'a> {
    grid: &'a SampledGrid,
    iso: f64,
    /// [`classify`] of every cube layer, and an empty one above the top plane.
    layers: Vec<Layer>,
    /// [`mark`] of every node plane.
    marks: Vec<Marks>,
    /// Per layer parity and [`edge`] code: where the edge's vertex id sits in
    /// the id table, counted from the entry of the cube's corner-0 node.
    corner: [[usize; 64]; 2],
}

impl Emitter<'_> {
    /// Numbers plane `q`'s crossings from `base` on, in node raster order and
    /// then direction, into `ids` — the plane's slot of the id table, entry
    /// `3n + d` for node `n` and axis `d`, written for every node with a
    /// crossing and read only for its crossed axes. Given `verts`, the
    /// plane's range of the mesh, it interpolates them into it too.
    fn number(&self, q: usize, base: u32, ids: &mut [u32], verts: Option<&mut [Vertex]>) -> usize {
        let g = self.grid;
        let nx = g.dims[0];
        let words = nx.div_ceil(64);
        let (mut id, mut wrote, mut verts) = (base, 0, verts);
        for (j, row) in self.marks[q].0.chunks_exact(3 * words).enumerate() {
            for w in 0..words {
                // A crossed node's ids are its crossed axes' in turn.
                let axes = [row[w], row[words + w], row[2 * words + w]];
                let mut nodes = axes[0] | axes[1] | axes[2];
                while nodes != 0 {
                    let b = nodes.trailing_zeros();
                    nodes &= nodes - 1;
                    let [x, y, z] = axes.map(|a| (a >> b & 1) as u32);
                    let n = 3 * (64 * w + b as usize + nx * j);
                    ids[n..n + 3].copy_from_slice(&[id, id + x, id + x + y]);
                    id += x + y + z;
                }
                let Some(verts) = verts.as_deref_mut() else {
                    continue;
                };
                // Then one row kernel per axis over its crossing bits.
                for (d, mut left) in axes.into_iter().enumerate() {
                    while left != 0 {
                        let i = 64 * w + left.trailing_zeros() as usize;
                        left &= left - 1;
                        // Always interpolated lo node → hi node, so every
                        // cube around the edge sees the same bits.
                        let ((p, va), (r, vb)) = (g.node([i, j, q], 0), g.node([i, j, q], 1 << d));
                        let t = ((self.iso - va) / (vb - va)).clamp(T_EPS, 1.0 - T_EPS);
                        let v = ids[3 * (i + nx * j) + d] - base;
                        verts[v as usize].write(std::array::from_fn(|a| p[a] + t * (r[a] - p[a])));
                        wrote += 1;
                    }
                }
            }
        }
        wrote
    }

    /// Triangulates layer `k` into `tris` from the id table holding its two
    /// node planes; returns how many triangles it wrote.
    fn triangulate(&self, k: usize, ids: &[u32], tris: &mut [Uninit<[u32; 3]>]) -> usize {
        let corner = &self.corner[k % 2];
        let mut written = 0;
        for &(n0, case) in &self.layers[k].0 {
            let at = 3 * n0 as usize;
            let (count, list) = &CUBE_TRIS[case as usize];
            let count = *count as usize;
            // All five where they fit, so that no branch waits on the count:
            // the slots past it are written over by the cubes after.
            let end = written + if written + 5 <= tris.len() { 5 } else { count };
            for (out, tri) in tris[written..end].iter_mut().zip(list) {
                out.write(tri.map(|e| ids[at + corner[e as usize]]));
            }
            written += count;
        }
        written
    }
}

/// Total crossings over all planes. Mesh indices are `u32`, and the scan
/// knows the total before anything is written: checked once, here.
fn vertex_total(crossings: &[usize], dims: [usize; 3]) -> usize {
    let total: usize = crossings.iter().sum();
    let fits = total <= u32::MAX as usize;
    assert!(fits, "{total} vertices of the {dims:?} grid exceed u32");
    total
}

/// Extracts the isosurface `value == iso` from a sampled grid, in parallel;
/// the mesh is bit-identical at any thread count.
pub fn marching_cubes(grid: &SampledGrid, iso: f64) -> TriMesh {
    let mesh = extract(grid, iso, CHUNK);
    amrviz_obs::counter!("viz.triangles", mesh.num_triangles());
    mesh
}

fn extract(grid: &SampledGrid, iso: f64, chunk: usize) -> TriMesh {
    let [cx, cy, cz] = grid.cell_dims();
    if cx == 0 || cy == 0 || cz == 0 {
        return TriMesh::new();
    }
    let size = grid.cell_mask.region().size();
    assert_eq!(size, [cx, cy, cz], "cell mask size mismatch");
    let spacing = grid.spacing;
    let upright = spacing.iter().all(|&h| h > 0.0 && h.is_finite());
    assert!(upright, "spacing {spacing:?} is not finite and positive");
    // Count: each node's side of the iso-value, one compare and one bit a
    // node; each layer's crossed cubes; then each node plane's crossings.
    let count = amrviz_obs::span!("march.count");
    let [nx, ny, nz] = grid.dims;
    let inside = Raster::from_rows(Box3::from_dims(nx, ny, nz), |j, k, words| {
        let row = &grid.values[nx * (j + ny * k)..][..nx];
        for (word, values) in words.iter_mut().zip(row.chunks(64)) {
            *word = (values.iter().enumerate()).fold(0, |w, (b, &v)| w | ((v >= iso) as u64) << b);
        }
    });
    let mut layers = amrviz_par::run(cz, |k| classify(grid, &inside, k));
    layers.push((Vec::new(), 0));
    let marks = amrviz_par::run(cz + 1, |q| mark(grid, &inside, q));
    let plane = 3 * nx * ny;
    let corner = [0, 1].map(|parity| {
        std::array::from_fn(|e| {
            let (c, d) = (e >> 3, (e & 7) >> 1);
            (parity ^ c >> 2) * plane + 3 * ((c & 1) + nx * (c >> 1 & 1)) + d
        })
    });
    let m = Emitter {
        grid,
        iso,
        layers,
        marks,
        corner,
    };

    // Scan: size the output once, unwritten, and give every chunk of planes,
    // with the layer above each, its own ranges of it.
    let crossings: Vec<usize> = m.marks.iter().map(|m| m.1).collect();
    let nv = vertex_total(&crossings, grid.dims);
    let nt = m.layers.iter().map(|l| l.1).sum();
    let mut mesh = TriMesh {
        vertices: Vec::with_capacity(nv),
        triangles: Vec::with_capacity(nt),
    };
    let mut verts = &mut mesh.vertices.spare_capacity_mut()[..nv];
    let mut tris = &mut mesh.triangles.spare_capacity_mut()[..nt];
    let (mut parts, mut first) = (Vec::new(), 0);
    for (v, l) in crossings.chunks(chunk).zip(m.layers.chunks(chunk)) {
        let (nv, nt) = (v.iter().sum(), l.iter().map(|l| l.1).sum());
        let (v, t);
        (v, verts) = std::mem::take(&mut verts).split_at_mut(nv);
        (t, tris) = std::mem::take(&mut tris).split_at_mut(nt);
        parts.push((first as u32, v, t));
        first += nv;
    }
    count.finish();

    // Emit: every chunk writes the vertices of its node planes and the
    // triangles of the cube layer above each, keeping the ids of two planes.
    let _emit = amrviz_obs::span!("march.emit");
    amrviz_par::for_each_part(parts, |c, (first, verts, tris)| {
        let own = c * chunk..(cz + 1).min((c + 1) * chunk);
        let mut ids = amrviz_par::scratch::take_u32();
        ids.resize(2 * plane, 0);
        let (mut nv, mut nt, mut wrote) = (0, 0, 0);
        // The chunk's planes take their vertex ranges in turn. Its last layer
        // needs the ids of the plane above it too, which the next chunk owns
        // and interpolates: here they are only written, from the same base.
        for q in own.start..=own.end.min(cz) {
            let (base, nq) = (first + nv as u32, crossings[q]);
            let range = own.contains(&q).then(|| {
                nv += nq;
                &mut verts[nv - nq..nv]
            });
            wrote += m.number(q, base, &mut ids[q % 2 * plane..][..plane], range);
            if q > own.start {
                nt += m.triangulate(q - 1, &ids, &mut tris[nt..]);
            }
        }
        amrviz_par::scratch::give_u32(ids);
        assert_eq!((wrote, nt), (verts.len(), tris.len()), "count ≠ emit");
    });
    // SAFETY: `for_each_part` has returned, so every chunk has passed its
    // `count ≠ emit` assert. So it wrote as many vertices as its range of
    // `vertices` holds, each at its own rank among its plane's crossings,
    // and its triangles one after another up to the end of its range of
    // `triangles` (a slot written past a cube's count is written again by
    // the cubes after it). The first `nv` and `nt` elements are initialized.
    unsafe {
        mesh.vertices.set_len(nv);
        mesh.triangles.set_len(nt);
    }
    mesh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface_compare::{surface_distance_to, TriLocator};
    use amrviz_amr::IntVect;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    /// A cube mask holding `keep(cube)` per cube, asked in raster order.
    fn cube_mask(grid: &SampledGrid, mut keep: impl FnMut([usize; 3]) -> bool) -> Raster {
        let [cx, cy, cz] = grid.cell_dims();
        let mut mask = Raster::falses(Box3::from_dims(cx, cy, cz));
        for n in 0..cx * cy * cz {
            let cube = [n % cx, n / cx % cy, n / (cx * cy)];
            mask.set(IntVect(cube.map(|c| c as i64)), keep(cube));
        }
        mask
    }

    /// The six Kuhn tetrahedra of a cube, as corner indices (`dx + 2dy +
    /// 4dz`), all around the main diagonal 0–7: the triangulator this module
    /// marched before the cube table, kept as the [`reference`]'s.
    const TETS: [[usize; 4]; 6] = [
        [0, 1, 3, 7],
        [0, 1, 5, 7],
        [0, 2, 3, 7],
        [0, 2, 6, 7],
        [0, 4, 5, 7],
        [0, 4, 6, 7],
    ];

    fn sphere_grid(n: usize, r: f64) -> SampledGrid {
        // Field = r − |x − c|: positive inside the ball.
        let c = [0.5, 0.5, 0.5];
        SampledGrid::from_fn([n, n, n], [0.0; 3], [1.0 / (n - 1) as f64; 3], |x, y, z| {
            r - ((x - c[0]).powi(2) + (y - c[1]).powi(2) + (z - c[2]).powi(2)).sqrt()
        })
    }

    #[test]
    fn sphere_is_watertight_with_correct_area() {
        let grid = sphere_grid(33, 0.3);
        let mesh = marching_cubes(&grid, 0.0);
        assert!(mesh.num_triangles() > 500);
        assert!(
            mesh.is_watertight(),
            "open edges: {}",
            mesh.boundary_edges().len()
        );
        let area = mesh.total_area();
        let exact = 4.0 * std::f64::consts::PI * 0.3 * 0.3;
        assert!(
            (area - exact).abs() / exact < 0.05,
            "area {area:.4} vs exact {exact:.4}"
        );
    }

    #[test]
    fn sphere_normals_point_outward() {
        let grid = sphere_grid(17, 0.3);
        let mesh = marching_cubes(&grid, 0.0);
        for t in 0..mesh.num_triangles() {
            let n = mesh.face_normal(t);
            let c = mesh.face_centroid(t);
            let radial = [c[0] - 0.5, c[1] - 0.5, c[2] - 0.5];
            let dot = n[0] * radial[0] + n[1] * radial[1] + n[2] * radial[2];
            assert!(dot > 0.0, "inward normal at triangle {t}");
        }
    }

    #[test]
    fn sphere_vertices_lie_near_radius() {
        let grid = sphere_grid(33, 0.3);
        let mesh = marching_cubes(&grid, 0.0);
        let h = 1.0 / 32.0;
        for v in &mesh.vertices {
            let r = ((v[0] - 0.5).powi(2) + (v[1] - 0.5).powi(2) + (v[2] - 0.5).powi(2)).sqrt();
            assert!((r - 0.3).abs() < h, "vertex off surface: r = {r}");
        }
    }

    #[test]
    fn plane_isosurface_is_flat() {
        let grid = SampledGrid::from_fn([9, 9, 9], [0.0; 3], [0.125; 3], |x, _, _| x);
        let mesh = marching_cubes(&grid, 0.5);
        assert!(!mesh.is_empty());
        for v in &mesh.vertices {
            assert!((v[0] - 0.5).abs() < 1e-5, "vertex off plane: {v:?}");
        }
        // The plane cuts the whole unit cross-section.
        assert!((mesh.total_area() - 1.0).abs() < 1e-4);
        // Boundary = the square outline (length 4).
        assert!((mesh.boundary_length() - 4.0).abs() < 1e-4);
    }

    #[test]
    fn empty_when_no_crossing() {
        let grid = SampledGrid::from_fn([5, 5, 5], [0.0; 3], [0.25; 3], |_, _, _| 1.0);
        assert!(marching_cubes(&grid, 2.0).is_empty());
        assert!(marching_cubes(&grid, 0.0).is_empty());
    }

    #[test]
    fn cell_mask_restricts_output() {
        let mut grid = SampledGrid::from_fn([9, 9, 9], [0.0; 3], [0.125; 3], |x, _, _| x);
        // Only march the k < 4 half.
        grid.cell_mask = cube_mask(&grid, |[_, _, k]| k < 4);
        let mesh = marching_cubes(&grid, 0.5);
        assert!(!mesh.is_empty());
        for v in &mesh.vertices {
            assert!(v[2] <= 0.5 + 1e-9, "vertex escaped mask: {v:?}");
        }
        // Half the plane → half the area.
        assert!((mesh.total_area() - 0.5).abs() < 1e-4);
    }

    #[test]
    fn values_equal_to_iso_do_not_degenerate() {
        // Many nodes exactly on the iso-value.
        let grid = SampledGrid::from_fn([7, 7, 7], [0.0; 3], [1.0; 3], |x, y, z| {
            ((x + y + z) as i64 % 2) as f64
        });
        let mesh = marching_cubes(&grid, 0.5);
        for t in 0..mesh.num_triangles() {
            assert!(mesh.face_area(t) > 0.0, "degenerate triangle {t}");
        }
    }

    #[test]
    fn degenerate_grid_dims() {
        let grid = SampledGrid::from_fn([1, 5, 5], [0.0; 3], [1.0; 3], |_, _, _| 1.0);
        assert!(marching_cubes(&grid, 0.5).is_empty());
    }

    #[test]
    fn parallel_slab_path_is_watertight_and_seamless() {
        // 80 nodes → 79 cube layers, three chunks. A crossing on a chunk's
        // top plane is numbered by the chunk above; any disagreement between
        // the two would show up as open edges or duplicated vertices.
        let grid = sphere_grid(80, 0.35);
        let mesh = marching_cubes(&grid, 0.0);
        assert!(mesh.num_triangles() > 10_000);
        assert!(
            mesh.is_watertight(),
            "open edges across chunk boundaries: {}",
            mesh.boundary_edges().len()
        );
        let exact = 4.0 * std::f64::consts::PI * 0.35 * 0.35;
        assert!((mesh.total_area() - exact).abs() / exact < 0.02);
        // Chunking independence: one chunk, one layer per chunk, chunk sizes
        // that do and do not divide the layer count — the very same buffers.
        for chunk in [1, 7, 79, 80, 1000] {
            assert_eq!(extract(&grid, 0.0, chunk), mesh, "chunk = {chunk}");
        }
        // No duplicated vertices anywhere: every position is distinct to the
        // bit.
        let mut positions: Vec<[u64; 3]> =
            mesh.vertices.iter().map(|v| v.map(f64::to_bits)).collect();
        positions.sort_unstable();
        positions.dedup();
        assert_eq!(
            positions.len(),
            mesh.num_vertices(),
            "duplicate vertices in the output"
        );
    }

    #[test]
    fn vertex_total_is_checked_against_u32_once() {
        let max = u32::MAX as usize;
        assert_eq!(vertex_total(&[max - 5, 0, 5], [3, 4, 5]), max);
    }

    #[test]
    #[should_panic(expected = "4294967296 vertices of the [3, 4, 5] grid exceed u32")]
    fn vertex_total_refuses_what_u32_indices_cannot_address() {
        // A faked per-plane count: no grid that large fits in memory here.
        vertex_total(&[u32::MAX as usize, 1], [3, 4, 5]);
    }

    /// A deliberately naive marching-tetrahedra extractor: every unmasked cube
    /// and every tetrahedron on its own, heap-allocated case analysis, three
    /// fresh vertices per triangle, each wound against the tetrahedron's
    /// gradient — a triangle soup, welded afterwards by position bits. Shares
    /// only `T_EPS` with the real one.
    fn reference(grid: &SampledGrid, iso: f64) -> TriMesh {
        type Corner = (usize, [f64; 3], f64);
        let [nx, ny, _] = grid.dims;
        let [cx, cy, cz] = grid.cell_dims();
        let cut = |a: Corner, b: Corner| -> [f64; 3] {
            // Interpolate from the lower node id to the higher.
            let (p, q) = if a.0 < b.0 { (a, b) } else { (b, a) };
            let t = ((iso - p.2) / (q.2 - p.2)).clamp(T_EPS, 1.0 - T_EPS);
            [
                p.1[0] + t * (q.1[0] - p.1[0]),
                p.1[1] + t * (q.1[1] - p.1[1]),
                p.1[2] + t * (q.1[2] - p.1[2]),
            ]
        };
        let gradient = |tc: &[Corner; 4]| -> [f64; 3] {
            // Cramer's rule on rows (corner_r − corner_0)·g = value_r − value_0.
            let (p0, v0) = (tc[0].1, tc[0].2);
            let row = |r: usize| [tc[r].1[0] - p0[0], tc[r].1[1] - p0[1], tc[r].1[2] - p0[2]];
            let (m, dv) = (
                [row(1), row(2), row(3)],
                [tc[1].2 - v0, tc[2].2 - v0, tc[3].2 - v0],
            );
            let det = |m: &[[f64; 3]; 3]| -> f64 {
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                    - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                    + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            };
            let d = det(&m);
            if d == 0.0 {
                return [0.0; 3];
            }
            let component = |a: usize| {
                let mut ma = m;
                (ma[0][a], ma[1][a], ma[2][a]) = (dv[0], dv[1], dv[2]);
                det(&ma) / d
            };
            [component(0), component(1), component(2)]
        };
        let mut soup: Vec<[[f64; 3]; 3]> = Vec::new();
        for (k, j, i) in
            (0..cz).flat_map(|k| (0..cy).flat_map(move |j| (0..cx).map(move |i| (k, j, i))))
        {
            if !grid
                .cell_mask
                .get(IntVect::new(i as i64, j as i64, k as i64))
            {
                continue;
            }
            for tet in &TETS {
                let tc: [Corner; 4] = tet.map(|c| {
                    let (gi, gj, gk) = (i + (c & 1), j + (c >> 1 & 1), k + (c >> 2));
                    let id = gi + nx * (gj + ny * gk);
                    let pos = [
                        grid.origin[0] + gi as f64 * grid.spacing[0],
                        grid.origin[1] + gj as f64 * grid.spacing[1],
                        grid.origin[2] + gk as f64 * grid.spacing[2],
                    ];
                    (id, pos, grid.values[id])
                });
                let inside: Vec<usize> = (0..4).filter(|&c| tc[c].2 >= iso).collect();
                let outside: Vec<usize> = (0..4).filter(|c| !inside.contains(c)).collect();
                let tris = match inside.len() {
                    1 | 3 => {
                        let (lone, rest) = if inside.len() == 1 {
                            (inside[0], &outside)
                        } else {
                            (outside[0], &inside)
                        };
                        vec![[
                            cut(tc[lone], tc[rest[0]]),
                            cut(tc[lone], tc[rest[1]]),
                            cut(tc[lone], tc[rest[2]]),
                        ]]
                    }
                    2 => {
                        let (a, b, c, d) =
                            (tc[inside[0]], tc[inside[1]], tc[outside[0]], tc[outside[1]]);
                        let (ac, ad, bd, bc) = (cut(a, c), cut(a, d), cut(b, d), cut(b, c));
                        vec![[ac, ad, bd], [ac, bd, bc]]
                    }
                    _ => vec![],
                };
                let grad = gradient(&tc);
                for [p, q, r] in tris {
                    let u = [q[0] - p[0], q[1] - p[1], q[2] - p[2]];
                    let v = [r[0] - p[0], r[1] - p[1], r[2] - p[2]];
                    let n = [
                        u[1] * v[2] - u[2] * v[1],
                        u[2] * v[0] - u[0] * v[2],
                        u[0] * v[1] - u[1] * v[0],
                    ];
                    let dot = n[0] * grad[0] + n[1] * grad[1] + n[2] * grad[2];
                    soup.push(if dot > 0.0 { [p, r, q] } else { [p, q, r] });
                }
            }
        }
        let mut mesh = TriMesh::new();
        let mut welded: HashMap<[u64; 3], u32> = HashMap::new();
        for tri in soup {
            mesh.triangles.push(tri.map(|p| {
                *welded.entry(p.map(f64::to_bits)).or_insert_with(|| {
                    mesh.vertices.push(p);
                    mesh.vertices.len() as u32 - 1
                })
            }));
        }
        mesh
    }

    /// The crossed axis edges of the grid's unmasked cubes, `(lo node, axis)`,
    /// keyed by the position bits of the one vertex each must get:
    /// interpolated lo node → hi node and clamped off both.
    fn crossings(grid: &SampledGrid, iso: f64) -> HashMap<[u64; 3], ([usize; 3], usize)> {
        let [cx, cy, cz] = grid.cell_dims();
        let mut out = HashMap::new();
        for (n, (corner, axis)) in
            (0..cx * cy * cz).flat_map(|n| (0..24).map(move |e| (n, (e / 3, e % 3))))
        {
            let cube = [n % cx, n / cx % cy, n / (cx * cy)];
            if corner >> axis & 1 == 1 || !grid.cell_mask.get(IntVect(cube.map(|c| c as i64))) {
                continue;
            }
            let lo: [usize; 3] = std::array::from_fn(|a| cube[a] + (corner >> a & 1));
            let ((p, va), (r, vb)) = (grid.node(lo, 0), grid.node(lo, 1 << axis));
            if (va >= iso) != (vb >= iso) {
                let t = ((iso - va) / (vb - va)).clamp(T_EPS, 1.0 - T_EPS);
                let at: [f64; 3] = std::array::from_fn(|a| p[a] + t * (r[a] - p[a]));
                out.insert(at.map(f64::to_bits), (lo, axis));
            }
        }
        out
    }

    /// Checks the vertices — one per [`crossings`] entry and nothing else —
    /// and returns the grid edge of each.
    fn edges_of_vertices(grid: &SampledGrid, iso: f64, mesh: &TriMesh) -> Vec<([usize; 3], usize)> {
        let want = crossings(grid, iso);
        let edges: Vec<_> = mesh
            .vertices
            .iter()
            .map(|v| {
                *want
                    .get(&v.map(f64::to_bits))
                    .expect("a vertex off every crossed axis edge")
            })
            .collect();
        let distinct: BTreeSet<_> = edges.iter().collect();
        assert_eq!(distinct.len(), edges.len(), "a crossing has two vertices");
        assert_eq!(edges.len(), want.len(), "a crossing has no vertex");
        edges
    }

    /// The mesh's edges that triangles do not run along exactly once each
    /// way: the open ones (once, one way) and the doubled ones (twice each
    /// way), as vertex pairs. Anything else is a winding disagreement.
    fn open_and_doubled_edges(mesh: &TriMesh) -> [Vec<(u32, u32)>; 2] {
        let mut runs: BTreeMap<(u32, u32), [usize; 2]> = BTreeMap::new();
        for t in &mesh.triangles {
            for e in 0..3 {
                let (a, b) = (t[e], t[(e + 1) % 3]);
                runs.entry((a.min(b), a.max(b))).or_default()[(a > b) as usize] += 1;
            }
        }
        let (mut open, mut doubled) = (Vec::new(), Vec::new());
        for (edge, run) in runs {
            match run {
                [1, 1] => {}
                [1, 0] | [0, 1] => open.push(edge),
                [2, 2] => doubled.push(edge),
                _ => panic!("edge {edge:?} is run along {run:?} times there and back"),
            }
        }
        [open, doubled]
    }

    /// Whether the face of cube `lo` towards lower `axis` has two diagonal
    /// corners inside and two outside.
    fn ambiguous(grid: &SampledGrid, iso: f64, lo: [usize; 3], axis: usize) -> bool {
        let inside = |du: usize, dv: usize| {
            let mut node = lo;
            node[(axis + 1) % 3] += du;
            node[(axis + 2) % 3] += dv;
            grid.node(node, 0).1 >= iso
        };
        inside(0, 0) == inside(1, 1) && inside(1, 0) == inside(0, 1) && inside(0, 0) != inside(1, 0)
    }

    /// What any extraction must be: a vertex on every crossed axis edge of an
    /// unmasked cube and none elsewhere; every edge run along once each way
    /// — or twice, where the fans of two cubes both cross their shared
    /// ambiguous face — or open, in a cube face with an unmarched cube
    /// (masked, or outside the grid) on exactly one side; and the same mesh
    /// whatever the chunking.
    fn assert_well_formed(grid: &SampledGrid, iso: f64) -> TriMesh {
        let mesh = marching_cubes(grid, iso);
        for chunk in [1, 5, CHUNK + 1, 1000] {
            assert_eq!(extract(grid, iso, chunk), mesh, "chunk = {chunk}");
        }
        let edges = edges_of_vertices(grid, iso, &mesh);
        let cd = grid.cell_dims();
        let marched = |cube: [usize; 3]| {
            (0..3).all(|a| cube[a] < cd[a]) && grid.cell_mask.get(IntVect(cube.map(|c| c as i64)))
        };
        // The cube face both grid edges of a mesh edge lie in — the axis all
        // four end nodes agree on, at the least of the nodes — as the cubes
        // below and above it.
        let face = |(a, b): (u32, u32)| {
            let ends = [edges[a as usize], edges[b as usize]].map(|(lo, axis)| {
                let mut hi = lo;
                hi[axis] += 1;
                [lo, hi]
            });
            let nodes = ends.as_flattened();
            let mut across = (0..3).filter(|&c| nodes.iter().all(|n| n[c] == nodes[0][c]));
            let axis = across.next().expect("the edge lies in a cube face");
            assert_eq!(across.next(), None, "two grid edges in line");
            let above: [usize; 3] =
                std::array::from_fn(|c| nodes.iter().map(|n| n[c]).min().unwrap());
            let mut below = above;
            below[axis] = below[axis].wrapping_sub(1);
            (below, above, axis)
        };
        let [open, doubled] = open_and_doubled_edges(&mesh);
        for edge in open {
            let (below, above, _) = face(edge);
            assert!(
                marched(above) != marched(below),
                "open edge in the face between cubes {below:?} and {above:?}"
            );
        }
        for edge in doubled {
            let (below, above, axis) = face(edge);
            assert!(
                marched(above) && marched(below) && ambiguous(grid, iso, above, axis),
                "doubled edge in the face between cubes {below:?} and {above:?}"
            );
        }
        mesh
    }

    #[test]
    fn random_masked_grids_are_welded_closed_and_chunk_invariant() {
        // Layer counts around the chunk size: under one chunk, exactly one,
        // one layer into the second, and into the third and fourth. Node rows
        // of a few nodes, and around one and two words of inside flags: the
        // corner one node on comes from the next word for the last cube of
        // a word, and a row of 65 nodes has a word with one node and no cube.
        let widths = [None, Some(63), Some(64), Some(65), Some(130)];
        for (cz, width) in [1, 31, 32, 33, 65, 97]
            .into_iter()
            .flat_map(|cz| widths.map(|w| (cz, w)))
        {
            amrviz_rng::check(
                0x7e7 + cz as u64 + width.map_or(0, |w| w << 8) as u64,
                6,
                |rng| {
                    let nx = width.unwrap_or_else(|| rng.range_usize(2, 5));
                    let dims = [nx, rng.range_usize(2, 5), cz + 1];
                    let iso = 0.5;
                    let mut grid = SampledGrid::from_fn(
                        dims,
                        [-1.0, 0.0, 2.0],
                        [0.5, 0.25, 0.125],
                        |_, _, _| {
                            // A third of the samples sit exactly on the iso-value.
                            match rng.below(3) {
                                0 => iso,
                                _ => rng.range_f64(-1.0, 2.0),
                            }
                        },
                    );
                    if rng.chance(0.7) {
                        grid.cell_mask = cube_mask(&grid, |_| rng.chance(0.6));
                    }
                    assert_well_formed(&grid, iso);
                },
            );
        }
    }

    /// The iso-segments of every cube face, as unordered pairs of edge
    /// codes, decided from the face's four signs by cases — one, three, two
    /// adjacent or two diagonal corners inside — with no walk and no table.
    fn face_segments(case: usize) -> BTreeSet<[u8; 2]> {
        let mut segments = BTreeSet::new();
        for (a, side) in (0..3).flat_map(|a| [(a, 0), (a, 1)]) {
            let (u, v) = ((a + 1) % 3, (a + 2) % 3);
            let corner = |i: usize, j: usize| side << a | i << u | j << v;
            let inside = |i: usize, j: usize| case >> corner(i, j) & 1 == 1;
            let code = |p: usize, q: usize| edge(p, q) as u8;
            let mut segment = |mut s: [u8; 2]| {
                s.sort_unstable();
                segments.insert(s);
            };
            // Cutting a corner off joins its two face edges.
            let cut = |i: usize, j: usize| {
                let c = corner(i, j);
                [code(c, corner(1 - i, j)), code(c, corner(i, 1 - j))]
            };
            let all = [(0, 0), (1, 0), (1, 1), (0, 1)];
            let lone = |is_in: bool| all.into_iter().find(|&(i, j)| inside(i, j) == is_in);
            match all.iter().filter(|&&(i, j)| inside(i, j)).count() {
                1 => segment(lone(true).map(|(i, j)| cut(i, j)).unwrap()),
                3 => segment(lone(false).map(|(i, j)| cut(i, j)).unwrap()),
                // Diagonal: each inside corner on its own.
                2 if inside(0, 0) == inside(1, 1) => {
                    let i = inside(0, 0) as usize;
                    segment(cut(1 - i, 0));
                    segment(cut(i, 1));
                }
                // Adjacent: straight across, between the two split edges.
                2 if inside(0, 0) == inside(1, 0) => segment([
                    code(corner(0, 0), corner(0, 1)),
                    code(corner(1, 0), corner(1, 1)),
                ]),
                2 => segment([
                    code(corner(0, 0), corner(1, 0)),
                    code(corner(0, 1), corner(1, 1)),
                ]),
                _ => {}
            }
        }
        segments
    }

    #[test]
    fn every_case_on_an_anisotropic_cube_draws_the_face_segments() {
        // The construction, proved per case: the patch's rim is exactly what
        // each face's own four signs dictate, so two cubes sharing a face
        // cannot disagree. Excesses down to 1e-9 clamp crossings at both
        // `T_EPS` ends; the second kind of draw puts inside corners exactly
        // on the iso-value.
        let iso = 0.5;
        let mut histogram = [0; 6];
        for (case, &(count, _)) in CUBE_TRIS.iter().enumerate() {
            histogram[count as usize] += 1;
            amrviz_rng::check(0xca5e + case as u64, 40, |rng| {
                let on_iso = rng.chance(0.5);
                let mut corner = 0;
                let grid = SampledGrid::from_fn(
                    [2; 3],
                    [-1.0, 0.0, 2.0],
                    [0.5, 0.25, 0.125],
                    |_, _, _| {
                        let inside = case >> corner & 1 == 1;
                        corner += 1;
                        let excess = 10f64.powf(rng.range_f64(-9.0, 0.0));
                        match inside {
                            true if on_iso && rng.chance(0.5) => iso,
                            true => iso + excess,
                            false => iso - excess,
                        }
                    },
                );
                let mesh = marching_cubes(&grid, iso);
                assert_eq!(mesh.num_triangles(), count as usize);
                // Vertex → edge code; every crossed edge has its vertex.
                let codes: Vec<u8> = edges_of_vertices(&grid, iso, &mesh)
                    .iter()
                    .map(|&([i, j, k], axis)| ((i + 2 * j + 4 * k) << 3 | 1 << axis) as u8)
                    .collect();
                let used: BTreeSet<u32> = mesh.triangles.iter().flatten().copied().collect();
                assert_eq!(used.len(), codes.len(), "a crossed edge is in no triangle");
                // Inside the patch edges pair up in opposite directions; what
                // is left over is the rim.
                let [open, doubled] = open_and_doubled_edges(&mesh);
                assert_eq!(doubled, [], "one cube runs along an edge twice");
                let rim: BTreeSet<[u8; 2]> = open
                    .iter()
                    .map(|&(a, b)| {
                        let mut s = [codes[a as usize], codes[b as usize]];
                        s.sort_unstable();
                        s
                    })
                    .collect();
                assert_eq!(rim, face_segments(case), "case {case:#010b}");
                // Each loop is fanned from its lowest edge: the least code
                // the rim connects the apex to is the apex itself.
                let mut lowest: BTreeMap<u8, u8> = codes.iter().map(|&c| (c, c)).collect();
                for _ in 0..rim.len() {
                    for s in &rim {
                        let least = lowest[&s[0]].min(lowest[&s[1]]);
                        lowest.extend(s.map(|code| (code, least)));
                    }
                }
                for t in &mesh.triangles {
                    let apex = codes[t[0] as usize];
                    assert_eq!(lowest[&apex], apex, "fan apex of {t:?}");
                }
            });
        }
        assert_eq!(histogram, [2, 16, 50, 80, 76, 32], "triangles per case");
    }

    #[test]
    fn every_case_closes_into_an_outward_wound_surface() {
        // Winding, decided globally rather than per triangle (the fan of a
        // non-planar loop may fold): the mask set into the middle cube of a
        // 4³-node grid otherwise below iso bounds a region, so the mesh is
        // closed, every edge is run along once each way, and the enclosed
        // volume is positive when the triangles face the lower values.
        let iso = 0.5;
        for case in 1..=255usize {
            amrviz_rng::check(0xc105ed + case as u64, 20, |rng| {
                let mut node = 0;
                let grid = SampledGrid::from_fn(
                    [4; 3],
                    [-1.0, 0.0, 2.0],
                    [0.5, 0.25, 0.125],
                    |_, _, _| {
                        let at = [node % 4, node / 4 % 4, node / 16];
                        node += 1;
                        let excess = rng.range_f64(0.05, 1.0);
                        let middle = at.iter().all(|&c| c == 1 || c == 2);
                        let corner = (at[0] - 1) + 2 * (at[1] - 1) + 4 * (at[2] - 1);
                        match middle && case >> corner & 1 == 1 {
                            true => iso + excess,
                            false => iso - excess,
                        }
                    },
                );
                let mesh = assert_well_formed(&grid, iso);
                let [open, doubled] = open_and_doubled_edges(&mesh);
                assert!(open.is_empty() && doubled.is_empty(), "case {case:#010b}");
                let o = mesh.vertices[0];
                let volume: f64 = mesh
                    .triangles
                    .iter()
                    .map(|t| {
                        let [a, b, c] = t.map(|v| {
                            let p = mesh.vertices[v as usize];
                            [p[0] - o[0], p[1] - o[1], p[2] - o[2]]
                        });
                        a[0] * (b[1] * c[2] - b[2] * c[1])
                            + a[1] * (b[2] * c[0] - b[0] * c[2])
                            + a[2] * (b[0] * c[1] - b[1] * c[0])
                    })
                    .sum::<f64>()
                    / 6.0;
                assert!(volume > 1e-6, "case {case:#010b} encloses {volume:e}");
            });
        }
    }

    /// Per connected component of the mesh, its Euler characteristic
    /// `V − E + F`, sorted.
    fn euler_characteristics(mesh: &TriMesh) -> Vec<i64> {
        let mut root: Vec<usize> = (0..mesh.num_vertices()).collect();
        fn find(root: &mut [usize], mut v: usize) -> usize {
            while root[v] != v {
                root[v] = root[root[v]];
                v = root[v];
            }
            v
        }
        for t in &mesh.triangles {
            for e in 1..3 {
                let (a, b) = (
                    find(&mut root, t[0] as usize),
                    find(&mut root, t[e] as usize),
                );
                root[a] = b;
            }
        }
        let mut chi: HashMap<usize, i64> = HashMap::new();
        for v in 0..mesh.num_vertices() {
            *chi.entry(find(&mut root, v)).or_default() += 1;
        }
        let mut edges = BTreeSet::new();
        for t in &mesh.triangles {
            *chi.entry(find(&mut root, t[0] as usize)).or_default() += 1;
            for e in 0..3 {
                let (a, b) = (t[e], t[(e + 1) % 3]);
                if edges.insert((a.min(b), a.max(b))) {
                    *chi.entry(find(&mut root, a as usize)).or_default() -= 1;
                }
            }
        }
        let mut chi: Vec<i64> = chi.into_values().collect();
        chi.sort_unstable();
        chi
    }

    /// The cubes the mesh's triangles lie in, by centroid.
    fn crossed_cubes(grid: &SampledGrid, mesh: &TriMesh) -> BTreeSet<[usize; 3]> {
        (0..mesh.num_triangles())
            .map(|t| {
                let c = mesh.face_centroid(t);
                std::array::from_fn(|a| ((c[a] - grid.origin[a]) / grid.spacing[a]) as usize)
            })
            .collect()
    }

    #[test]
    fn smooth_fields_match_the_tetrahedral_reference() {
        // Where no face is ambiguous the two triangulators cut the same
        // cubes into the same surface, up to how each cube's patch is split.
        let ball = |c: [f64; 3], r: f64| {
            move |x: f64, y: f64, z: f64| {
                r - ((x - c[0]).powi(2) + (y - c[1]).powi(2) + (z - c[2]).powi(2)).sqrt()
            }
        };
        let (one, other) = (ball([0.3, 0.3, 0.3], 0.17), ball([0.7, 0.68, 0.72], 0.21));
        type Field = Box<dyn Fn(f64, f64, f64) -> f64>;
        let fields: [(&str, Field); 5] = [
            ("sphere", Box::new(ball([0.5; 3], 0.3))),
            ("offset sphere", Box::new(ball([0.53, 0.47, 0.51], 0.3))),
            (
                "torus",
                Box::new(|x, y, z| {
                    let ring = ((x - 0.5).powi(2) + (y - 0.5).powi(2)).sqrt() - 0.27;
                    0.13 - (ring * ring + (z - 0.5).powi(2)).sqrt()
                }),
            ),
            (
                "two spheres",
                Box::new(move |x, y, z| one(x, y, z).max(other(x, y, z))),
            ),
            (
                "masked plane",
                Box::new(|x, y, z| 0.4 * x + 0.3 * y + z - 0.83),
            ),
        ];
        let n = 25;
        let h = 1.0 / (n - 1) as f64;
        for (name, field) in fields {
            let mut grid = SampledGrid::from_fn([n; 3], [0.0; 3], [h; 3], field);
            if name == "masked plane" {
                grid.cell_mask = cube_mask(&grid, |[i, j, _]| (i + j) % 7 != 3);
            }
            let faces = (0..n * n * n)
                .flat_map(|c| (0..3).map(move |a| ([c % n, c / n % n, c / (n * n)], a)));
            let unambiguous = faces
                .filter(|&(lo, a)| lo[(a + 1) % 3] < n - 1 && lo[(a + 2) % 3] < n - 1)
                .all(|(lo, a)| !ambiguous(&grid, 0.0, lo, a));
            assert!(unambiguous, "{name}: not a field this comparison is for");
            let (mesh, want) = (assert_well_formed(&grid, 0.0), reference(&grid, 0.0));
            assert_eq!(
                crossed_cubes(&grid, &mesh),
                crossed_cubes(&grid, &want),
                "{name}"
            );
            assert_eq!(
                euler_characteristics(&mesh),
                euler_characteristics(&want),
                "{name}"
            );
            let close = |a: f64, b: f64| (a - b).abs() <= 0.02 * b;
            let (area, rim) = (mesh.total_area(), mesh.boundary_length());
            assert!(
                close(area, want.total_area()),
                "{name}: area {area} vs {}",
                want.total_area()
            );
            assert!(
                close(rim, want.boundary_length()),
                "{name}: rim {rim} vs {}",
                want.boundary_length()
            );
            for (from, to) in [(&mesh, &want), (&want, &mesh)] {
                let to = TriLocator::build_owned(to.clone()).expect("non-empty");
                let far = surface_distance_to(from, &to).expect("non-empty").max;
                assert!(far <= h, "{name}: {far} apart, a cell is {h}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "spacing [0.5, 0.0, 0.125] is not finite and positive")]
    fn zero_spacing_is_refused() {
        let grid = SampledGrid::from_fn([3; 3], [0.0; 3], [0.5, 0.0, 0.125], |x, _, _| x);
        marching_cubes(&grid, 0.25);
    }

    #[test]
    #[should_panic(expected = "spacing [0.5, 0.25, -0.125] is not finite and positive")]
    fn negative_spacing_is_refused() {
        // A mirrored grid would mirror every triangle's winding with it.
        let grid = SampledGrid::from_fn([3; 3], [0.0; 3], [0.5, 0.25, -0.125], |x, _, _| x);
        marching_cubes(&grid, 0.25);
    }

    #[test]
    fn crossings_only_the_chunk_below_references_are_still_emitted() {
        // 64 layers, two chunks; the field leaves zero only on node plane 32,
        // the boundary plane, which the upper chunk owns. Layer 32 is masked
        // out entirely and layer 31 has a hole: the x and y crossings within
        // plane 32 are referenced from the lower chunk alone.
        let plane = CHUNK;
        let mut grid =
            SampledGrid::from_fn([5, 5, 2 * CHUNK + 1], [0.0; 3], [1.0; 3], |x, y, z| {
                let on = z as usize == plane && !(x as usize + 2 * y as usize).is_multiple_of(3);
                on as u8 as f64
            });
        let mask = cube_mask(&grid, |[i, j, k]| {
            k != plane && !(k == plane - 1 && i == 1 && j == 2)
        });
        grid.cell_mask = mask;
        let mesh = assert_well_formed(&grid, 0.5);
        let on_plane = mesh
            .vertices
            .iter()
            .filter(|v| v[2] == plane as f64)
            .count();
        assert!(
            on_plane > 10,
            "only {on_plane} crossings within the boundary plane"
        );
        assert!(
            mesh.vertices.iter().all(|v| v[2] <= plane as f64),
            "layer 32 is masked"
        );
    }

    /// FNV-1a of the mesh buffers as emitted: every vertex's bits in vertex
    /// order, then every triangle's indices.
    fn raw_fnv(mesh: &TriMesh) -> u64 {
        let vertices = mesh.vertices.iter().flatten().flat_map(|v| v.to_le_bytes());
        let triangles = mesh
            .triangles
            .iter()
            .flatten()
            .flat_map(|i| i.to_le_bytes());
        amrviz_rng::fnv1a_64(&vertices.chain(triangles).collect::<Vec<u8>>())
    }

    #[test]
    fn mesh_buffers_keep_their_pinned_order() {
        // The vertex order (node raster, then direction) and the triangle
        // order (cube raster), pinned to the bit where only order can move
        // them. The random grids have node rows of one to three words,
        // more layers than a chunk, samples on the iso-value, signed zeros
        // and NaN, and a cube mask.
        let mut grids = vec![(sphere_grid(40, 0.35), 0.0)];
        for seed in 0..3u64 {
            let mut rng = amrviz_rng::Rng::seed(0x0bde + seed);
            let dims = [[9, 5, 70], [66, 4, 40], [130, 3, 36]][seed as usize];
            let iso = 0.25;
            let mut grid = SampledGrid::from_fn(
                dims,
                [-1.3, 0.2, 2.1],
                [0.1, 0.07, 0.013],
                |_, _, _| match rng.below(12) {
                    0..=2 => iso,
                    3 => -0.0,
                    4 if seed == 2 => f64::NAN,
                    _ => rng.range_f64(-1.0, 1.0),
                },
            );
            grid.cell_mask = cube_mask(&grid, |_| rng.chance(0.8));
            grids.push((grid, iso));
        }
        let pins: [u64; 4] = [
            0x5c10bf706cd57b8f,
            0xb4ae1cb7fe726d30,
            0xa02e1bca97f71e26,
            0xea1b8e855d28580c,
        ];
        for ((grid, iso), want) in grids.iter().zip(pins) {
            for chunk in [1, CHUNK] {
                let got = raw_fnv(&extract(grid, *iso, chunk));
                assert_eq!(got, want, "{:?} at chunk {chunk}: {got:#018x}", grid.dims);
            }
        }
    }

    #[test]
    fn translation_invariance_of_topology() {
        // The same sphere sampled at an offset grid: equal triangle counts
        // aren't guaranteed, but watertightness and area must persist.
        let c = [0.53, 0.47, 0.51];
        let grid = SampledGrid::from_fn([33, 33, 33], [0.0; 3], [1.0 / 32.0; 3], |x, y, z| {
            0.3 - ((x - c[0]).powi(2) + (y - c[1]).powi(2) + (z - c[2]).powi(2)).sqrt()
        });
        let mesh = marching_cubes(&grid, 0.0);
        assert!(mesh.is_watertight());
        let exact = 4.0 * std::f64::consts::PI * 0.09;
        assert!((mesh.total_area() - exact).abs() / exact < 0.05);
    }
}
