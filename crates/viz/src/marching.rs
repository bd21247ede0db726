//! Isosurface extraction on a sampled grid.
//!
//! Each cube of the node grid is decomposed into six tetrahedra (the Kuhn
//! triangulation around the main diagonal), and each tetrahedron is
//! triangulated against the iso-value. The decomposition is
//! translation-invariant, so shared cube faces are split along the same
//! diagonal on both sides and the extracted surface is watertight within a
//! level — exactly the property classic marching cubes provides, without a
//! hand-transcribed 256-case table (see DESIGN.md substitution note).
//!
//! Every Kuhn edge runs from a cube corner to a componentwise-greater one,
//! so a crossing is named `(lo node, direction 1..=7)` and welding needs no
//! map: a node plane keeps a byte of crossed directions per node and the
//! mesh index of the node's first crossing. Extraction is count → scan →
//! emit: classify the crossed cubes of every layer, mark and count the
//! crossings of every node plane, then let fixed chunks of planes write their
//! vertices (node raster order) and triangles (cube raster order) into their
//! own ranges of one pre-sized mesh — the same mesh for any chunking.
//!
//! Emitting is table look-ups and index arithmetic. Triangles face *lower*
//! values, and the table knows which way round that is: the polygon cut from
//! a linear tetrahedron is perpendicular to the interpolant's gradient, so
//! its winding is a constant of (tetrahedron, inside-mask) under any
//! orientation-preserving affine map — any finite positive spacing, which
//! [`extract`] insists on — whatever the values. A vertex is interpolated
//! once, straight into the mesh, by the chunk that owns its plane; the plane
//! on top of a chunk belongs to the chunk above, and the lower chunk only
//! numbers it — that numbering is the one thing still done twice.
//!
//! Cracks between AMR *levels* (the paper's Fig. 1a) are unaffected by the
//! in-cell triangulator: they come from resolution mismatch at level
//! interfaces and are reproduced faithfully by the level extractors.

use crate::mesh::TriMesh;

/// A node-centered sampled scalar grid in physical space.
///
/// `dims` counts grid *nodes* per axis; cubes (cells) number `dims − 1` per
/// axis. `cell_mask`, when present, selects which cubes are triangulated
/// (used by the AMR extractors to restrict each level to its own region).
/// Every component of `spacing` must be finite and strictly positive: the
/// triangle winding is tabulated for a grid that is not mirrored.
#[derive(Debug, Clone)]
pub struct SampledGrid {
    pub dims: [usize; 3],
    pub origin: [f64; 3],
    pub spacing: [f64; 3],
    pub values: Vec<f64>,
    pub cell_mask: Option<Vec<bool>>,
}

impl SampledGrid {
    /// Builds a full (unmasked) grid by evaluating `f` at every node.
    pub fn from_fn(
        dims: [usize; 3],
        origin: [f64; 3],
        spacing: [f64; 3],
        mut f: impl FnMut(f64, f64, f64) -> f64,
    ) -> Self {
        let [nx, ny, nz] = dims;
        let mut grid = SampledGrid {
            dims,
            origin,
            spacing,
            values: vec![0.0; nx * ny * nz],
            cell_mask: None,
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

/// The six Kuhn tetrahedra of a cube, as corner indices (`dx + 2dy + 4dz`).
/// All share the main diagonal 0–7; every cube face is split along the same
/// diagonal as its neighbor's matching face. Every edge runs from a corner
/// to one whose bits contain it, so `lo ^ hi` is the edge's direction.
const TETS: [[usize; 4]; 6] = [
    [0, 1, 3, 7],
    [0, 1, 5, 7],
    [0, 2, 3, 7],
    [0, 2, 6, 7],
    [0, 4, 5, 7],
    [0, 4, 6, 7],
];

/// Interpolation parameter clamp: keeps crossing vertices strictly off grid
/// nodes so no triangle degenerates when a sample equals the iso-value.
const T_EPS: f64 = 1e-6;

/// Cube layers per unit of parallel work. A constant, so the decomposition
/// never depends on the thread count.
const CHUNK: usize = 32;

/// Coordinate `axis` of cube corner `c`.
const fn coord(c: usize, axis: usize) -> isize {
    (c >> axis & 1) as isize
}

/// Per cube inside-mask (bit `c`: corner `c` is at or above iso): how many
/// triangles the cube emits, then each as three crossed edges, `lo corner <<
/// 3 | direction`, wound to face lower values; tetrahedron by tetrahedron. A
/// lone corner is cut off along its edges to the other three, ascending; two
/// inside corners a < b against outside c < d give the quad AC → AD → BD → BC
/// (consecutive edges share a tet face), fanned out from AC.
const CUBE_TRIS: [(u8, [[u8; 3]; 12]); 256] = {
    let mut out = [(0, [[0; 3]; 12]); 256];
    let mut n = 0;
    while n < 256 * 6 {
        let (case, t) = (n / 6, n % 6);
        // The tet's corners by side (outside, inside), ascending.
        let (mut side, mut len, mut c) = ([[0; 4]; 2], [0; 2], 0);
        while c < 4 {
            let s = case >> TETS[t][c] & 1;
            side[s][len[s]] = TETS[t][c];
            len[s] += 1;
            c += 1;
        }
        let [o, i] = side;
        let (a, b) = if len[1] == 3 { (o, i) } else { (i, o) };
        let (from, to, count) = match len[1] {
            0 | 4 => ([0; 4], [0; 4], 0),
            2 => ([a[0], a[0], a[1], a[1]], [b[0], b[1], b[1], b[0]], 2),
            _ => ([a[0]; 4], [b[0], b[1], b[2], 0], 1),
        };
        // Winding, decided on the polygon through the edge midpoints — the
        // cut of the field +1 inside, −1 outside — in doubled unit-cube
        // coordinates: `u` and `v` span its first triangle, and `w`, from an
        // outside corner to an inside one, has the gradient's side of it.
        let (mut u, mut v, mut w, mut axis) = ([0; 3], [0; 3], [0; 3], 0);
        while axis < 3 {
            let p = coord(from[0], axis) + coord(to[0], axis);
            u[axis] = coord(from[1], axis) + coord(to[1], axis) - p;
            v[axis] = coord(from[2], axis) + coord(to[2], axis) - p;
            w[axis] = coord(i[0], axis) - coord(o[0], axis);
            axis += 1;
        }
        let faces_up = (u[1] * v[2] - u[2] * v[1]) * w[0]
            + (u[2] * v[0] - u[0] * v[2]) * w[1]
            + (u[0] * v[1] - u[1] * v[0]) * w[2]
            > 0;
        let (mut edge, mut e) = ([0; 4], 0);
        while e < 4 {
            let lo = if from[e] < to[e] { from[e] } else { to[e] };
            edge[e] = (lo << 3 | (from[e] ^ to[e])) as u8;
            e += 1;
        }
        let (filled, tris) = &mut out[case];
        e = 1;
        while e <= count {
            let (b, c) = if faces_up { (e + 1, e) } else { (e, e + 1) };
            tris[*filled as usize] = [edge[0], edge[b], edge[c]];
            *filled += 1;
            e += 1;
        }
        n += 1;
    }
    out
};

/// Per cube inside-mask and lo corner: the directions (bit `d`) of the Kuhn
/// edges leaving that corner whose two ends lie on different sides.
const CROSSED_DIRS: [[u8; 8]; 256] = {
    let mut out = [[0u8; 8]; 256];
    let mut n = 0;
    while n < 256 * 64 {
        let (case, lo, d) = (n >> 6, n >> 3 & 7, n & 7);
        if lo & d == 0 && (case >> lo ^ case >> (lo | d)) & 1 == 1 {
            out[case][lo] |= 1 << d;
        }
        n += 1;
    }
    out
};

/// The cubes of a layer that an unmasked iso-crossing passes through, in
/// raster order — each the in-plane index `i + nx·j` of its corner-0 node
/// and its inside-mask — and how many triangles they will emit.
type Layer = (Vec<(u32, u8)>, usize);

/// [`Layer`] `k` of the grid.
fn classify(grid: &SampledGrid, iso: f64, k: usize) -> Layer {
    let [nx, ny, _] = grid.dims;
    let [cx, cy, _] = grid.cell_dims();
    let (mut cubes, mut triangles, mask) = (Vec::new(), 0, grid.cell_mask.as_ref());
    for j in 0..cy {
        let rows = [(0, 0), (1, 0), (0, 1), (1, 1)]
            .map(|(dj, dk)| &grid.values[nx * (j + dj + ny * (k + dk))..][..nx]);
        // Inside flags of the four nodes at x = i, on corner bits 0, 2, 4, 6.
        let column = |i: usize| (0..4).fold(0, |m, r| m | ((rows[r][i] >= iso) as u8) << (2 * r));
        let mut here = column(0);
        for i in 0..cx {
            let next = column(i + 1);
            let case = (here | next << 1) as usize;
            here = next;
            if case != 0 && case != 0xFF && mask.is_none_or(|m| m[i + cx * (j + cy * k)]) {
                let n0 = u32::try_from(i + nx * j).expect("a node plane has under 2^32 nodes");
                cubes.push((n0, case as u8));
                triangles += CUBE_TRIS[case].0 as usize;
            }
        }
    }
    (cubes, triangles)
}

/// The crossed directions of every node of plane `q` — bit `d` set when the
/// edge to the node `d` further on is crossed in some unmasked cube, one mesh
/// vertex each — gathered from the cube layers below and above it, and how
/// many crossings that makes.
fn mark_plane([nx, ny, _]: [usize; 3], layers: &[Layer], q: usize) -> (Vec<u8>, usize) {
    let (mut dirs, mut crossings) = (vec![0u8; nx * ny], 0);
    for (k, corners) in [(q.wrapping_sub(1), 4..8), (q, 0..4)] {
        for &(n0, case) in layers.get(k).map_or(&[][..], |l| &l.0) {
            for c in corners.clone() {
                let slot = &mut dirs[n0 as usize + (c & 1) + nx * (c >> 1 & 1)];
                let crossed = CROSSED_DIRS[case as usize][c];
                crossings += (crossed & !*slot).count_ones() as usize;
                *slot |= crossed;
            }
        }
    }
    (dirs, crossings)
}

/// One node plane's welding table.
struct Plane<'a> {
    /// Per node, its [`mark_plane`] byte.
    dirs: &'a [u8],
    /// Per node: mesh index of its lowest-direction crossing; the node's
    /// others follow in direction order.
    first: Vec<u32>,
}

struct Marcher<'a> {
    grid: &'a SampledGrid,
    iso: f64,
    /// [`classify`] of every cube layer, and an empty one above the top plane.
    layers: Vec<Layer>,
    /// [`mark_plane`]'s byte rows of every node plane.
    dirs: Vec<Vec<u8>>,
}

impl Marcher<'_> {
    /// Plane `q` with its crossings numbered from `base` on in node raster
    /// order and, for the chunk that owns the plane, interpolated into
    /// `verts`, that range of the mesh.
    fn plane(&self, q: usize, base: u32, mut verts: Option<&mut [[f64; 3]]>) -> Plane<'_> {
        let (g, nx) = (self.grid, self.grid.dims[0]);
        let dirs = &self.dirs[q][..];
        let (mut first, mut id) = (vec![0; dirs.len()], 0);
        for (n, &crossed) in dirs.iter().enumerate().filter(|(_, &c)| c != 0) {
            first[n] = base + id as u32;
            let Some(verts) = &mut verts else {
                id += crossed.count_ones() as usize;
                continue;
            };
            let (p, va) = g.node([n % nx, n / nx, q], 0);
            let mut left = crossed;
            while left != 0 {
                let d = left.trailing_zeros() as usize;
                left &= left - 1;
                // Always interpolated lo node → hi node, so every cube
                // around the edge sees the same bits.
                let (r, vb) = g.node([n % nx, n / nx, q], d);
                let t = ((self.iso - va) / (vb - va)).clamp(T_EPS, 1.0 - T_EPS);
                verts[id] = std::array::from_fn(|a| p[a] + t * (r[a] - p[a]));
                id += 1;
            }
        }
        Plane { dirs, first }
    }

    /// Triangulates layer `k` between its two node planes into `tris`;
    /// returns how many triangles it wrote.
    fn emit_layer(&self, k: usize, lo: &Plane, hi: &Plane, tris: &mut [[u32; 3]]) -> usize {
        let nx = self.grid.dims[0];
        let mut written = 0;
        for &(n0, case) in &self.layers[k].0 {
            // Each corner's first crossing and crossed directions.
            let corners: [(u32, u8); 8] = std::array::from_fn(|c| {
                let plane = if c < 4 { lo } else { hi };
                let n = n0 as usize + (c & 1) + nx * (c >> 1 & 1);
                (plane.first[n], plane.dirs[n])
            });
            let vertex = |edge: u8| {
                let (first, dirs) = corners[(edge >> 3) as usize];
                first + (dirs & ((1 << (edge & 7)) - 1)).count_ones()
            };
            let (count, list) = &CUBE_TRIS[case as usize];
            for &[a, b, c] in &list[..*count as usize] {
                tris[written] = [vertex(a), vertex(b), vertex(c)];
                written += 1;
            }
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
pub fn marching_tetrahedra(grid: &SampledGrid, iso: f64) -> TriMesh {
    let mesh = extract(grid, iso, CHUNK);
    amrviz_obs::counter!("viz.triangles", mesh.num_triangles());
    mesh
}

fn extract(grid: &SampledGrid, iso: f64, chunk: usize) -> TriMesh {
    let [cx, cy, cz] = grid.cell_dims();
    if cx == 0 || cy == 0 || cz == 0 {
        return TriMesh::new();
    }
    if let Some(mask) = &grid.cell_mask {
        assert_eq!(mask.len(), cx * cy * cz, "cell mask size mismatch");
    }
    let spacing = grid.spacing;
    let upright = spacing.iter().all(|&h| h > 0.0 && h.is_finite());
    assert!(upright, "spacing {spacing:?} is not finite and positive");
    // Count: each layer's crossed cubes, then each node plane's crossings.
    let mut layers = amrviz_par::run(cz, |k| classify(grid, iso, k));
    layers.push((Vec::new(), 0));
    let planes = amrviz_par::run(cz + 1, |q| mark_plane(grid.dims, &layers, q));
    let (dirs, crossings): (_, Vec<_>) = planes.into_iter().unzip();
    let m = Marcher {
        grid,
        iso,
        layers,
        dirs,
    };

    // Scan: size the output once and give every chunk of planes, with the
    // layer above each, its own ranges of it.
    let mut mesh = TriMesh {
        vertices: vec![[0.0; 3]; vertex_total(&crossings, grid.dims)],
        triangles: vec![[0; 3]; m.layers.iter().map(|l| l.1).sum()],
    };
    let (mut verts, mut tris, mut first) = (&mut mesh.vertices[..], &mut mesh.triangles[..], 0);
    let mut parts = Vec::new();
    for (v, l) in crossings.chunks(chunk).zip(m.layers.chunks(chunk)) {
        let (nv, nt) = (v.iter().sum(), l.iter().map(|l| l.1).sum());
        let (v, t);
        (v, verts) = verts.split_at_mut(nv);
        (t, tris) = tris.split_at_mut(nt);
        parts.push((first as u32, v, t));
        first += nv;
    }

    // Emit: every chunk writes the vertices of its node planes and the
    // triangles of the cube layer above each.
    amrviz_par::for_each_part(parts, |c, (first, verts, tris)| {
        let own = c * chunk..(cz + 1).min((c + 1) * chunk);
        let (mut nv, mut nt) = (0, 0);
        // The chunk's planes take their vertex ranges in turn. Its last layer
        // needs the plane above it, which the next chunk owns and
        // interpolates: that one is numbered only — from the same base.
        let mut plane = |q: usize| {
            let (base, nq) = (first + nv as u32, crossings[q]);
            let range = own.contains(&q).then(|| {
                nv += nq;
                &mut verts[nv - nq..nv]
            });
            m.plane(q, base, range)
        };
        let mut lo = plane(own.start);
        for k in own.start..own.end.min(cz) {
            let hi = plane(k + 1);
            nt += m.emit_layer(k, &lo, &hi, &mut tris[nt..]);
            lo = hi;
        }
        debug_assert_eq!((nv, nt), (verts.len(), tris.len()), "count ≠ emit");
    });
    mesh
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

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
        let mesh = marching_tetrahedra(&grid, 0.0);
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
        let mesh = marching_tetrahedra(&grid, 0.0);
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
        let mesh = marching_tetrahedra(&grid, 0.0);
        let h = 1.0 / 32.0;
        for v in &mesh.vertices {
            let r = ((v[0] - 0.5).powi(2) + (v[1] - 0.5).powi(2) + (v[2] - 0.5).powi(2)).sqrt();
            assert!((r - 0.3).abs() < h, "vertex off surface: r = {r}");
        }
    }

    #[test]
    fn plane_isosurface_is_flat() {
        let grid = SampledGrid::from_fn([9, 9, 9], [0.0; 3], [0.125; 3], |x, _, _| x);
        let mesh = marching_tetrahedra(&grid, 0.5);
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
        assert!(marching_tetrahedra(&grid, 2.0).is_empty());
        assert!(marching_tetrahedra(&grid, 0.0).is_empty());
    }

    #[test]
    fn cell_mask_restricts_output() {
        let mut grid = SampledGrid::from_fn([9, 9, 9], [0.0; 3], [0.125; 3], |x, _, _| x);
        let cd = grid.cell_dims();
        // Only march the k < 4 half.
        let mask: Vec<bool> = (0..cd[0] * cd[1] * cd[2])
            .map(|n| (n / (cd[0] * cd[1])) < 4)
            .collect();
        grid.cell_mask = Some(mask);
        let mesh = marching_tetrahedra(&grid, 0.5);
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
        let mesh = marching_tetrahedra(&grid, 0.5);
        for t in 0..mesh.num_triangles() {
            assert!(mesh.face_area(t) > 0.0, "degenerate triangle {t}");
        }
    }

    #[test]
    fn degenerate_grid_dims() {
        let grid = SampledGrid::from_fn([1, 5, 5], [0.0; 3], [1.0; 3], |_, _, _| 1.0);
        assert!(marching_tetrahedra(&grid, 0.5).is_empty());
    }

    #[test]
    fn parallel_slab_path_is_watertight_and_seamless() {
        // 80 nodes → 79 cube layers, three chunks. A crossing on a chunk's
        // top plane is numbered by the chunk above; any disagreement between
        // the two would show up as open edges or duplicated vertices.
        let grid = sphere_grid(80, 0.35);
        let mesh = marching_tetrahedra(&grid, 0.0);
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
        // No duplicated vertices anywhere (welding with a tiny tolerance
        // must be a no-op). `mesh` is not needed afterwards, so weld in place.
        let mut welded = mesh;
        assert_eq!(welded.weld(1e-12), 0, "duplicate vertices in the output");
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

    /// A deliberately naive reference extractor: every unmasked cube and
    /// every tetrahedron on its own, heap-allocated case analysis, three
    /// fresh vertices per triangle — a triangle soup, welded afterwards by
    /// position bits. Shares only `TETS` and `T_EPS` with the real one.
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
            if grid
                .cell_mask
                .as_ref()
                .is_some_and(|m| !m[i + cx * (j + cy * k)])
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

    /// The mesh as a sorted list of triangles of position bits, each rotated
    /// to lead with its smallest corner (winding preserved).
    fn canonical(mesh: &TriMesh) -> Vec<[[u64; 3]; 3]> {
        let mut tris: Vec<_> = mesh
            .triangles
            .iter()
            .map(|t| {
                let c = t.map(|v| mesh.vertices[v as usize].map(f64::to_bits));
                let lead = (0..3).min_by_key(|&i| c[i]).unwrap();
                [c[lead], c[(lead + 1) % 3], c[(lead + 2) % 3]]
            })
            .collect();
        tris.sort_unstable();
        tris
    }

    fn assert_matches_reference(grid: &SampledGrid, iso: f64) -> TriMesh {
        let (mesh, want) = (marching_tetrahedra(grid, iso), reference(grid, iso));
        assert_eq!(mesh.num_vertices(), want.num_vertices(), "welding differs");
        assert_eq!(canonical(&mesh), canonical(&want), "triangle sets differ");
        mesh
    }

    #[test]
    fn matches_the_naive_reference_on_random_masked_grids() {
        // Layer counts around the chunk size: under one chunk, exactly one,
        // one layer into the second, and into the third and fourth.
        for cz in [1, 31, 32, 33, 65, 97] {
            amrviz_rng::check(0x7e7 + cz as u64, 6, |rng| {
                let dims = [rng.range_usize(2, 5), rng.range_usize(2, 5), cz + 1];
                let iso = 0.5;
                let mut grid =
                    SampledGrid::from_fn(dims, [-1.0, 0.0, 2.0], [0.5, 0.25, 0.125], |_, _, _| {
                        // A third of the samples sit exactly on the iso-value.
                        match rng.below(3) {
                            0 => iso,
                            _ => rng.range_f64(-1.0, 2.0),
                        }
                    });
                if rng.chance(0.7) {
                    let cd = grid.cell_dims();
                    grid.cell_mask = Some(
                        (0..cd[0] * cd[1] * cd[2])
                            .map(|_| rng.chance(0.6))
                            .collect(),
                    );
                }
                assert_matches_reference(&grid, iso);
            });
        }
    }

    #[test]
    fn every_crossing_case_on_an_anisotropic_cube_matches_the_reference() {
        // One cube per inside-mask, winding included (`canonical` keeps it).
        // Excesses down to 1e-9 clamp crossings at both `T_EPS` ends; the
        // second kind of draw puts inside corners exactly on the iso-value.
        let iso = 0.5;
        for (case, &(count, _)) in CUBE_TRIS.iter().enumerate().take(255).skip(1) {
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
                let mesh = assert_matches_reference(&grid, iso);
                assert_eq!(mesh.num_triangles(), count as usize);
            });
        }
    }

    #[test]
    #[should_panic(expected = "spacing [0.5, 0.0, 0.125] is not finite and positive")]
    fn zero_spacing_is_refused() {
        let grid = SampledGrid::from_fn([3; 3], [0.0; 3], [0.5, 0.0, 0.125], |x, _, _| x);
        marching_tetrahedra(&grid, 0.25);
    }

    #[test]
    #[should_panic(expected = "spacing [0.5, 0.25, -0.125] is not finite and positive")]
    fn negative_spacing_is_refused() {
        // A mirrored grid would mirror every triangle's winding with it.
        let grid = SampledGrid::from_fn([3; 3], [0.0; 3], [0.5, 0.25, -0.125], |x, _, _| x);
        marching_tetrahedra(&grid, 0.25);
    }

    #[test]
    fn crossings_only_the_chunk_below_references_are_still_emitted() {
        // 64 layers, two chunks; the field leaves zero only on node plane 32,
        // the boundary plane, which the upper chunk owns. Layer 32 is masked
        // out entirely and layer 31 has a hole: the in-plane crossings of
        // plane 32 are referenced from the lower chunk alone.
        let plane = CHUNK;
        let mut grid =
            SampledGrid::from_fn([5, 5, 2 * CHUNK + 1], [0.0; 3], [1.0; 3], |x, y, z| {
                let on = z as usize == plane && !(x as usize + 2 * y as usize).is_multiple_of(3);
                on as u8 as f64
            });
        let cd = grid.cell_dims();
        let mask = (0..cd[0] * cd[1] * cd[2]).map(|n| {
            let (i, j, k) = (n % cd[0], n / cd[0] % cd[1], n / (cd[0] * cd[1]));
            k != plane && !(k == plane - 1 && i == 1 && j == 2)
        });
        grid.cell_mask = Some(mask.collect());
        let mesh = assert_matches_reference(&grid, 0.5);
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

    #[test]
    fn translation_invariance_of_topology() {
        // The same sphere sampled at an offset grid: equal triangle counts
        // aren't guaranteed, but watertightness and area must persist.
        let c = [0.53, 0.47, 0.51];
        let grid = SampledGrid::from_fn([33, 33, 33], [0.0; 3], [1.0 / 32.0; 3], |x, y, z| {
            0.3 - ((x - c[0]).powi(2) + (y - c[1]).powi(2) + (z - c[2]).powi(2)).sqrt()
        });
        let mesh = marching_tetrahedra(&grid, 0.0);
        assert!(mesh.is_watertight());
        let exact = 4.0 * std::f64::consts::PI * 0.09;
        assert!((mesh.total_area() - exact).abs() / exact < 0.05);
    }
}
