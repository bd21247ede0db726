//! Indexed triangle meshes.

/// An indexed triangle mesh in physical coordinates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TriMesh {
    pub vertices: Vec<[f64; 3]>,
    pub triangles: Vec<[u32; 3]>,
}

impl TriMesh {
    pub fn new() -> Self {
        TriMesh::default()
    }

    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    pub fn num_triangles(&self) -> usize {
        self.triangles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.triangles.is_empty()
    }

    /// Appends another mesh (no welding across the seam).
    pub fn append(&mut self, other: &TriMesh) {
        let off = index_offset(self.vertices.len(), other.vertices.len());
        self.vertices.extend_from_slice(&other.vertices);
        self.triangles.extend(
            other
                .triangles
                .iter()
                .map(|t| [t[0] + off, t[1] + off, t[2] + off]),
        );
    }

    /// Axis-aligned bounding box, or `None` when empty.
    pub fn bbox(&self) -> Option<([f64; 3], [f64; 3])> {
        let mut it = self.vertices.iter();
        let first = *it.next()?;
        let mut lo = first;
        let mut hi = first;
        for v in it {
            for a in 0..3 {
                lo[a] = lo[a].min(v[a]);
                hi[a] = hi[a].max(v[a]);
            }
        }
        Some((lo, hi))
    }

    /// Face normal of triangle `t` (not normalized; magnitude = 2·area).
    pub fn face_normal_raw(&self, t: usize) -> [f64; 3] {
        self.raw_normal(self.triangles[t])
    }

    fn raw_normal(&self, [a, b, c]: [u32; 3]) -> [f64; 3] {
        let p = self.vertices[a as usize];
        let q = self.vertices[b as usize];
        let r = self.vertices[c as usize];
        let u = [q[0] - p[0], q[1] - p[1], q[2] - p[2]];
        let v = [r[0] - p[0], r[1] - p[1], r[2] - p[2]];
        [
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ]
    }

    /// Unit face normal (zero vector for degenerate triangles).
    pub fn face_normal(&self, t: usize) -> [f64; 3] {
        let n = self.face_normal_raw(t);
        let len = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
        if len == 0.0 {
            [0.0; 3]
        } else {
            [n[0] / len, n[1] / len, n[2] / len]
        }
    }

    /// Area of triangle `t`.
    pub fn face_area(&self, t: usize) -> f64 {
        let n = self.face_normal_raw(t);
        0.5 * (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt()
    }

    /// Total surface area: the [`TriMesh::face_area`]s summed in triangle
    /// order, to the bit (`-0.0` is what an empty `sum()` gives). A batch's
    /// squared norms are gathered first and turned into areas in a pass of
    /// their own over the whole batch buffer, which vectorizes, so the serial
    /// sum waits on nothing but additions.
    pub fn total_area(&self) -> f64 {
        let (mut total, mut areas) = (-0.0, [0.0f64; 64]);
        for batch in self.triangles.chunks(areas.len()) {
            for (area, &t) in areas.iter_mut().zip(batch) {
                let n = self.raw_normal(t);
                *area = n[0] * n[0] + n[1] * n[1] + n[2] * n[2];
            }
            for area in &mut areas {
                *area = 0.5 * area.sqrt();
            }
            for area in &areas[..batch.len()] {
                total += area;
            }
        }
        total
    }

    /// Centroid of triangle `t`.
    pub fn face_centroid(&self, t: usize) -> [f64; 3] {
        let [a, b, c] = self.triangles[t];
        let p = self.vertices[a as usize];
        let q = self.vertices[b as usize];
        let r = self.vertices[c as usize];
        [
            (p[0] + q[0] + r[0]) / 3.0,
            (p[1] + q[1] + r[1]) / 3.0,
            (p[2] + q[2] + r[2]) / 3.0,
        ]
    }

    /// Every edge as a `(packed (min << 32) | max key, triangle)` pair, one
    /// per incident triangle, sorted: an edge's triangles form one run.
    pub(crate) fn edge_pairs(&self) -> Vec<(u64, u32)> {
        sorted_pairs(self.triangles.len(), |t| {
            let [a, b, c] = self.triangles[t];
            [(a, b), (b, c), (c, a)].map(|(a, b)| ((a.min(b) as u64) << 32) | a.max(b) as u64)
        })
    }

    /// Edges incident to exactly one triangle — the open boundary. Each edge
    /// is returned as an ordered vertex-index pair.
    pub fn boundary_edges(&self) -> Vec<(u32, u32)> {
        self.edge_pairs()
            .chunk_by(|x, y| x.0 == y.0)
            .filter_map(|run| match run {
                &[(key, _)] => Some(((key >> 32) as u32, key as u32)),
                _ => None,
            })
            .collect()
    }

    /// Total length of the open boundary.
    pub fn boundary_length(&self) -> f64 {
        self.boundary_edges()
            .iter()
            .map(|&(a, b)| {
                let p = self.vertices[a as usize];
                let q = self.vertices[b as usize];
                ((p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2)).sqrt()
            })
            .sum()
    }

    /// True when the mesh has no open boundary (every edge shared by exactly
    /// two triangles).
    pub fn is_watertight(&self) -> bool {
        !self.is_empty() && self.boundary_edges().is_empty()
    }
}

/// `(key, item)` pairs for the items `0..n`, each item paired with every key
/// `keys` gives it, sorted: the items sharing a key form one run, in
/// ascending item order ([`slice::chunk_by`] walks the runs). Items are
/// visited in parallel chunks, and one sort replaces per-insert hashing,
/// which matters on multi-million-triangle surfaces.
pub(crate) fn sorted_pairs<K: IntoIterator<Item = u64>>(
    n: usize,
    keys: impl Fn(usize) -> K + Sync,
) -> Vec<(u64, u32)> {
    const CHUNK: usize = 1 << 14;
    let mut pairs = amrviz_par::reduce_chunked(
        n,
        CHUNK,
        Vec::new(),
        |r| {
            let mut part = Vec::new();
            for item in r {
                part.extend(keys(item).into_iter().map(|k| (k, item as u32)));
            }
            part
        },
        |mut acc, mut part| {
            acc.append(&mut part);
            acc
        },
    );
    pairs.sort_unstable();
    pairs
}

/// What [`TriMesh::append`] adds to the indices of a mesh of `more` vertices
/// joining one of `len`. Indices are `u32`: the sum is checked, once.
fn index_offset(len: usize, more: usize) -> u32 {
    let fits = len.saturating_add(more) <= u32::MAX as usize;
    assert!(
        fits,
        "{len} + {more} vertices of the appended meshes exceed u32"
    );
    len as u32
}

#[cfg(test)]
pub(crate) fn unit_quad() -> TriMesh {
    TriMesh {
        vertices: vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
        ],
        triangles: vec![[0, 1, 2], [0, 2, 3]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A closed tetrahedron with outward-facing normals.
    fn tetra() -> TriMesh {
        TriMesh {
            vertices: vec![
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ],
            triangles: vec![[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]],
        }
    }

    #[test]
    fn areas_and_normals() {
        let quad = unit_quad();
        assert!((quad.total_area() - 1.0).abs() < 1e-12);
        assert_eq!(quad.face_normal(0), [0.0, 0.0, 1.0]);
        let c = quad.face_centroid(0);
        assert!((c[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn boundary_of_quad_is_perimeter() {
        let quad = unit_quad();
        let edges = quad.boundary_edges();
        assert_eq!(edges.len(), 4);
        assert!((quad.boundary_length() - 4.0).abs() < 1e-12);
        assert!(!quad.is_watertight());
    }

    #[test]
    fn boundary_edges_of_quad_are_pinned() {
        // Ascending packed keys; the shared diagonal (0, 2) is not open.
        let edges = unit_quad().boundary_edges();
        assert_eq!(edges, [(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn closed_tetra_is_watertight() {
        let t = tetra();
        assert!(t.is_watertight());
        assert_eq!(t.boundary_length(), 0.0);
    }

    #[test]
    fn append_offsets_indices() {
        let mut m = unit_quad();
        let before = m.num_vertices();
        m.append(&tetra());
        assert_eq!(m.num_vertices(), before + 4);
        assert_eq!(m.num_triangles(), 6);
        assert_eq!(m.triangles[2], [4, 6, 5]);
    }

    #[test]
    fn append_checks_the_joint_vertex_count_against_u32() {
        let max = u32::MAX as usize;
        assert_eq!(index_offset(max - 5, 5), u32::MAX - 5);
    }

    #[test]
    #[should_panic(expected = "4294967290 + 6 vertices of the appended meshes exceed u32")]
    fn append_refuses_what_u32_indices_cannot_address() {
        // Faked lengths: no mesh that large fits in memory here.
        index_offset(u32::MAX as usize - 5, 6);
    }

    #[test]
    fn total_area_is_the_sequential_face_area_sum_to_the_bit() {
        // Around the batch size, and the empty mesh's sign of zero.
        for triangles in [0, 1, 63, 64, 65, 1000] {
            amrviz_rng::check(0xa2ea + triangles as u64, 4, |rng| {
                let vertices = (0..50).map(|_| [(); 3].map(|_| rng.range_f64(-3.0, 5.0)));
                let mut mesh = TriMesh {
                    vertices: vertices.collect(),
                    triangles: (0..triangles)
                        .map(|_| [(); 3].map(|_| rng.below(50) as u32))
                        .collect(),
                };
                if let Some(t) = mesh.triangles.first_mut() {
                    t[2] = t[1]; // degenerate
                }
                let want: f64 = (0..triangles).map(|t| mesh.face_area(t)).sum();
                assert_eq!(mesh.total_area().to_bits(), want.to_bits());
            });
        }
    }

    #[test]
    fn bbox() {
        let t = tetra();
        let (lo, hi) = t.bbox().unwrap();
        assert_eq!(lo, [0.0, 0.0, 0.0]);
        assert_eq!(hi, [1.0, 1.0, 1.0]);
        assert!(TriMesh::new().bbox().is_none());
    }
}
