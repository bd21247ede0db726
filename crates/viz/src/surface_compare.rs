//! Surface-to-surface comparison metrics.
//!
//! The paper judges decompressed-data visualizations by eye (Figs. 9–11);
//! we quantify the same effect: how far the isosurface extracted from
//! decompressed data deviates from the surface of the original data, and
//! how "bumpy" it became. Distances are computed with exact point-triangle
//! projections accelerated by a uniform grid.

use crate::mesh::{sorted_pairs, TriMesh};

/// Exact closest point on triangle `(a, b, c)` to `p` (Ericson, *Real-Time
/// Collision Detection*, §5.1.5).
fn closest_point_on_triangle(p: [f64; 3], a: [f64; 3], b: [f64; 3], c: [f64; 3]) -> [f64; 3] {
    let sub = |x: [f64; 3], y: [f64; 3]| [x[0] - y[0], x[1] - y[1], x[2] - y[2]];
    let dot = |x: [f64; 3], y: [f64; 3]| x[0] * y[0] + x[1] * y[1] + x[2] * y[2];
    let ab = sub(b, a);
    let ac = sub(c, a);
    let ap = sub(p, a);
    let d1 = dot(ab, ap);
    let d2 = dot(ac, ap);
    if d1 <= 0.0 && d2 <= 0.0 {
        return a;
    }
    let bp = sub(p, b);
    let d3 = dot(ab, bp);
    let d4 = dot(ac, bp);
    if d3 >= 0.0 && d4 <= d3 {
        return b;
    }
    let vc = d1 * d4 - d3 * d2;
    if vc <= 0.0 && d1 >= 0.0 && d3 <= 0.0 {
        let v = d1 / (d1 - d3);
        return [a[0] + v * ab[0], a[1] + v * ab[1], a[2] + v * ab[2]];
    }
    let cp = sub(p, c);
    let d5 = dot(ab, cp);
    let d6 = dot(ac, cp);
    if d6 >= 0.0 && d5 <= d6 {
        return c;
    }
    let vb = d5 * d2 - d1 * d6;
    if vb <= 0.0 && d2 >= 0.0 && d6 <= 0.0 {
        let w = d2 / (d2 - d6);
        return [a[0] + w * ac[0], a[1] + w * ac[1], a[2] + w * ac[2]];
    }
    let va = d3 * d6 - d5 * d4;
    if va <= 0.0 && (d4 - d3) >= 0.0 && (d5 - d6) >= 0.0 {
        let w = (d4 - d3) / ((d4 - d3) + (d5 - d6));
        return [
            b[0] + w * (c[0] - b[0]),
            b[1] + w * (c[1] - b[1]),
            b[2] + w * (c[2] - b[2]),
        ];
    }
    let denom = 1.0 / (va + vb + vc);
    let v = vb * denom;
    let w = vc * denom;
    [
        a[0] + ab[0] * v + ac[0] * w,
        a[1] + ab[1] * v + ac[1] * w,
        a[2] + ab[2] * v + ac[2] * w,
    ]
}

/// Uniform-grid accelerator for point → mesh distance queries.
pub struct TriLocator {
    vertices: Vec<[f64; 3]>,
    triangles: Vec<[u32; 3]>,
    lo: [f64; 3],
    cell: f64,
    dims: [usize; 3],
    /// The triangles overlapping each cell, cell after cell: cell `c` holds
    /// `cell_tris[cell_start[c]..cell_start[c + 1]]`, in ascending order.
    cell_start: Vec<usize>,
    cell_tris: Vec<u32>,
}

impl TriLocator {
    /// Builds the locator, consuming the mesh: its vertex and triangle
    /// buffers become the locator's storage. Returns `None` for empty
    /// meshes.
    pub fn build_owned(mesh: TriMesh) -> Option<Self> {
        let (lo, hi) = mesh.bbox()?;
        if mesh.triangles.is_empty() {
            return None;
        }
        let diag = ((hi[0] - lo[0]).powi(2) + (hi[1] - lo[1]).powi(2) + (hi[2] - lo[2]).powi(2))
            .sqrt()
            .max(1e-300);
        // Aim for O(1) triangles per cell.
        let cell = (diag / (mesh.triangles.len() as f64).cbrt().max(1.0)).max(diag * 1e-6);
        let dims = [0, 1, 2].map(|a| (((hi[a] - lo[a]) / cell).floor() as usize + 1).max(1));
        let clampi = |v: f64, n: usize| (v.floor().max(0.0) as usize).min(n - 1);
        let pairs = sorted_pairs(mesh.triangles.len(), |t| {
            let mut tlo = [f64::INFINITY; 3];
            let mut thi = [f64::NEG_INFINITY; 3];
            for &vi in &mesh.triangles[t] {
                let v = mesh.vertices[vi as usize];
                for a in 0..3 {
                    tlo[a] = tlo[a].min(v[a]);
                    thi[a] = thi[a].max(v[a]);
                }
            }
            let c0 = [0, 1, 2].map(|a| clampi((tlo[a] - lo[a]) / cell, dims[a]));
            let c1 = [0, 1, 2].map(|a| clampi((thi[a] - lo[a]) / cell, dims[a]));
            (c0[2]..=c1[2]).flat_map(move |kz| {
                (c0[1]..=c1[1]).flat_map(move |ky| {
                    (c0[0]..=c1[0]).map(move |kx| (kx + dims[0] * (ky + dims[1] * kz)) as u64)
                })
            })
        });
        let mut cell_start = vec![0; dims[0] * dims[1] * dims[2] + 1];
        for run in pairs.chunk_by(|x, y| x.0 == y.0) {
            cell_start[run[0].0 as usize + 1] = run.len();
        }
        for c in 1..cell_start.len() {
            cell_start[c] += cell_start[c - 1];
        }
        Some(TriLocator {
            vertices: mesh.vertices,
            triangles: mesh.triangles,
            lo,
            cell,
            dims,
            cell_start,
            cell_tris: pairs.into_iter().map(|(_, t)| t).collect(),
        })
    }

    fn tri_distance(&self, p: [f64; 3], t: u32) -> f64 {
        let [a, b, c] = self.triangles[t as usize];
        let q = closest_point_on_triangle(
            p,
            self.vertices[a as usize],
            self.vertices[b as usize],
            self.vertices[c as usize],
        );
        ((p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2)).sqrt()
    }

    /// Distance from `p` to the mesh surface.
    pub fn distance(&self, p: [f64; 3]) -> f64 {
        // Distance from p to the grid bbox (0 inside): lower-bounds every
        // unvisited shell.
        let hi = [
            self.lo[0] + self.dims[0] as f64 * self.cell,
            self.lo[1] + self.dims[1] as f64 * self.cell,
            self.lo[2] + self.dims[2] as f64 * self.cell,
        ];
        let mut outside2 = 0.0;
        for a in 0..3 {
            let d = (self.lo[a] - p[a]).max(p[a] - hi[a]).max(0.0);
            outside2 += d * d;
        }
        let outside = outside2.sqrt();

        let start = [
            ((((p[0] - self.lo[0]) / self.cell).floor()).max(0.0) as usize).min(self.dims[0] - 1),
            ((((p[1] - self.lo[1]) / self.cell).floor()).max(0.0) as usize).min(self.dims[1] - 1),
            ((((p[2] - self.lo[2]) / self.cell).floor()).max(0.0) as usize).min(self.dims[2] - 1),
        ];
        let max_shell = self.dims[0].max(self.dims[1]).max(self.dims[2]);
        let mut best = f64::INFINITY;
        for r in 0..=max_shell {
            // All cells in shells > r are at least this far from p.
            let shell_floor = outside + (r as f64 - 1.0).max(0.0) * self.cell;
            if best <= shell_floor {
                break;
            }
            let ri = r as isize;
            for dz in -ri..=ri {
                for dy in -ri..=ri {
                    for dx in -ri..=ri {
                        // Chebyshev shell only.
                        if dx.abs().max(dy.abs()).max(dz.abs()) != ri {
                            continue;
                        }
                        let kx = start[0] as isize + dx;
                        let ky = start[1] as isize + dy;
                        let kz = start[2] as isize + dz;
                        if kx < 0
                            || ky < 0
                            || kz < 0
                            || kx >= self.dims[0] as isize
                            || ky >= self.dims[1] as isize
                            || kz >= self.dims[2] as isize
                        {
                            continue;
                        }
                        let c =
                            kx as usize + self.dims[0] * (ky as usize + self.dims[1] * kz as usize);
                        for &t in &self.cell_tris[self.cell_start[c]..self.cell_start[c + 1]] {
                            best = best.min(self.tri_distance(p, t));
                        }
                    }
                }
            }
        }
        best
    }
}

/// Summary of one-directional surface deviation (`from` → `to`).
#[derive(Debug, Clone, Copy)]
pub struct SurfaceDistance {
    /// Area-weighted mean distance of `from` samples to `to`.
    pub mean: f64,
    /// Maximum sampled distance (≈ one-sided Hausdorff).
    pub max: f64,
}

/// Measures how far `from`'s surface lies from the surface `locator` was
/// built over. Samples every vertex and every triangle centroid of `from`;
/// centroid distances are area-weighted for the mean, vertices contribute
/// to the max. Build the locator once to compare several meshes to the
/// same reference surface.
pub fn surface_distance_to(from: &TriMesh, locator: &TriLocator) -> Option<SurfaceDistance> {
    if from.triangles.is_empty() {
        return None;
    }
    let per_tri: Vec<(f64, f64)> = amrviz_par::run(from.num_triangles(), |t| {
        (from.face_area(t), locator.distance(from.face_centroid(t)))
    });
    const CHUNK: usize = 1 << 13;
    let vert_max = amrviz_par::reduce_chunked(
        from.vertices.len(),
        CHUNK,
        0.0f64,
        |r| {
            from.vertices[r]
                .iter()
                .map(|&v| locator.distance(v))
                .fold(0.0, f64::max)
        },
        f64::max,
    );

    let total_area: f64 = per_tri.iter().map(|&(a, _)| a).sum();
    if total_area == 0.0 {
        return None;
    }
    let mean = per_tri.iter().map(|&(a, d)| a * d).sum::<f64>() / total_area;
    let max = per_tri.iter().map(|&(_, d)| d).fold(vert_max, f64::max);
    Some(SurfaceDistance { mean, max })
}

/// Mean dihedral deviation (radians) across interior edges — a bumpiness
/// measure: flat or smoothly-curved surfaces score low, block-artifact
/// staircases score high.
pub fn normal_roughness(mesh: &TriMesh) -> f64 {
    // Manifold edges are the runs of exactly two triangles.
    let (mut sum, mut count) = (0.0, 0usize);
    for run in mesh.edge_pairs().chunk_by(|x, y| x.0 == y.0) {
        if let &[(_, t1), (_, t2)] = run {
            let n1 = mesh.face_normal(t1 as usize);
            let n2 = mesh.face_normal(t2 as usize);
            let dot = (n1[0] * n2[0] + n1[1] * n2[1] + n1[2] * n2[2]).clamp(-1.0, 1.0);
            sum += dot.acos();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marching::{marching_cubes, SampledGrid};

    fn sphere_mesh(n: usize, r: f64, c: [f64; 3]) -> TriMesh {
        let grid =
            SampledGrid::from_fn([n, n, n], [0.0; 3], [1.0 / (n - 1) as f64; 3], |x, y, z| {
                r - ((x - c[0]).powi(2) + (y - c[1]).powi(2) + (z - c[2]).powi(2)).sqrt()
            });
        marching_cubes(&grid, 0.0)
    }

    fn assert_pt(got: [f64; 3], want: [f64; 3]) {
        for a in 0..3 {
            assert!((got[a] - want[a]).abs() < 1e-12, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn closest_point_cases() {
        let a = [0.0, 0.0, 0.0];
        let b = [1.0, 0.0, 0.0];
        let c = [0.0, 1.0, 0.0];
        // Above the interior → foot of perpendicular.
        assert_pt(
            closest_point_on_triangle([0.2, 0.2, 5.0], a, b, c),
            [0.2, 0.2, 0.0],
        );
        // Beyond vertex A.
        assert_pt(closest_point_on_triangle([-1.0, -1.0, 0.0], a, b, c), a);
        // Beyond edge AB.
        assert_pt(
            closest_point_on_triangle([0.5, -2.0, 0.0], a, b, c),
            [0.5, 0.0, 0.0],
        );
        // Beyond vertex B.
        assert_pt(closest_point_on_triangle([3.0, 0.0, 0.0], a, b, c), b);
        // Beyond edge BC.
        let q = closest_point_on_triangle([1.0, 1.0, 0.0], a, b, c);
        assert!((q[0] - 0.5).abs() < 1e-12 && (q[1] - 0.5).abs() < 1e-12);
    }

    /// Two strips of the plane z = 0.3: zero extent in z, and no triangle
    /// over 0.25 < x < 0.75.
    fn flat_strips() -> TriMesh {
        let mut flat = TriMesh::new();
        for i in (0..5).chain(15..20) {
            for j in 0..20 {
                let (x, y) = (i as f64 / 20.0, j as f64 / 20.0);
                let at = flat.num_vertices() as u32;
                flat.vertices.extend([
                    [x, y, 0.3],
                    [x + 0.05, y, 0.3],
                    [x + 0.05, y + 0.05, 0.3],
                    [x, y + 0.05, 0.3],
                ]);
                flat.triangles
                    .extend([[at, at + 1, at + 2], [at, at + 2, at + 3]]);
            }
        }
        flat
    }

    #[test]
    fn locator_distance_matches_bruteforce() {
        // The flat mesh's grid is one cell thick in z, and the cells over
        // its gap hold no triangle: probes sit over them, on and off the
        // plane.
        let flat = TriLocator::build_owned(flat_strips()).unwrap();
        assert_eq!(flat.dims[2], 1);
        assert!(flat.cell_start.windows(2).any(|w| w[0] == w[1]));
        let cases = [
            (
                sphere_mesh(17, 0.3, [0.5; 3]),
                vec![
                    [0.5, 0.5, 0.5],
                    [0.0, 0.0, 0.0],
                    [0.9, 0.5, 0.5],
                    [0.5, 0.85, 0.45],
                    [2.0, 2.0, 2.0],
                ],
            ),
            (
                flat_strips(),
                vec![
                    [0.5, 0.5, 0.3],
                    [0.45, 0.1, 0.9],
                    [0.55, 0.95, -0.2],
                    [0.1, 0.1, 0.3],
                    [2.0, 0.5, 0.3],
                ],
            ),
        ];
        for (mesh, probes) in cases {
            let loc = TriLocator::build_owned(mesh.clone()).unwrap();
            for p in probes {
                let brute = (0..mesh.num_triangles() as u32)
                    .map(|t| loc.tri_distance(p, t))
                    .fold(f64::INFINITY, f64::min);
                let fast = loc.distance(p);
                assert!(
                    (fast - brute).abs() < 1e-12,
                    "at {p:?}: fast {fast} vs brute {brute}"
                );
            }
        }
    }

    #[test]
    fn identical_meshes_have_zero_distance() {
        let mesh = sphere_mesh(17, 0.3, [0.5; 3]);
        let loc = TriLocator::build_owned(mesh.clone()).unwrap();
        let d = surface_distance_to(&mesh, &loc).unwrap();
        assert!(d.mean < 1e-12);
        assert!(d.max < 1e-12);
    }

    #[test]
    fn concentric_spheres_distance_is_radius_gap() {
        let inner = sphere_mesh(33, 0.2, [0.5; 3]);
        let outer = sphere_mesh(33, 0.3, [0.5; 3]);
        let d = surface_distance_to(&inner, &TriLocator::build_owned(outer).unwrap()).unwrap();
        assert!(
            (d.mean - 0.1).abs() < 0.01,
            "mean {} should be ≈ 0.1",
            d.mean
        );
        assert!(d.max < 0.12);
    }

    #[test]
    fn roughness_flat_vs_staircase() {
        // Flat quad strip: roughness 0.
        let flat = crate::mesh::unit_quad();
        assert!(normal_roughness(&flat) < 1e-12);
        // A 90° fold: mean dihedral deviation π/2 across the fold edge (one
        // of three interior... only the fold edge is shared).
        let folded = TriMesh {
            vertices: vec![
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [1.0, 1.0, 0.0],
                [1.0, 0.0, 1.0],
            ],
            triangles: vec![[0, 1, 2], [1, 3, 2]],
        };
        let r = normal_roughness(&folded);
        assert!((r - std::f64::consts::FRAC_PI_2).abs() < 1e-9, "got {r}");
    }

    #[test]
    fn smoother_sphere_has_lower_roughness() {
        let coarse = sphere_mesh(9, 0.3, [0.5; 3]);
        let fine = sphere_mesh(33, 0.3, [0.5; 3]);
        assert!(normal_roughness(&fine) < normal_roughness(&coarse));
    }

    #[test]
    fn distances_and_roughness_are_pinned_to_the_bit() {
        let inner = sphere_mesh(33, 0.2, [0.5; 3]);
        let outer = sphere_mesh(33, 0.3, [0.5; 3]);
        let roughness = [normal_roughness(&inner), normal_roughness(&outer)];
        let d = surface_distance_to(&inner, &TriLocator::build_owned(outer).unwrap()).unwrap();
        assert_eq!(
            [d.mean, d.max].map(f64::to_bits),
            [4591912249111888047, 4591946036110179455]
        );
        assert_eq!(
            roughness.map(f64::to_bits),
            [4591135678612148603, 4588729862545927219]
        );
    }

    #[test]
    fn empty_mesh_handled() {
        let empty = TriMesh::new();
        assert!(TriLocator::build_owned(empty.clone()).is_none());
        let sphere = sphere_mesh(9, 0.3, [0.5; 3]);
        let loc = TriLocator::build_owned(sphere).unwrap();
        assert!(surface_distance_to(&empty, &loc).is_none());
        assert_eq!(normal_roughness(&empty), 0.0);
    }
}
