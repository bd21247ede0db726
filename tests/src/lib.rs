//! Integration-test host crate (tests live in `tests/tests/`) plus shared
//! helpers: mesh canonicalization/fingerprinting, the golden-snapshot
//! harness (`BLESS=1` regenerates), scenario builders and the compressor
//! list.

use std::path::PathBuf;

use amrviz_amr::{AmrHierarchy, Box3, BoxArray, Fab, Geometry, MultiFab};
use amrviz_codec::fnv1a_64;
use amrviz_compress::{
    compress_hierarchy_field, compressor_by_name, decompress_hierarchy_field, AmrCodecConfig,
    CompressedHierarchyField, Compressor, ErrorBound, ALGORITHMS,
};
use amrviz_core::prelude::*;
use amrviz_viz::TriMesh;

/// Quantizes one coordinate to a lattice fine enough that any real change
/// moves it, while `-0.0`/`+0.0` and representation noise collapse.
fn quantize(v: f64) -> i64 {
    let q = (v * 1e9).round();
    if q == 0.0 {
        0
    } else {
        q as i64
    }
}

/// Canonical form of a mesh: each triangle as its three *positions*
/// (quantized), the triangle list sorted. Invariant to vertex indexing and
/// triangle emission order, so fingerprints survive harmless refactors of
/// the extraction code while pinning the actual geometry.
pub fn canonical_triangles(mesh: &TriMesh) -> Vec<[[i64; 3]; 3]> {
    let mut tris: Vec<[[i64; 3]; 3]> = mesh
        .triangles
        .iter()
        .map(|t| {
            let mut corners = [[0i64; 3]; 3];
            for (c, &vi) in t.iter().enumerate() {
                let v = mesh.vertices[vi as usize];
                corners[c] = [quantize(v[0]), quantize(v[1]), quantize(v[2])];
            }
            // Rotate so the lexicographically smallest corner leads (winding
            // preserved).
            let lead = (0..3).min_by_key(|&i| corners[i]).unwrap();
            [
                corners[lead],
                corners[(lead + 1) % 3],
                corners[(lead + 2) % 3],
            ]
        })
        .collect();
    tris.sort_unstable();
    tris
}

/// FNV-1a fingerprint of the canonicalized mesh.
pub fn mesh_fingerprint(mesh: &TriMesh) -> u64 {
    let mut bytes = Vec::with_capacity(mesh.triangles.len() * 72);
    for tri in canonical_triangles(mesh) {
        for corner in tri {
            for c in corner {
                bytes.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    fnv1a_64(&bytes)
}

/// FNV-1a of a mesh's buffers exactly as emitted: every vertex's `f64` bits
/// in vertex order, then every triangle's indices. Unlike
/// [`mesh_fingerprint`] it moves when a vertex or triangle moves.
pub fn mesh_raw_fingerprint(mesh: &TriMesh) -> u64 {
    let vertices = mesh.vertices.iter().flatten().flat_map(|v| v.to_le_bytes());
    let triangles = mesh
        .triangles
        .iter()
        .flatten()
        .flat_map(|i| i.to_le_bytes());
    fnv1a_64(&vertices.chain(triangles).collect::<Vec<u8>>())
}

/// Where golden snapshots live (`tests/golden/`), anchored to the crate so
/// the tests work from any working directory.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Compares `actual` against `golden/<name>`; with `BLESS=1` in the
/// environment it (re)writes the snapshot instead and passes.
pub fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "snapshot {} drifted; if the change is intended, re-bless with BLESS=1",
        name
    );
}

/// The Nyx-like evaluation scenario at test scale (irregular, spiky
/// density field).
pub fn nyx_like(seed: u64) -> BuiltScenario {
    BuiltScenario::from_spec(Application::Nyx.spec(Scale::Tiny, seed))
}

/// The WarpX-like evaluation scenario at test scale (smooth EM field).
pub fn warpx_like(seed: u64) -> BuiltScenario {
    BuiltScenario::from_spec(Application::Warpx.spec(Scale::Tiny, seed))
}

/// Every compressor, one per entry of [`ALGORITHMS`].
pub fn compressors() -> Vec<Box<dyn Compressor>> {
    ALGORITHMS
        .map(|algo| compressor_by_name(algo).expect("a compressor"))
        .into()
}

/// `field` of `h` through `comp` and the container under `bound` and
/// `cfg`, every cell of every level checked against the bound the stream
/// records: the stream and the decoded levels. `what` names the case.
pub fn roundtrip_within_bound(
    h: &AmrHierarchy,
    field: &str,
    comp: &dyn Compressor,
    bound: ErrorBound,
    cfg: &AmrCodecConfig,
    what: &str,
) -> (CompressedHierarchyField, Vec<MultiFab>) {
    let name = comp.name();
    let c = compress_hierarchy_field(h, field, comp, bound, cfg)
        .unwrap_or_else(|e| panic!("{name} on {what}: {e}"));
    let levels = decompress_hierarchy_field(h, &c, comp, cfg)
        .unwrap_or_else(|e| panic!("{name} on {what}: {e}"));
    assert_eq!(levels.len(), h.num_levels(), "{name} on {what}");
    let tol = c.abs_eb * (1.0 + 1e-12);
    for (lev, decoded) in levels.iter().enumerate() {
        let orig = h.field_level(field, lev).expect("the field exists");
        for (bi, (ofab, dfab)) in orig.fabs().iter().zip(decoded.fabs()).enumerate() {
            for ((cell, o), d) in ofab.iter().zip(dfab.data()) {
                assert!(
                    (o - d).abs() <= tol,
                    "{name} on {what}: lev {lev} box {bi} cell {cell:?}: |{o} - {d}| > {tol}"
                );
            }
        }
    }
    (c, levels)
}

/// A one-level hierarchy of one box of `dims` cells whose field `"u"` is
/// `f(i, j, k)`, evaluated x-fastest — how a test hands a plain 3D field to
/// a compressor, which only ever runs inside the container.
pub fn one_box(dims: [usize; 3], mut f: impl FnMut(usize, usize, usize) -> f64) -> AmrHierarchy {
    let [nx, ny, nz] = dims;
    let mut data = Vec::with_capacity(nx * ny * nz);
    for k in 0..nz {
        for j in 0..ny {
            data.extend((0..nx).map(|i| f(i, j, k)));
        }
    }
    let domain = Box3::from_dims(nx, ny, nz);
    let boxes = vec![BoxArray::single(domain)];
    let mut h = AmrHierarchy::new(Geometry::unit(domain), vec![], boxes).expect("one box");
    let level = MultiFab::from_fabs(vec![Fab::from_vec(domain, data)]);
    h.add_field("u", vec![level])
        .expect("the field fits its box");
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_is_invariant_to_triangle_and_vertex_order() {
        let mesh = TriMesh {
            vertices: vec![
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ],
            triangles: vec![[0, 1, 2], [1, 3, 2]],
        };
        // Same geometry: triangles reordered, vertex list permuted, each
        // triangle rotated (winding preserved).
        let shuffled = TriMesh {
            vertices: vec![
                [0.0, 0.0, 1.0],
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ],
            triangles: vec![[1, 2, 0], [2, 1, 3]],
        };
        assert_eq!(mesh_fingerprint(&mesh), mesh_fingerprint(&shuffled));
        // Flipping a winding changes the surface and must change the hash.
        let flipped = TriMesh {
            triangles: vec![[0, 2, 1], [1, 3, 2]],
            ..mesh.clone()
        };
        assert_ne!(mesh_fingerprint(&mesh), mesh_fingerprint(&flipped));
        // The raw fingerprint sees the order the canonical one forgets.
        assert_ne!(mesh_raw_fingerprint(&mesh), mesh_raw_fingerprint(&shuffled));
        let swapped = TriMesh {
            triangles: vec![[1, 3, 2], [0, 1, 2]],
            ..mesh.clone()
        };
        assert_eq!(mesh_fingerprint(&mesh), mesh_fingerprint(&swapped));
        assert_ne!(mesh_raw_fingerprint(&mesh), mesh_raw_fingerprint(&swapped));
    }
}
