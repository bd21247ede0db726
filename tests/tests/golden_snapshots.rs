//! Golden snapshots of the pipeline's observable outputs: per-method mesh
//! fingerprints (triangle count + FNV-1a of the canonicalized geometry,
//! and per level the FNV-1a of the buffers in emitted order) and
//! fixed-precision compression figures (CR, PSNR).
//!
//! Any intended change to extraction or compression output is re-blessed
//! with `BLESS=1 cargo test -p amrviz-integration-tests golden`; an
//! unintended change fails loudly with a diff.

use std::fmt::Write as _;

use amrviz_compress::{compress_hierarchy_field, AmrCodecConfig, ErrorBound};
use amrviz_core::experiment::{run_compression, CompressorKind};
use amrviz_core::prelude::*;
use amrviz_integration_tests::{
    assert_golden, mesh_fingerprint, mesh_raw_fingerprint, nyx_like, warpx_like,
};
use amrviz_viz::extract_amr_isosurface;

fn mesh_snapshot(built: &BuiltScenario) -> String {
    let field = built.spec.eval_field();
    let levels = &built.hierarchy.field(field).unwrap().levels;
    let mut out = String::new();
    for method in IsoMethod::ALL {
        let res = extract_amr_isosurface(&built.hierarchy, levels, built.iso, method);
        // The order of vertices and triangles, which the canonical form
        // below forgets.
        for (lev, mesh) in res.level_meshes.iter().enumerate() {
            let raw = mesh_raw_fingerprint(mesh);
            writeln!(out, "{} level={lev} raw_fnv={raw:016x}", method.label()).unwrap();
        }
        writeln!(
            out,
            "{} triangles={} fnv={:016x}",
            method.label(),
            res.total_triangles(),
            mesh_fingerprint(&res.into_combined()),
        )
        .unwrap();
    }
    out
}

fn compression_snapshot(built: &BuiltScenario) -> String {
    let mut out = String::new();
    for kind in CompressorKind::PAPER {
        let run = run_compression(built, kind, 1e-3).unwrap();
        // Fixed precision: loose enough to absorb nothing — the pipeline is
        // bit-deterministic — but keeps the file human-readable.
        writeln!(
            out,
            "{} cr={:.3} psnr_db={:.2} max_abs_err={:.6e}",
            kind.label(),
            run.compression_ratio,
            run.psnr_db,
            run.max_abs_error,
        )
        .unwrap();
    }
    // Compressed stream size is the strongest codec fingerprint.
    let field = built.spec.eval_field();
    for kind in CompressorKind::PAPER {
        let comp = kind.instance();
        let c = compress_hierarchy_field(
            &built.hierarchy,
            field,
            comp.as_ref(),
            ErrorBound::Rel(1e-3),
            &AmrCodecConfig::default(),
        )
        .unwrap();
        writeln!(
            out,
            "{} stream_bytes={} stream_fnv={:016x}",
            kind.label(),
            c.to_bytes().len(),
            amrviz_codec::fnv1a_64(&c.to_bytes()),
        )
        .unwrap();
    }
    // The uniform-resolution merge every score is taken on: level 0
    // up-sampled, finer data written over it.
    let merge: Vec<u8> = built
        .uniform
        .data
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    writeln!(
        out,
        "uniform_merge cells={} fnv={:016x}",
        built.uniform.data.len(),
        amrviz_codec::fnv1a_64(&merge),
    )
    .unwrap();
    out
}

#[test]
fn warpx_mesh_goldens() {
    assert_golden("warpx_meshes.txt", &mesh_snapshot(&warpx_like(42)));
}

#[test]
fn nyx_mesh_goldens() {
    assert_golden("nyx_meshes.txt", &mesh_snapshot(&nyx_like(42)));
}

#[test]
fn warpx_compression_goldens() {
    assert_golden(
        "warpx_compression.txt",
        &compression_snapshot(&warpx_like(42)),
    );
}

#[test]
fn nyx_compression_goldens() {
    assert_golden("nyx_compression.txt", &compression_snapshot(&nyx_like(42)));
}
