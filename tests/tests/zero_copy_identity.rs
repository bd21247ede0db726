//! Bit-identity proofs for the zero-copy hot path.
//!
//! The `_into` decode entry point and the scratch-pooled encoders must be
//! *observably indistinguishable* from a fresh decode: same bytes out of
//! the encoders, same bits out of the decoders — regardless of what a
//! reused arena held before, and regardless of the worker-pool size.

use std::fmt::Write as _;

use amrviz_amr::{AmrHierarchy, MultiFab};
use amrviz_codec::fnv1a_64;
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, decompress_hierarchy_field_into,
    AmrCodecConfig, DecodeBudget, DecodePolicy, ErrorBound, SzLr,
};
use amrviz_core::prelude::*;
use amrviz_integration_tests::{compressors, mesh_fingerprint, nyx_like, one_box, warpx_like};
use amrviz_viz::extract_amr_isosurface;

fn test_field(dims: [usize; 3], phase: f64) -> AmrHierarchy {
    one_box(dims, |i, j, k| {
        (i as f64 * 0.37 + phase).sin() * (j as f64 * 0.23).cos() + 0.02 * k as f64
    })
}

fn assert_bits_eq(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: bit mismatch at {i}");
    }
}

#[test]
fn decompress_into_dirty_buffer_is_bit_identical() {
    let (budget, cfg) = (DecodeBudget::default(), AmrCodecConfig::default());
    let fields = [test_field([11, 9, 7], 0.0), test_field([5, 13, 6], 1.7)];
    for c in compressors() {
        // One reused arena, first poisoned with NaNs in the first field's
        // shape: each decode must overwrite it to exactly the fresh result,
        // whether it lands on garbage, on its own output, or on another
        // field's shape.
        let mut reused = vec![MultiFab::from_fn(fields[0].box_array(0), |_| f64::NAN)];
        for (fi, h) in [0, 0, 1, 1].map(|fi| (fi, &fields[fi])) {
            let comp = c.as_ref();
            let compressed =
                compress_hierarchy_field(h, "u", comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
            let fresh = decompress_hierarchy_field(h, &compressed, comp, &cfg).unwrap();
            let policy = DecodePolicy::Strict;
            decompress_hierarchy_field_into(
                h,
                &compressed,
                comp,
                &cfg,
                policy,
                &budget,
                &mut reused,
            )
            .unwrap();
            let (got, want) = (reused[0].fabs()[0].data(), fresh[0].fabs()[0].data());
            assert_bits_eq(got, want, &format!("{}/{fi}", c.name()));
        }
    }
}

#[test]
fn hierarchy_decode_into_reused_levels_is_bit_identical() {
    let budget = DecodeBudget::default();
    let cfg = AmrCodecConfig::default();
    let nyx = nyx_like(42);
    let warpx = warpx_like(42);

    let scenarios = [(&nyx, SzLr::default()), (&warpx, SzLr::default())];
    let mut levels = Vec::new();
    // Alternate between the two hierarchies so each decode lands on fab
    // storage shaped (and dirtied) by the *other* scenario, then decode the
    // same stream again so it lands on its own previous output.
    for round in 0..2 {
        for (built, comp) in &scenarios {
            let field = built.spec.eval_field();
            let compressed = compress_hierarchy_field(
                &built.hierarchy,
                field,
                comp,
                ErrorBound::Rel(1e-3),
                &cfg,
            )
            .unwrap();
            let fresh =
                decompress_hierarchy_field(&built.hierarchy, &compressed, comp, &cfg).unwrap();
            let report = decompress_hierarchy_field_into(
                &built.hierarchy,
                &compressed,
                comp,
                &cfg,
                DecodePolicy::Strict,
                &budget,
                &mut levels,
            )
            .unwrap();
            assert!(report.is_clean(), "round {round}: strict decode not clean");
            assert_eq!(levels.len(), fresh.len(), "round {round}: level count");
            for (lev, (a, b)) in levels.iter().zip(&fresh).enumerate() {
                assert_eq!(a.fabs().len(), b.fabs().len());
                for (fi, (fa, fb)) in a.fabs().iter().zip(b.fabs()).enumerate() {
                    assert_bits_eq(
                        fa.data(),
                        fb.data(),
                        &format!("round {round} level {lev} fab {fi}"),
                    );
                }
            }
        }
    }
}

#[test]
fn streams_and_meshes_identical_across_thread_counts() {
    let prior = amrviz_par::threads();
    let built = nyx_like(42);
    let field = built.spec.eval_field();
    let cfg = AmrCodecConfig::default();
    let budget = DecodeBudget::default();

    let mut signatures = Vec::new();
    for threads in [1usize, 4] {
        amrviz_par::set_threads(threads);
        let mut sig = String::new();
        for kind in CompressorKind::PAPER {
            let comp = kind.instance();
            let compressed = compress_hierarchy_field(
                &built.hierarchy,
                field,
                comp.as_ref(),
                ErrorBound::Rel(1e-3),
                &cfg,
            )
            .unwrap();
            let bytes = compressed.to_bytes();
            writeln!(
                sig,
                "{} stream_fnv={:016x} len={}",
                kind.label(),
                fnv1a_64(&bytes),
                bytes.len()
            )
            .unwrap();
            let mut levels = Vec::new();
            decompress_hierarchy_field_into(
                &built.hierarchy,
                &compressed,
                comp.as_ref(),
                &cfg,
                DecodePolicy::Strict,
                &budget,
                &mut levels,
            )
            .unwrap();
            let mesh = extract_amr_isosurface(
                &built.hierarchy,
                &levels,
                built.iso,
                IsoMethod::DualCellRedundant,
            )
            .into_combined();
            writeln!(
                sig,
                "{} mesh_fnv={:016x}",
                kind.label(),
                mesh_fingerprint(&mesh)
            )
            .unwrap();
        }
        signatures.push(sig);
    }
    amrviz_par::set_threads(prior);
    assert_eq!(
        signatures[0], signatures[1],
        "outputs changed with worker-pool size — zero-copy path is not deterministic"
    );
}
