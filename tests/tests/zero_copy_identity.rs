//! Bit-identity proofs for the zero-copy hot path.
//!
//! The `_into` decode entry points and the scratch-pooled encoders must be
//! *observably indistinguishable* from the owned APIs: same bytes out of
//! the encoders, same bits out of the decoders — regardless of what a
//! reused buffer held before, and regardless of the worker-pool size.

use std::fmt::Write as _;

use amrviz_codec::fnv1a_64;
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, decompress_hierarchy_field_into,
    AmrCodecConfig, Compressor, DecodeBudget, DecodePolicy, ErrorBound, Field3, SzInterp, SzLr,
    ZfpLike,
};
use amrviz_core::prelude::*;
use amrviz_integration_tests::{mesh_fingerprint, nyx_like, warpx_like};
use amrviz_viz::extract_amr_isosurface;

fn compressors() -> Vec<(&'static str, Box<dyn Compressor>)> {
    vec![
        ("szlr", Box::new(SzLr::default())),
        ("szinterp", Box::new(SzInterp)),
        ("zfp-like", Box::new(ZfpLike)),
    ]
}

fn test_field(dims: [usize; 3], phase: f64) -> Field3 {
    Field3::from_fn(dims, |i, j, k| {
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
fn compress_into_appends_exactly_the_owned_bytes() {
    let field = test_field([11, 9, 7], 0.0);
    for (name, c) in compressors() {
        let owned = c.compress(&field, ErrorBound::Rel(1e-3));
        // Appending after a nonempty prefix must neither disturb the prefix
        // nor change the emitted stream.
        let mut out = b"prefix".to_vec();
        c.compress_into(field.view(), ErrorBound::Rel(1e-3), &mut out);
        assert_eq!(&out[..6], b"prefix", "{name}: prefix clobbered");
        assert_eq!(&out[6..], &owned[..], "{name}: appended stream differs");
    }
}

#[test]
fn decompress_into_dirty_buffer_is_bit_identical() {
    let budget = DecodeBudget::default();
    let fields = [test_field([11, 9, 7], 0.0), test_field([5, 13, 6], 1.7)];
    for (name, c) in compressors() {
        // One reused buffer, pre-poisoned with NaNs and oversized — every
        // decode must fully overwrite it to exactly the fresh result.
        let mut reused = vec![f64::NAN; 10_000];
        for (fi, field) in fields.iter().enumerate() {
            let stream = c.compress(field, ErrorBound::Rel(1e-3));
            let fresh = c.decompress(&stream).unwrap();
            let dims = c.decompress_into(&stream, &budget, &mut reused).unwrap();
            assert_eq!(dims, fresh.dims, "{name}/{fi}: dims differ");
            assert_bits_eq(&reused, &fresh.data, &format!("{name}/{fi}"));
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
