//! The tentpole guarantee: the full compress → decompress → extract →
//! score pipeline produces **bit-identical** results at any thread count.
//!
//! Each scenario runs the whole pipeline at 1, 2, and 8 threads and
//! compares every artifact — compressed byte streams, decompressed field
//! bits, mesh buffers, PSNR/SSIM bits — against the single-threaded
//! baseline.

#![allow(clippy::needless_range_loop)] // level-indexed loops mirror the math

use std::sync::Mutex;

use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, ErrorBound,
};
use amrviz_core::experiment::CompressorKind;
use amrviz_core::prelude::*;
use amrviz_integration_tests::{nyx_like, warpx_like};
use amrviz_metrics::{quality, ssim3, SsimConfig};
use amrviz_viz::extract_amr_isosurface;

/// `amrviz_par::set_threads` is process-global, so tests that sweep it must
/// not interleave.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Every pipeline artifact, reduced to exactly comparable (bit-level) form.
#[derive(Debug, PartialEq, Eq)]
struct PipelineArtifacts {
    /// Scenario field data (generation itself runs on the pool).
    field_bits: Vec<u64>,
    /// Serialized compressed stream per compressor.
    compressed: Vec<(&'static str, Vec<u8>)>,
    /// Decompressed per-level data bits per compressor.
    decompressed_bits: Vec<(&'static str, Vec<u64>)>,
    /// Canonical mesh buffers per method: vertex coordinate bits + indices.
    meshes: Vec<(&'static str, Vec<u64>, Vec<u32>)>,
    /// PSNR and SSIM of the first compressor's reconstruction, as bits.
    psnr_bits: u64,
    ssim_bits: u64,
}

fn run_pipeline(built: &BuiltScenario) -> PipelineArtifacts {
    let field = built.spec.eval_field();
    let cfg = AmrCodecConfig::default();

    let mut field_bits = Vec::new();
    for lev in 0..built.hierarchy.num_levels() {
        for fab in built.hierarchy.field_level(field, lev).unwrap().fabs() {
            field_bits.extend(fab.data().iter().map(|v| v.to_bits()));
        }
    }

    let mut compressed = Vec::new();
    let mut decompressed_bits = Vec::new();
    let mut first_recon: Option<Vec<amrviz_amr::MultiFab>> = None;
    for kind in CompressorKind::PAPER {
        let comp = kind.instance();
        let c = compress_hierarchy_field(
            &built.hierarchy,
            field,
            comp.as_ref(),
            ErrorBound::Rel(1e-3),
            &cfg,
        )
        .unwrap();
        let levels = decompress_hierarchy_field(&built.hierarchy, &c, comp.as_ref(), &cfg).unwrap();
        let mut bits = Vec::new();
        for mf in &levels {
            for fab in mf.fabs() {
                bits.extend(fab.data().iter().map(|v| v.to_bits()));
            }
        }
        compressed.push((kind.label(), c.to_bytes()));
        decompressed_bits.push((kind.label(), bits));
        first_recon.get_or_insert(levels);
    }

    let orig_levels = &built.hierarchy.field(field).unwrap().levels;
    let mut meshes = Vec::new();
    for method in IsoMethod::ALL {
        let mesh = extract_amr_isosurface(&built.hierarchy, orig_levels, built.iso, method)
            .into_combined();
        let vbits: Vec<u64> = mesh
            .vertices
            .iter()
            .flat_map(|v| v.iter().map(|c| c.to_bits()))
            .collect();
        let idx: Vec<u32> = mesh.triangles.iter().flatten().copied().collect();
        meshes.push((method.label(), vbits, idx));
    }

    // Score the first compressor's reconstruction on the uniform merge.
    let recon = first_recon.unwrap();
    let recon_uniform = amrviz_amr::resample::flatten_levels_to_finest(
        &built.hierarchy,
        &recon,
        amrviz_amr::resample::Upsample::PiecewiseConstant,
    )
    .unwrap()
    .data;
    let q = quality(&built.uniform.data, &recon_uniform);
    let s = ssim3(
        &built.uniform.data,
        &recon_uniform,
        built.uniform.dims(),
        &SsimConfig::default(),
    );

    PipelineArtifacts {
        field_bits,
        compressed,
        decompressed_bits,
        meshes,
        psnr_bits: q.psnr.to_bits(),
        ssim_bits: s.to_bits(),
    }
}

fn assert_thread_invariant(build: impl Fn() -> BuiltScenario, label: &str) {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = amrviz_par::threads();

    amrviz_par::set_threads(1);
    let baseline = run_pipeline(&build());
    assert!(!baseline.field_bits.is_empty());
    assert!(baseline.meshes.iter().all(|(_, v, _)| !v.is_empty()));

    for n in [2, 8] {
        amrviz_par::set_threads(n);
        let got = run_pipeline(&build());
        assert_eq!(
            got, baseline,
            "{label}: pipeline artifacts diverged at {n} threads"
        );
    }
    amrviz_par::set_threads(prev);
}

#[test]
fn nyx_pipeline_is_bit_identical_at_1_2_8_threads() {
    assert_thread_invariant(|| nyx_like(42), "Nyx");
}

#[test]
fn warpx_pipeline_is_bit_identical_at_1_2_8_threads() {
    // The marcher hands out 32-layer chunks; the raw vertex and index
    // buffers compared here must come from a grid spanning several of them
    // (the Nyx scenario's 64-cell levels span only two).
    let hier = warpx_like(42).hierarchy;
    let tall = hier.level_domain(hier.num_levels() - 1).size()[2];
    assert!(tall >= 3 * 32, "finest level only {tall} cells tall");
    // `ssim3` hands each pool thread one task of z origins (window 7,
    // stride 2): at 8 threads the score compared here must fold 8 tasks
    // and a ragged last one.
    let z_origins = (tall - 7).div_ceil(2) + 1;
    let chunk = z_origins.div_ceil(8);
    assert!(
        z_origins.div_ceil(chunk) == 8 && !z_origins.is_multiple_of(chunk),
        "{z_origins} z origins"
    );
    assert_thread_invariant(|| warpx_like(42), "WarpX");
}

/// Value-based histograms (sizes, hit rates — anything not measuring wall
/// time) must aggregate to the exact same distribution at any thread
/// count: the sharded recorders merge bucket-wise with commutative integer
/// sums, and the recorded values themselves are bit-deterministic.
const VALUE_HISTOGRAMS: [&str; 4] = [
    "compress.blob_bytes",
    "compress.model_bytes",
    "compress.side_bytes",
    "quantizer.hit_pct",
];

/// `(name, count, sum, min, max, nonzero buckets)` for each value-based
/// histogram recorded during one instrumented pipeline run.
type HistFingerprint = Vec<(String, u64, u64, u64, u64, Vec<(u64, u64, u64)>)>;

fn instrumented_hist_fingerprint(built: &BuiltScenario) -> HistFingerprint {
    amrviz_obs::reset();
    amrviz_obs::enable();
    let _ = run_pipeline(built);
    amrviz_obs::disable();
    let hists = amrviz_obs::histograms_snapshot();
    amrviz_obs::reset();
    VALUE_HISTOGRAMS
        .iter()
        .filter_map(|&name| {
            hists.get(name).map(|h| {
                (
                    name.to_string(),
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max(),
                    h.nonzero_buckets(),
                )
            })
        })
        .collect()
}

#[test]
fn value_histograms_are_bit_identical_across_thread_counts() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = amrviz_par::threads();
    let built = warpx_like(42);

    amrviz_par::set_threads(1);
    let baseline = instrumented_hist_fingerprint(&built);
    assert_eq!(
        baseline.len(),
        VALUE_HISTOGRAMS.len(),
        "pipeline must record every value-based histogram: {baseline:?}"
    );
    for (name, count, ..) in &baseline {
        assert!(*count > 0, "{name} recorded nothing");
    }

    for n in [2, 8] {
        amrviz_par::set_threads(n);
        let got = instrumented_hist_fingerprint(&built);
        assert_eq!(
            got, baseline,
            "value-based histograms diverged at {n} threads"
        );
    }
    amrviz_par::set_threads(prev);
}

#[test]
fn thread_count_resolution_order() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = amrviz_par::threads();
    // An explicit override wins over everything and is clamped to >= 1.
    amrviz_par::set_threads(3);
    assert_eq!(amrviz_par::threads(), 3);
    amrviz_par::set_threads(prev);
}
