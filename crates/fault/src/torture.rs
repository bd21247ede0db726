//! The torture runner: feed deterministically corrupted streams to every
//! public decoder and assert the robustness contract — `Err`, never a
//! panic, never an allocation blow-up.
//!
//! Each iteration forks a child RNG from `(seed, iteration)`, picks a
//! decode target, corrupts that target's known-good corpus stream with
//! 1–3 [`Mutation`]s, and decodes under [`DecodeBudget::strict`] inside
//! `catch_unwind`. Peak allocation above the pre-decode baseline is
//! checked against a cap when [`amrviz_obs::mem::CountingAlloc`] is
//! installed as the global allocator (the `amrviz torture` subcommand
//! installs it; plain `cargo test` does not, and the memory assertion is
//! skipped there rather than reporting fake peaks).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use amrviz_amr::{AmrHierarchy, Box3, BoxArray, Geometry, IntVect, MultiFab};
use amrviz_codec::{
    fnv1a_64, huffman_decode_into, huffman_encode, lzss_compress, lzss_decompress_into,
    read_uvarint, write_uvarint, BitReader, BitWriter, DecodeBudget,
};
use amrviz_compress::{
    compress_hierarchy_field, compress_zmesh, decompress_hierarchy_field_into, decompress_zmesh,
    AmrCodecConfig, CompressError, CompressedHierarchyField, Compressor, DecodePolicy, ErrorBound,
    SzInterp, SzLr, ZfpLike,
};
use amrviz_obs::mem::{alloc_baseline, counting_alloc_installed, peak_since};
use amrviz_recipe::ScenarioSpec;
use amrviz_rng::Rng;

use crate::mutate::{mutate_stream, Mutation};

/// Peak-allocation cap per decode, in bytes (checked only when the
/// counting allocator is installed).
const MAX_PEAK_BYTES: usize = 128 << 20;

/// Torture-run parameters.
#[derive(Debug, Clone, Copy)]
pub struct TortureConfig {
    /// Master seed; every iteration's RNG is forked from it.
    pub seed: u64,
    /// Number of (target, mutation) iterations.
    pub iters: u32,
    /// Number of recipe-sampled hierarchy targets appended to the corpus
    /// (0 = paper corpus only). Each is a scenario drawn from the recipe
    /// space ([`ScenarioSpec::sample`]) whose compressed container is
    /// corrupted like any other target; violations print the reproducing
    /// recipe string.
    pub recipes: u32,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            seed: 7,
            iters: 500,
            recipes: 0,
        }
    }
}

/// A typed decode failure: the codec-taxonomy class (`corrupt` /
/// `truncated` / `budget`) plus the rendered message. The torture loop
/// matches on the class so the report shows *which kind* of graceful error
/// each target produced — the same split serve uses for retryable-vs-fatal.
pub struct DecodeFailure {
    /// Stable class name from [`amrviz_codec::CodecError::class`].
    pub class: &'static str,
    /// Human-readable message (kept for violation triage only).
    pub msg: String,
}

/// Classifies a codec or container error; a codec error keeps its class
/// through [`CompressError`]'s `From`.
fn fail(e: impl Into<CompressError>) -> DecodeFailure {
    let e = e.into();
    DecodeFailure {
        class: e.class(),
        msg: e.to_string(),
    }
}

type DecodeFn = Box<dyn Fn(&[u8], &DecodeBudget) -> Result<(), DecodeFailure> + Sync>;

/// A named decoder plus a known-good stream to corrupt.
struct Target {
    name: String,
    /// Reproducing recipe string for recipe-sampled targets (empty for
    /// the fixed corpus); appended to violation reports.
    repro: String,
    stream: Vec<u8>,
    decode: DecodeFn,
}

impl Target {
    fn fixed(name: &str, stream: Vec<u8>, decode: DecodeFn) -> Target {
        Target {
            name: name.to_string(),
            repro: String::new(),
            stream,
            decode,
        }
    }
}

/// Per-target tallies.
#[derive(Debug, Clone, Default)]
pub struct TargetTally {
    /// Target name.
    pub name: String,
    /// Iterations that hit this target.
    pub runs: u64,
    /// Decodes that returned `Err` (the expected outcome).
    pub errors: u64,
    /// `Err` outcomes classified [`CodecError::Corrupt`]-like.
    ///
    /// [`CodecError::Corrupt`]: amrviz_codec::CodecError::Corrupt
    pub errors_corrupt: u64,
    /// `Err` outcomes classified truncation.
    pub errors_truncated: u64,
    /// `Err` outcomes where a [`DecodeBudget`] cap (size or deadline)
    /// tripped.
    pub errors_budget: u64,
    /// Decodes that returned `Ok` (mutation landed somewhere harmless).
    pub oks: u64,
    /// Decodes that panicked — contract violations.
    pub panics: u64,
    /// Decodes whose peak allocation broke the cap — contract violations.
    pub over_budget: u64,
}

/// Aggregate result of a torture run.
#[derive(Debug, Clone)]
pub struct TortureReport {
    /// Config echo.
    pub seed: u64,
    /// Config echo.
    pub iters: u32,
    /// Config echo: recipe-sampled targets appended to the corpus.
    pub recipes: u32,
    /// Total graceful `Err` outcomes.
    pub graceful_errors: u64,
    /// Total harmless `Ok` outcomes.
    pub harmless_ok: u64,
    /// Total panics (must be 0).
    pub panics: u64,
    /// Total peak-allocation violations (must be 0).
    pub over_budget: u64,
    /// Whether peak allocation was actually measured.
    pub mem_checked: bool,
    /// Per-target breakdown.
    pub per_target: Vec<TargetTally>,
    /// Up to 8 descriptions of contract violations, for triage.
    pub violations: Vec<String>,
}

impl TortureReport {
    /// The robustness contract: no panics, no allocation blow-ups.
    pub fn passed(&self) -> bool {
        self.panics == 0 && self.over_budget == 0
    }

    /// Single-line machine-readable JSON summary.
    pub fn to_json(&self) -> String {
        let mut targets = String::new();
        for (i, t) in self.per_target.iter().enumerate() {
            if i > 0 {
                targets.push(',');
            }
            targets.push_str(&format!(
                "{{\"name\":\"{}\",\"runs\":{},\"errors\":{},\"corrupt\":{},\"truncated\":{},\"budget\":{},\"oks\":{},\"panics\":{},\"over_budget\":{}}}",
                t.name,
                t.runs,
                t.errors,
                t.errors_corrupt,
                t.errors_truncated,
                t.errors_budget,
                t.oks,
                t.panics,
                t.over_budget
            ));
        }
        format!(
            "{{\"seed\":{},\"iters\":{},\"recipes\":{},\"graceful_errors\":{},\"harmless_ok\":{},\"panics\":{},\"over_budget\":{},\"mem_checked\":{},\"passed\":{},\"targets\":[{}]}}",
            self.seed,
            self.iters,
            self.recipes,
            self.graceful_errors,
            self.harmless_ok,
            self.panics,
            self.over_budget,
            self.mem_checked,
            self.passed(),
            targets
        )
    }
}

/// Small two-level hierarchy used to build compressed corpus streams. The
/// coarse level is two fabs, one chunk: under `skip_redundant` the first,
/// under the fine patch, is cut into sub-box pieces and the second is one
/// whole-box piece.
fn corpus_hierarchy() -> AmrHierarchy {
    let geom = Geometry::new(Box3::from_dims(8, 8, 8), [0.0; 3], [1.0; 3]);
    let mut h = AmrHierarchy::new(
        geom,
        vec![2],
        vec![
            BoxArray::new(vec![
                Box3::new(IntVect::new(0, 0, 0), IntVect::new(7, 7, 3)),
                Box3::new(IntVect::new(0, 0, 4), IntVect::new(7, 7, 7)),
            ]),
            BoxArray::single(Box3::new(IntVect::new(2, 2, 0), IntVect::new(9, 9, 5))),
        ],
    )
    .expect("corpus hierarchy is valid");
    h.add_field_from_fn("density", |lev, iv| {
        (iv[0] as f64 * 0.3).sin()
            + (iv[1] as f64 * 0.2).cos()
            + 0.1 * lev as f64
            + 0.01 * iv[2] as f64
    })
    .expect("field fits hierarchy");
    h
}

/// The skip+restore config: the structurally hardest decode path, and the
/// one that cuts coarse fabs into sub-box pieces.
const SKIP_RESTORE: AmrCodecConfig = AmrCodecConfig {
    skip_redundant: true,
    restore_redundant: true,
};

/// `c`'s chunk decoder, past its checksum: the stream is the coarse level's
/// one chunk of the corpus container (skip+restore) — several pieces, sub-box
/// and whole-box — and every corrupted chunk is put back into the container
/// with its FNV-1a re-stamped before a strict decode. All decodes share one
/// arena of level storage, which starts as NaN and stays dirtied (or left
/// partially decoded) by the decode before.
fn chunk_target<C: Compressor + 'static>(name: &str, c: C) -> Target {
    let hier = corpus_hierarchy();
    let compressed =
        compress_hierarchy_field(&hier, "density", &c, ErrorBound::Rel(1e-3), &SKIP_RESTORE)
            .expect("corpus hierarchy compresses");
    let stream = compressed.blobs[0][0].clone();
    let arena: Vec<MultiFab> = (0..hier.num_levels())
        .map(|lev| MultiFab::from_fn(hier.box_array(lev), |_| f64::NAN))
        .collect();
    let state = Mutex::new((compressed, arena));
    Target::fixed(
        name,
        stream,
        Box::new(move |bytes, budget| {
            let mut state = state.lock().unwrap_or_else(|p| p.into_inner());
            let (compressed, levels) = &mut *state;
            let blob = &mut compressed.blobs[0][0];
            blob.clear();
            blob.extend_from_slice(bytes);
            compressed.checksums[0][0] = fnv1a_64(bytes);
            let policy = DecodePolicy::Strict;
            decompress_hierarchy_field_into(
                &hier,
                compressed,
                &c,
                &SKIP_RESTORE,
                policy,
                budget,
                levels,
            )
            .map(|_| ())
            .map_err(fail)
        }),
    )
}

/// Builds the full decoder corpus: every public decode entry point, each
/// with a valid stream produced by its own encoder.
fn build_targets() -> Vec<Target> {
    let mut targets = Vec::new();

    // --- codec layer ---
    let mut varint_stream = Vec::new();
    for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
        write_uvarint(&mut varint_stream, v);
    }
    targets.push(Target::fixed(
        "varint",
        varint_stream,
        Box::new(|bytes, _| {
            let mut pos = 0;
            while pos < bytes.len() {
                read_uvarint(bytes, &mut pos).map_err(fail)?;
            }
            Ok(())
        }),
    ));

    let mut bw = BitWriter::new();
    for i in 0..200u64 {
        bw.write_bits(i, 1 + (i % 13) as u32);
    }
    targets.push(Target::fixed(
        "bitio",
        bw.finish(),
        Box::new(|bytes, _| {
            let mut r = BitReader::new(bytes);
            loop {
                if r.read_bits(7).is_err() {
                    return Ok(()); // clean EOF is the only exit
                }
            }
        }),
    ));

    let symbols: Vec<u32> = (0..2000u32).map(|i| (i * i) % 37).collect();
    targets.push(Target::fixed(
        "huffman",
        huffman_encode(&symbols),
        Box::new(|bytes, budget| huffman_decode_into(bytes, budget, &mut Vec::new()).map_err(fail)),
    ));

    // Quantization codes of a smooth field: mostly the radius code, in runs
    // of every length, with scattered neighbours and outliers.
    let mut rng = Rng::seed(0x5275_6e73);
    let mut codes = Vec::new();
    while codes.len() < 6000 {
        let width = rng.below(11);
        codes.extend(std::iter::repeat_n(
            1u32 << 15,
            rng.below(1 << width) as usize,
        ));
        codes.push(match rng.below(8) {
            0 => 0,
            k => (1 << 15) + k as u32 - 4,
        });
    }
    targets.push(Target::fixed(
        "huffman_runs",
        huffman_encode(&codes),
        Box::new(|bytes, budget| huffman_decode_into(bytes, budget, &mut Vec::new()).map_err(fail)),
    ));

    let text: Vec<u8> = (0..3000).map(|i| ((i * 7) % 251) as u8).collect();
    targets.push(Target::fixed(
        "lzss",
        lzss_compress(&text),
        Box::new(|bytes, budget| {
            lzss_decompress_into(bytes, budget, &mut Vec::new()).map_err(fail)
        }),
    ));

    // --- compressor layer: each compressor's pieces inside one chunk ---
    targets.push(chunk_target("szlr_chunk", SzLr::default()));
    targets.push(chunk_target("szinterp_chunk", SzInterp));
    targets.push(chunk_target("zfp_like_chunk", ZfpLike));

    // --- hierarchy layer ---
    let hier = corpus_hierarchy();
    let zmesh_stream =
        compress_zmesh(&hier, "density", ErrorBound::Rel(1e-3)).expect("zmesh corpus compresses");
    {
        let hier = corpus_hierarchy();
        targets.push(Target::fixed(
            "zmesh",
            zmesh_stream,
            Box::new(move |bytes, budget| {
                decompress_zmesh(&hier, bytes, budget)
                    .map(|_| ())
                    .map_err(fail)
            }),
        ));
    }

    let container = szlr_container(&hier, "density");
    targets.push(Target::fixed(
        "container_from_bytes",
        container.clone(),
        Box::new(|bytes, budget| {
            CompressedHierarchyField::from_bytes_budgeted(bytes, budget)
                .map(|_| ())
                .map_err(fail)
        }),
    ));

    let fresh_hier = hier.clone();
    targets.push(Target::fixed(
        "hierarchy_degrade",
        container.clone(),
        Box::new(move |bytes, budget| degrade(&fresh_hier, bytes, budget, &mut Vec::new())),
    ));

    // The storage-reusing decode path: one `levels` buffer survives across
    // iterations, so every corrupted stream lands on fabs dirtied (or left
    // partially decoded) by the previous one.
    let reused_levels: Mutex<Vec<MultiFab>> = Mutex::new(Vec::new());
    targets.push(Target::fixed(
        "hierarchy_degrade_into",
        container,
        Box::new(move |bytes, budget| {
            let mut levels = reused_levels.lock().unwrap_or_else(|p| p.into_inner());
            degrade(&hier, bytes, budget, &mut levels)
        }),
    ));

    targets
}

/// `field` of `hier` compressed by SZ-L/R (skip+restore), serialized.
fn szlr_container(hier: &AmrHierarchy, field: &str) -> Vec<u8> {
    let comp = SzLr::default();
    let compressed =
        compress_hierarchy_field(hier, field, &comp, ErrorBound::Rel(1e-3), &SKIP_RESTORE);
    compressed.expect("the field compresses").to_bytes()
}

/// Parses `bytes` as a [`szlr_container`] and decodes it onto `hier` under
/// [`DecodePolicy::Degrade`], into `levels`.
fn degrade(
    hier: &AmrHierarchy,
    bytes: &[u8],
    budget: &DecodeBudget,
    levels: &mut Vec<MultiFab>,
) -> Result<(), DecodeFailure> {
    let parsed = CompressedHierarchyField::from_bytes_budgeted(bytes, budget).map_err(fail)?;
    let (comp, policy) = (SzLr::default(), DecodePolicy::Degrade);
    decompress_hierarchy_field_into(hier, &parsed, &comp, &SKIP_RESTORE, policy, budget, levels)
        .map(|_| ())
        .map_err(fail)
}

/// Builds `count` recipe-sampled hierarchy targets: each draws a
/// [`ScenarioSpec`] from the recipe space, compresses its evaluation
/// field (skip+restore config — the structurally hardest decode path),
/// and corrupts the container bytes under the `Degrade` policy. The
/// spec's canonical recipe string rides along so any violation names the
/// exact scenario to regenerate.
fn recipe_targets(seed: u64, count: u32) -> Vec<Target> {
    let mut rng = Rng::seed(seed).fork(0x7EC1FE5);
    let mut out = Vec::new();
    for _ in 0..count {
        let spec = ScenarioSpec::sample(&mut rng);
        let hier = spec.generate();
        out.push(Target {
            name: format!("recipe:{}", spec.label()),
            repro: spec.recipe.clone(),
            stream: szlr_container(&hier, spec.eval_field()),
            decode: Box::new(move |bytes, budget| degrade(&hier, bytes, budget, &mut Vec::new())),
        });
    }
    out
}

/// The ` recipe="…"` suffix a violation carries when its target came from
/// the recipe sampler — the quoted string regenerates the exact scenario.
fn repro_suffix(target: &Target) -> String {
    if target.repro.is_empty() {
        String::new()
    } else {
        format!(" recipe={:?}", target.repro)
    }
}

/// Records a contract violation into the streaming journal (kind `fault`),
/// when one is attached. The trace id is the iteration's deterministic id,
/// rendered the same way span lines render theirs, so `amrviz stats` and
/// plain grep both land on the matching violation string.
fn fault_event(what: &str, target: &str, iter: u32, seed: u64, trace: u64, kinds: &[&str]) {
    if !amrviz_obs::journal::is_active() {
        return;
    }
    let muts = kinds
        .iter()
        .map(|k| format!("\"{k}\""))
        .collect::<Vec<_>>()
        .join(",");
    amrviz_obs::journal::emit(
        "fault",
        &[
            ("what", format!("\"{what}\"")),
            ("target", format!("\"{target}\"")),
            ("iter", iter.to_string()),
            ("seed", seed.to_string()),
            ("fault_trace", format!("\"{trace:016x}\"")),
            ("mutations", format!("[{muts}]")),
        ],
    );
}

/// Runs the torture loop and returns the tally.
pub fn run_torture(cfg: &TortureConfig) -> TortureReport {
    let mut targets = build_targets();
    targets.extend(recipe_targets(cfg.seed, cfg.recipes));
    let budget = DecodeBudget::strict();
    let mem_checked = counting_alloc_installed();

    let mut tallies: Vec<TargetTally> = targets
        .iter()
        .map(|t| TargetTally {
            name: t.name.clone(),
            ..TargetTally::default()
        })
        .collect();
    let (mut graceful, mut harmless, mut panics, mut over) = (0u64, 0u64, 0u64, 0u64);
    let mut violations = Vec::new();

    // Expected-failure decodes would spam stderr with panic backtraces if
    // one slipped through; silence the hook for the duration of the run.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let master = Rng::seed(cfg.seed);
    for iter in 0..cfg.iters {
        let mut rng = master.fork(iter as u64 + 1);
        // Deterministic per-iteration trace id (seed + iteration only), so
        // a violation printed from any run names the exact iteration to
        // replay — and matches the journal's `fault` events.
        let mut tstate = cfg.seed ^ ((iter as u64 + 1) << 32);
        let trace = amrviz_rng::splitmix64(&mut tstate).max(1);
        let ti = rng.below(targets.len() as u64) as usize;
        let target = &targets[ti];
        let (mutated, muts) = mutate_stream(&mut rng, &target.stream);
        let kinds: Vec<&str> = muts.iter().map(Mutation::kind).collect();

        let base = alloc_baseline();
        let outcome = catch_unwind(AssertUnwindSafe(|| (target.decode)(&mutated, &budget)));
        let peak = peak_since(base);

        tallies[ti].runs += 1;
        match outcome {
            Ok(Ok(())) => {
                harmless += 1;
                tallies[ti].oks += 1;
            }
            Ok(Err(failure)) => {
                graceful += 1;
                tallies[ti].errors += 1;
                match failure.class {
                    "corrupt" => tallies[ti].errors_corrupt += 1,
                    "truncated" => tallies[ti].errors_truncated += 1,
                    _ => tallies[ti].errors_budget += 1,
                }
            }
            Err(payload) => {
                panics += 1;
                tallies[ti].panics += 1;
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic>".into());
                if violations.len() < 8 {
                    violations.push(format!(
                        "panic: target={} iter={iter} seed={} trace={trace:016x} \
                         mutations={kinds:?}{}: {msg}",
                        target.name,
                        cfg.seed,
                        repro_suffix(target)
                    ));
                }
                fault_event("panic", &target.name, iter, cfg.seed, trace, &kinds);
            }
        }
        if mem_checked && peak > MAX_PEAK_BYTES {
            over += 1;
            tallies[ti].over_budget += 1;
            if violations.len() < 8 {
                violations.push(format!(
                    "over_budget: target={} iter={iter} seed={} trace={trace:016x} \
                     mutations={kinds:?} peak={peak}{}",
                    target.name,
                    cfg.seed,
                    repro_suffix(target)
                ));
            }
            fault_event("over_budget", &target.name, iter, cfg.seed, trace, &kinds);
        }
    }

    std::panic::set_hook(prev_hook);

    TortureReport {
        seed: cfg.seed,
        iters: cfg.iters,
        recipes: cfg.recipes,
        graceful_errors: graceful,
        harmless_ok: harmless,
        panics,
        over_budget: over,
        mem_checked,
        per_target: tallies,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_compress::wire::{ByteReader, ByteWriter};

    #[test]
    fn corpus_streams_decode_cleanly_unmutated() {
        let budget = DecodeBudget::strict();
        for t in build_targets() {
            assert!(
                (t.decode)(&t.stream, &budget).is_ok(),
                "valid {} corpus stream must decode under the strict budget",
                t.name
            );
        }
    }

    /// Every prefix of every corpus stream, empty to whole, under the
    /// strict budget: a typed error or a decode, never a panic. The whole
    /// stream decodes, and a framed stream only whole; a varint list, a
    /// bare bit stream and LZSS (which has no end marker) may also stop at
    /// a token edge. The random input families of the codecs' own sweeps
    /// are in the integration suite's `truncation_fuzz`.
    #[test]
    fn every_prefix_of_every_corpus_stream_decodes_or_fails_typed() {
        let budget = DecodeBudget::strict();
        let targets = build_targets();
        assert_eq!(targets.len(), 12);
        for t in &targets {
            let framed = !["varint", "bitio", "lzss"].contains(&t.name.as_str());
            let len = t.stream.len();
            for cut in 0..=len {
                let run = catch_unwind(AssertUnwindSafe(|| (t.decode)(&t.stream[..cut], &budget)));
                let run = run.unwrap_or_else(|_| panic!("{}: prefix {cut} panicked", t.name));
                let whole = cut == len;
                if whole || framed {
                    assert_eq!(run.is_ok(), whole, "{}: prefix {cut} of {len}", t.name);
                }
            }
        }
    }

    /// The failures of `t` on 240 seeded mutations of `part`, each made a
    /// whole stream by `whole`; none may panic.
    fn mutated_failures(
        t: &Target,
        seed: u64,
        part: &[u8],
        whole: impl Fn(Vec<u8>) -> Vec<u8>,
    ) -> Vec<DecodeFailure> {
        let (budget, master) = (DecodeBudget::strict(), Rng::seed(seed));
        let failure = |i| {
            let (mutated, muts) = mutate_stream(&mut master.fork(i), part);
            let stream = whole(mutated);
            let outcome = catch_unwind(AssertUnwindSafe(|| (t.decode)(&stream, &budget)));
            let result = outcome.unwrap_or_else(|_| panic!("{}: {i} {muts:?} panicked", t.name));
            result.err()
        };
        (0..240).filter_map(failure).collect()
    }

    #[test]
    fn chunk_targets_reach_the_chunk_decoder_past_its_checksum() {
        let budget = DecodeBudget::strict();
        let chunks = build_targets()
            .into_iter()
            .filter(|t| t.name.ends_with("_chunk"));
        let mut seen = 0;
        for t in chunks {
            seen += 1;
            let failures = mutated_failures(&t, 0xC4C, &t.stream, |m| m);
            if let Some(e) = failures.iter().find(|e| e.msg.contains("checksum")) {
                panic!("{}: {}", t.name, e.msg);
            }
            let errors = failures.len();
            assert!(errors > 120, "{}: only {errors} of 240 failed", t.name);
            // The arena those decodes dirtied still takes the clean chunk.
            assert!((t.decode)(&t.stream, &budget).is_ok(), "{}", t.name);
        }
        assert_eq!(seen, 3, "one chunk target per compressor");
    }

    #[test]
    fn szlr_chunk_side_section_mutations_never_panic() {
        let budget = DecodeBudget::strict();
        let target = build_targets()
            .into_iter()
            .find(|t| t.name == "szlr_chunk")
            .expect("an SZ-L/R chunk target");
        // The chunk body: models, symbols, side symbols (plane categories).
        let mut r = ByteReader::new(&target.stream);
        let (models, symbols, side) = (r.section(), r.section(), r.section());
        let (models, symbols, side) = (models.unwrap(), symbols.unwrap(), side.unwrap());
        assert!(side.len() > 8, "the corpus chunk holds regression planes");
        let errors = mutated_failures(&target, 0x51DE, side, |mutated| {
            let mut w = ByteWriter::new();
            w.section(models);
            w.section(symbols);
            w.section(&mutated);
            w.finish()
        });
        let errors = errors.len();
        assert!(errors > 120, "only {errors} of 240 side mutations failed");
        assert!((target.decode)(&target.stream, &budget).is_ok());
    }

    #[test]
    fn torture_run_is_deterministic_and_panic_free() {
        let cfg = TortureConfig {
            seed: 11,
            iters: 120,
            ..Default::default()
        };
        let a = run_torture(&cfg);
        let b = run_torture(&cfg);
        assert_eq!(a.panics, 0, "violations: {:?}", a.violations);
        assert_eq!(a.over_budget, 0, "violations: {:?}", a.violations);
        assert_eq!(a.graceful_errors, b.graceful_errors);
        assert_eq!(a.harmless_ok, b.harmless_ok);
        assert_eq!(a.to_json(), b.to_json());
        assert!(
            a.graceful_errors > 0,
            "mutations should usually break decodes"
        );
        assert!(a.passed());
    }

    #[test]
    fn violations_name_reproducing_trace_ids_and_journal_faults() {
        // The per-iteration trace id depends only on (seed, iter): any two
        // runs (any thread count, any machine) derive the same id, so a
        // violation string is a complete repro pointer.
        let derive = |seed: u64, iter: u32| {
            let mut s = seed ^ ((iter as u64 + 1) << 32);
            amrviz_rng::splitmix64(&mut s).max(1)
        };
        assert_eq!(derive(7, 3), derive(7, 3));
        assert_ne!(derive(7, 3), derive(7, 4));
        assert_ne!(derive(7, 3), derive(8, 3));

        // With a journal attached, a violation lands as a `fault` line.
        let dir = std::env::temp_dir().join(format!("amrviz_fault_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faults.jsonl");
        let _ = std::fs::remove_file(&path);
        amrviz_obs::journal::start(&path).unwrap();
        let trace = derive(7, 3);
        fault_event("panic", "szlr", 3, 7, trace, &["bitflip", "truncate"]);
        amrviz_obs::journal::stop();
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text
            .lines()
            .find(|l| l.contains("\"kind\":\"fault\""))
            .expect("fault line in journal");
        assert!(line.contains("\"what\":\"panic\""), "{line}");
        assert!(line.contains("\"target\":\"szlr\""), "{line}");
        assert!(
            line.contains(&format!("\"fault_trace\":\"{trace:016x}\"")),
            "{line}"
        );
        assert!(
            line.contains("\"mutations\":[\"bitflip\",\"truncate\"]"),
            "{line}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recipe_targets_decode_cleanly_and_torture_stays_green() {
        let budget = DecodeBudget::strict();
        for t in recipe_targets(5, 3) {
            assert!(t.name.starts_with("recipe:"), "{}", t.name);
            assert!(t.repro.starts_with("(scenario"), "{}", t.repro);
            assert!(
                (t.decode)(&t.stream, &budget).is_ok(),
                "valid {} corpus stream must decode under the strict budget",
                t.name
            );
        }
        let cfg = TortureConfig {
            seed: 5,
            iters: 80,
            recipes: 3,
        };
        let a = run_torture(&cfg);
        let b = run_torture(&cfg);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.per_target.iter().any(|t| t.name.starts_with("recipe:")));
    }

    #[test]
    fn different_seeds_explore_different_corruptions() {
        let a = run_torture(&TortureConfig {
            seed: 1,
            iters: 60,
            ..Default::default()
        });
        let b = run_torture(&TortureConfig {
            seed: 2,
            iters: 60,
            ..Default::default()
        });
        // Same decoders, different corruption paths: tallies rarely align.
        assert!(
            a.graceful_errors != b.graceful_errors || a.harmless_ok != b.harmless_ok,
            "seeds 1 and 2 produced identical tallies — RNG not threaded through?"
        );
    }
}
