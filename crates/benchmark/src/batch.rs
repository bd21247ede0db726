//! The repro clock: three batch workloads that run the paper's chain
//! (compress → container → decompress → merge → score → extract) in a
//! loop, one caller, and check every output of every iteration.

use crate::input::{build_input, Input};
use crate::probe;
use crate::run::{ms, peak_rss_mib, write_spans, Outcome, RunOpts, Tally, SETUP_REPEATS};
use crate::spec::{Metrics, Spec};
use crate::stats::{fastest, p50, percentile};
use crate::trace::{per_op_seconds, Tracer};
use amrviz_amr::resample::{flatten_levels_to_finest, Upsample};
use amrviz_amr::MultiFab;
use amrviz_codec::fnv1a_64;
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, CompressedHierarchyField,
    ErrorBound,
};
use amrviz_core::prelude::*;
use amrviz_metrics::{quality, ssim3, SsimConfig};
use amrviz_rng::Rng;
use amrviz_viz::{extract_amr_isosurface, AmrIsoResult};
use std::time::Instant;

/// The repo's error-bound convention (`tests/tests/error_bounds.rs`).
const BOUND_SLACK: f64 = 1.0 + 1e-12;

/// One (compressor, bound, container option) combination of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub label: &'static str,
    pub kind: CompressorKind,
    pub rel_eb: f64,
    pub cfg: AmrCodecConfig,
}

impl Cell {
    const fn new(label: &'static str, kind: CompressorKind, rel_eb: f64) -> Cell {
        Cell {
            label,
            kind,
            rel_eb,
            cfg: AmrCodecConfig {
                skip_redundant: false,
                restore_redundant: false,
            },
        }
    }

    /// The compressor's short key (as in the `compress.<key>.*` metrics)
    /// and the names of its compress and decompress spans.
    fn names(&self) -> (&'static str, &'static str, &'static str) {
        match self.kind {
            CompressorKind::SzLr => ("szlr", "compress.enc.szlr", "compress.dec.szlr"),
            CompressorKind::SzInterp => ("interp", "compress.enc.interp", "compress.dec.interp"),
            CompressorKind::ZfpLike => ("zfp", "compress.enc.zfp", "compress.dec.zfp"),
        }
    }
}

/// How a cell's reconstruction is scored.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Score {
    /// Merge to the finest uniform grid, then `quality` + `ssim3` against
    /// the reference merge (the paper's Table 2 columns).
    Uniform,
    /// Bound check level by level on the fab data itself.
    PerLevel,
}

/// A batch workload: which scenario, which cells, how they are scored and
/// whether the surfaces are extracted.
struct Plan {
    app: Application,
    cells: Vec<Cell>,
    score: Score,
    extract: bool,
}

fn plan(name: &str) -> Plan {
    use CompressorKind::{SzInterp, SzLr, ZfpLike};
    match name {
        "nyx_pipeline" => Plan {
            app: Application::Nyx,
            cells: vec![Cell::new("szlr@1e-3", SzLr, 1e-3)],
            score: Score::Uniform,
            extract: true,
        },
        // The paper's Table 2 sweep.
        "warpx_table2" => Plan {
            app: Application::Warpx,
            cells: vec![
                Cell::new("szlr@1e-4", SzLr, 1e-4),
                Cell::new("szlr@1e-3", SzLr, 1e-3),
                Cell::new("szlr@1e-2", SzLr, 1e-2),
                Cell::new("interp@1e-4", SzInterp, 1e-4),
                Cell::new("interp@1e-3", SzInterp, 1e-3),
                Cell::new("interp@1e-2", SzInterp, 1e-2),
            ],
            score: Score::Uniform,
            extract: false,
        },
        "nyx_codec" => Plan {
            app: Application::Nyx,
            cells: vec![
                Cell::new("szlr@1e-3", SzLr, 1e-3),
                Cell::new("interp@1e-3", SzInterp, 1e-3),
                Cell::new("zfp@1e-3", ZfpLike, 1e-3),
                Cell {
                    cfg: AmrCodecConfig {
                        skip_redundant: true,
                        restore_redundant: true,
                    },
                    ..Cell::new("szlr+skip@1e-3", SzLr, 1e-3)
                },
            ],
            score: Score::PerLevel,
            extract: false,
        },
        other => unreachable!("`{other}` is not a batch workload"),
    }
}

/// Everything one cell produced that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOut {
    pub container_hash: u64,
    pub compressed_bytes: usize,
    pub container_bytes: usize,
    pub pieces: usize,
    pub cr: f64,
    pub psnr: f64,
    pub ssim: f64,
    /// Largest pointwise error as a share of the absolute bound.
    pub err_over_eb: f64,
}

/// Triangle count, vertex count and total area of one extraction.
type MeshOut = (usize, usize, f64);

/// The checked outputs of one iteration.
#[derive(Debug, Clone, PartialEq)]
struct IterOut {
    cells: Vec<CellOut>,
    meshes: Vec<MeshOut>,
}

/// A set-up workload: the input, what the checks compare against, and the
/// outputs of the warm-up iteration.
struct State {
    input: Input,
    /// Original fab data per level, `MultiFab::to_flat` order.
    orig_flat: Vec<Vec<f64>>,
    /// Per level, which cells finer data covers (same order). The bound
    /// is not promised there when redundant data is skipped.
    covered: Vec<Vec<bool>>,
    reference: IterOut,
}

fn mesh_out(res: &AmrIsoResult) -> MeshOut {
    let m = &res.level_meshes;
    (
        res.total_triangles(),
        m.iter().map(|m| m.num_vertices()).sum(),
        m.iter().map(|m| m.total_area()).sum(),
    )
}

/// Runs one iteration under the tracer. Returns the outputs, the problems
/// found, and when the first cell had been scored.
fn iteration(
    plan: &Plan,
    input: &Input,
    orig_flat: &[Vec<f64>],
    covered: &[Vec<bool>],
    tr: &mut Tracer,
) -> (IterOut, Vec<String>, Instant) {
    let hier = &input.hier;
    let mut problems = Vec::new();
    let mut cells = Vec::with_capacity(plan.cells.len());
    let mut first_scored = None;
    let mut last_levels: Vec<MultiFab> = Vec::new();
    for cell in &plan.cells {
        let comp = cell.kind.instance();
        let (_, enc_name, dec_name) = cell.names();
        let compressed = tr.span(enc_name, || {
            compress_hierarchy_field(
                hier,
                input.field,
                comp.as_ref(),
                ErrorBound::Rel(cell.rel_eb),
                &cell.cfg,
            )
            .expect("the evaluation field exists")
        });
        let bytes = tr.span("amr_codec.to_bytes", || compressed.to_bytes());
        let parsed = tr.span("amr_codec.from_bytes", || {
            CompressedHierarchyField::from_bytes(&bytes)
        });
        let open = tr.begin("check.container");
        let container_hash = fnv1a_64(&bytes);
        let parsed = match parsed {
            Ok(p) => {
                if p.blobs != compressed.blobs
                    || p.checksums != compressed.checksums
                    || p.abs_eb.to_bits() != compressed.abs_eb.to_bits()
                {
                    problems.push(format!("{}: container round trip differs", cell.label));
                }
                p
            }
            Err(e) => {
                problems.push(format!("{}: container does not parse: {e}", cell.label));
                compressed.clone()
            }
        };
        tr.end(open);
        let levels = match tr.span(dec_name, || {
            decompress_hierarchy_field(hier, &parsed, comp.as_ref(), &cell.cfg)
        }) {
            Ok(l) => l,
            Err(e) => {
                problems.push(format!("{}: decompress failed: {e}", cell.label));
                continue;
            }
        };
        let eb = compressed.abs_eb;
        let (mut psnr, mut ssim) = (0.0, 0.0);
        let err_over_eb = match plan.score {
            Score::Uniform => {
                let recon = tr.span("amr.flatten", || {
                    flatten_levels_to_finest(hier, &levels, Upsample::PiecewiseConstant)
                        .expect("levels sit on the hierarchy")
                });
                let reference = &input.uniform;
                let q = tr.span("metrics.quality", || quality(&reference.data, &recon.data));
                ssim = tr.span("metrics.ssim3", || {
                    ssim3(
                        &reference.data,
                        &recon.data,
                        reference.dims(),
                        &SsimConfig::default(),
                    )
                });
                psnr = q.psnr;
                if !(psnr.is_finite() && psnr > 0.0 && ssim > 0.0 && ssim <= 1.0) {
                    problems.push(format!(
                        "{}: trivial score psnr {psnr} ssim {ssim}",
                        cell.label
                    ));
                }
                q.max_abs_err / eb
            }
            Score::PerLevel => {
                let mut worst = 0.0f64;
                for (lev, mf) in levels.iter().enumerate() {
                    let flat = tr.span("amr.to_flat", || mf.to_flat());
                    let masked = cell.cfg.skip_redundant && lev + 1 < levels.len();
                    let err = if masked {
                        tr.span("check.bound", || {
                            orig_flat[lev]
                                .iter()
                                .zip(&flat)
                                .zip(&covered[lev])
                                .filter(|(_, &c)| !c)
                                .fold(0.0f64, |m, ((o, d), _)| m.max((o - d).abs()))
                        })
                    } else {
                        tr.span("metrics.quality", || quality(&orig_flat[lev], &flat))
                            .max_abs_err
                    };
                    worst = worst.max(err / eb);
                }
                worst
            }
        };
        // `!(a <= b)` so that a NaN error fails the check too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(err_over_eb <= BOUND_SLACK) {
            problems.push(format!(
                "{}: max error is {err_over_eb} of the bound {eb:e}",
                cell.label
            ));
        }
        let compressed_bytes = compressed.compressed_bytes();
        let cr = (compressed.n_values * 8) as f64 / compressed_bytes as f64;
        if !(cr.is_finite() && cr > 1.0) {
            problems.push(format!("{}: trivial compression ratio {cr}", cell.label));
        }
        cells.push(CellOut {
            container_hash,
            compressed_bytes,
            container_bytes: bytes.len(),
            pieces: compressed.blobs.iter().map(Vec::len).sum(),
            cr,
            psnr,
            ssim,
            err_over_eb,
        });
        first_scored.get_or_insert_with(Instant::now);
        last_levels = levels;
    }
    let mut meshes = Vec::new();
    if plan.extract && !last_levels.is_empty() {
        for (name, method) in [
            ("viz.resampling", IsoMethod::Resampling),
            ("viz.dual", IsoMethod::DualCellRedundant),
        ] {
            let res = tr.span(name, || {
                extract_amr_isosurface(hier, &last_levels, input.iso, method)
            });
            let out = tr.span("check.mesh", || mesh_out(&res));
            if out.0 == 0 || out.1 == 0 || !(out.2.is_finite() && out.2 > 0.0) {
                problems.push(format!("{name}: trivial surface {out:?}"));
            }
            meshes.push(out);
        }
    }
    (
        IterOut { cells, meshes },
        problems,
        first_scored.unwrap_or_else(Instant::now),
    )
}

/// Scenario synthesis, the reference merge, what the checks compare
/// against, and the warm-up iteration: everything `setup_s` times.
fn setup(plan: &Plan, opts: &RunOpts, tally: &mut Tally) -> State {
    let input = build_input(plan.app, opts.scale, 0, &mut Rng::seed(opts.seed));
    let (mut orig_flat, mut covered) = (Vec::new(), Vec::new());
    if plan.score == Score::PerLevel {
        let levels = &input.hier.field(input.field).expect("field exists").levels;
        for (lev, mf) in levels.iter().enumerate() {
            orig_flat.push(mf.to_flat());
            covered.push(if lev + 1 < levels.len() {
                let mask = input.hier.covered_mask(lev);
                let as_field = MultiFab::from_fn(input.hier.box_array(lev), |iv| {
                    f64::from(u8::from(mask.get(iv)))
                });
                as_field.to_flat().iter().map(|&v| v != 0.0).collect()
            } else {
                Vec::new()
            });
        }
    }
    let mut idle = Tracer::new(Instant::now());
    let (reference, problems, _) = iteration(plan, &input, &orig_flat, &covered, &mut idle);
    tally.record(|| "warm-up iteration".into(), &problems);
    State {
        input,
        orig_flat,
        covered,
        reference,
    }
}

/// Runs one batch workload.
pub fn run<'a>(name: &str, opts: &RunOpts, spec: &'a Spec) -> Outcome<'a> {
    let plan = plan(name);
    let mut tally = Tally::default();

    // Set up several times and report the median; the last one is used.
    let repeats = if opts.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(&plan, opts, &mut tally));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one set-up");

    // Measured phase. A traced run records every other iteration, so the
    // same process prices the tracing.
    let mut tracer = Tracer::new(Instant::now());
    let (mut iter_s, mut first_s, mut recorded) = (Vec::new(), Vec::new(), Vec::new());
    let loop_start = Instant::now();
    while loop_start.elapsed().as_secs_f64() < opts.seconds || iter_s.len() < 2 {
        let i = iter_s.len();
        let record = opts.trace && i % 2 == 0;
        tracer.start_op(i as u64, record);
        let root = tracer.begin("iteration");
        let t = Instant::now();
        let (out, mut problems, first) = iteration(
            &plan,
            &state.input,
            &state.orig_flat,
            &state.covered,
            &mut tracer,
        );
        let dt = t.elapsed().as_secs_f64();
        tracer.end(root);
        if out != state.reference {
            problems.push("outputs differ from the warm-up iteration".into());
        }
        tally.record(|| format!("iteration {i}"), &problems);
        iter_s.push(dt);
        first_s.push((first - t).as_secs_f64());
        recorded.push(record);
    }
    let peak_rss = peak_rss_mib();
    let spans = tracer.into_spans();
    let cells = &state.reference.cells;
    let n_cells = cells.len() as f64;
    let cr_geomean = (cells.iter().map(|c| c.cr.ln()).sum::<f64>() / n_cells).exp();

    println!(
        "{name}: {} cells, {:.2} MB raw per cell, {} cell(s) per iteration, {} measured \
         iteration(s): fastest {:.1} ms, p50 {:.1} ms, p90 {:.1} ms; set-up samples {:?}",
        state.input.cells(),
        state.input.raw_mb(),
        cells.len(),
        iter_s.len(),
        ms(fastest(&iter_s)),
        ms(p50(&iter_s)),
        ms(percentile(&iter_s, 90.0)),
        setup_s
    );

    if !opts.trace {
        let mut m = Metrics::required(&spec.end_to_end);
        m.set("setup_s", p50(&setup_s));
        m.set("first_min_ms", ms(fastest(&first_s)));
        m.set("op_min_ms", ms(fastest(&iter_s)));
        m.set("peak_rss_mb", peak_rss);
        m.set("cr", cr_geomean);
        return Outcome {
            metrics: m,
            tally,
            warnings: Vec::new(),
            spans,
        };
    }

    let mut m = Metrics::zeroed(&spec.per_layer);
    let raw_mb = state.input.raw_mb();
    let uniform_cells = state.input.uniform.data.len() as f64;
    let med = |prefix: &str| -> Option<f64> {
        let v = per_op_seconds(&spans, prefix);
        (!v.is_empty()).then(|| p50(&v))
    };
    let enc_s = med("compress.enc").unwrap_or(0.0);
    let dec_s = med("compress.dec").unwrap_or(0.0);
    m.set("compress.enc_s", enc_s);
    m.set("compress.dec_s", dec_s);
    for key in ["szlr", "interp", "zfp"] {
        let n = plan.cells.iter().filter(|c| c.names().0 == key).count() as f64;
        for dir in ["enc", "dec"] {
            if let Some(s) = med(&format!("compress.{dir}.{key}")) {
                m.set(&format!("compress.{key}.{dir}_mbs"), n * raw_mb / s);
            }
        }
    }
    let sum = |f: fn(&CellOut) -> usize| cells.iter().map(f).sum::<usize>() as f64;
    m.set("compress.bytes_out", sum(|c| c.compressed_bytes));
    m.set(
        "compress.err_over_eb_max",
        cells.iter().map(|c| c.err_over_eb).fold(0.0, f64::max),
    );
    m.set(
        "amr_codec.to_bytes_s",
        med("amr_codec.to_bytes").unwrap_or(0.0),
    );
    m.set(
        "amr_codec.from_bytes_s",
        med("amr_codec.from_bytes").unwrap_or(0.0),
    );
    m.set("amr_codec.container_bytes", sum(|c| c.container_bytes));
    m.set("amr_codec.pieces", sum(|c| c.pieces));
    if let Some(s) = med("amr.flatten") {
        m.set("amr.flatten_s", s);
        m.set("amr.flatten_mbs", n_cells * uniform_cells * 8.0 / 1e6 / s);
    }
    m.set("metrics.quality_s", med("metrics.quality").unwrap_or(0.0));
    if let Some(s) = med("metrics.ssim3") {
        m.set("metrics.ssim3_s", s);
        m.set("metrics.ssim3_mcells_s", n_cells * uniform_cells / 1e6 / s);
        m.set(
            "metrics.rssim",
            cells.iter().map(|c| 1.0 - c.ssim).sum::<f64>() / n_cells,
        );
    }
    let mut extract_s = 0.0;
    for (name, mesh) in ["viz.resampling", "viz.dual"]
        .iter()
        .zip(&state.reference.meshes)
    {
        let s = med(name).expect("extraction ran in every traced iteration");
        extract_s += s;
        m.set(&format!("{name}_s"), s);
        m.set(&format!("{name}_mtris_s"), mesh.0 as f64 / 1e6 / s);
    }
    m.set(
        "viz.triangles",
        state.reference.meshes.iter().map(|x| x.0).sum::<usize>() as f64,
    );
    m.set("gen.sent", iter_s.len() as f64);
    m.set("first.p50_ms", ms(p50(&first_s)));
    m.set("op.p50_ms", ms(p50(&iter_s)));
    m.set("op.p90_ms", ms(percentile(&iter_s, 90.0)));
    let pick = |want: bool| -> Vec<f64> {
        iter_s
            .iter()
            .zip(&recorded)
            .filter(|(_, &r)| r == want)
            .map(|(&s, _)| s)
            .collect()
    };
    m.set(
        "trace.overhead_frac",
        p50(&pick(true)) / p50(&pick(false)) - 1.0,
    );

    // Probes, after the measured phase.
    let two = probe::second_thread_pass(
        &state.input,
        &plan.cells,
        plan.extract,
        &state.reference.cells,
        &mut tally,
    );
    m.set("par.enc_speedup", enc_s / two.enc_s.max(1e-12));
    m.set("par.dec_speedup", dec_s / two.dec_s.max(1e-12));
    m.set("par.efficiency", two.util.efficiency().unwrap_or(0.0));
    m.set("par.regions", two.util.regions as f64);
    if plan.extract {
        m.set(
            "par.extract_speedup",
            extract_s / two.extract_s.iter().sum::<f64>().max(1e-12),
        );
        for (name, s) in [
            "viz.resampling.l0_s",
            "viz.resampling.l1_s",
            "viz.dual.l0_s",
            "viz.dual.l1_s",
        ]
        .iter()
        .zip(&two.level_s)
        {
            m.set(name, *s);
        }
    }
    probe::codec_streams(&state.input, plan.cells[0].rel_eb, &mut m);
    write_spans(name, opts, &spans);
    Outcome {
        metrics: m,
        tally,
        warnings: Vec::new(),
        spans,
    }
}
