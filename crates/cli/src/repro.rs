//! `amrviz repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! amrviz repro <experiment> [--scale tiny|small|medium|paper] [--seed N] [--out DIR] [--check]
//! amrviz repro --suite enumerated[:RECIPE] [--seed N] [--out DIR]
//!
//! (plus the global telemetry flags every `amrviz` command takes: --threads,
//! --trace, --flame, --timing, --journal)
//!
//! experiments:
//!   table1   dataset structure (grid sizes, per-level densities)
//!   table2   CR / PSNR / SSIM / R-SSIM for SZ-L/R and SZ-Interp
//!   fig1     cracks vs gaps vs redundant-fix on original data (+ renders)
//!   fig2     AMR solver snapshots with adapting grids (+ slice renders)
//!   fig9     WarpX × SZ-L/R × {re-sampling, dual-cell} × eb sweep
//!   fig10    WarpX × SZ-Interp × methods × eb sweep
//!   fig11    Nyx × both compressors × methods at eb 1e-2
//!   fig12    rate-distortion on WarpX "Ez"
//!   fig13    rate-distortion on Nyx "Density"
//!   fig14    1D block-artifact smoothing demonstration
//!   ablation redundant-coarse-data handling (skip/restore) vs ratio
//!   all      everything above
//!   obs-overhead  instrumentation self-overhead gate (not part of `all`):
//!            Nyx × SZ-L/R timed with the recorder off vs on + journal,
//!            exits nonzero above 3 % (takes --scale, default tiny, and --out)
//!
//! `--check` judges each figure that has a machine-read verdict (`table2`,
//! `fig1`, `fig9` – `fig14` and `ablation` so far) on the rows it has just
//! recorded and exits non-zero naming the figure and the row of every claim
//! of the paper that does not hold.
//!
//! `--suite enumerated` replaces the figure experiments with the
//! recipe-enumerated scenario suite (crates/recipe): the built-in recipe
//! expands to 32 scenarios spanning field family × refinement topology ×
//! level count, and every one runs the CR/PSNR/R-SSIM matrix. Append
//! `:@FILE` to expand a recipe file, or `:(scenario …)` for an inline
//! recipe. Every summary.jsonl run row carries its reproducing canonical
//! recipe string.
//! ```
//!
//! Results print as ASCII tables; renders and machine-readable JSON land in
//! `--out` (default `repro_out/`).
//!
//! The repo's performance benchmark is not here — it is `BENCHMARK.json`
//! plus `crates/benchmark`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::obs_overhead::{run_obs_overhead, OBS_OVERHEAD_MAX_PCT};
use crate::ObsOptions;
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, Compressor, ErrorBound,
    PredictorMode, SzLr,
};
use amrviz_core::args;
use amrviz_core::experiment::{
    self, fig14_series, standard_camera, step_roughness, CompressorKind,
};
use amrviz_core::prelude::*;
use amrviz_core::report::{self, View};
use amrviz_json::Json;
use amrviz_render::{render_slice, Color, RenderOptions};
use amrviz_sim::solver::{AmrAdvection, FIELD};
use amrviz_viz::extract_amr_isosurface;

struct Args {
    experiment: String,
    /// `--suite enumerated[:RECIPE]` — recipe source for the enumerated
    /// suite (resolved to recipe text; replaces the figure experiments).
    suite: Option<String>,
    /// `None` when `--scale` was not given: the experiments default to
    /// Medium, the `obs-overhead` gate to Tiny.
    scale: Option<Scale>,
    seed: u64,
    out: PathBuf,
    /// `--check`: judge the figures' [`Verdict`]s.
    check: bool,
}

const USAGE: &str =
    "usage: amrviz repro <experiment> [--scale S] [--seed N] [--out DIR] [--check]\n\
                     or:    amrviz repro --suite enumerated[:RECIPE] [--seed N] [--out DIR]";

type Experiment = fn(&mut Ctx);

/// A figure's verdict, read off the rows its experiment recorded under the
/// figure's name in `results.json`: one line per claim of the paper that does
/// not hold, each naming its row. Empty = reproduced.
type Verdict = fn(&Json) -> Vec<String>;

/// The figure experiments in `all` order — the one list the argument check,
/// the run loop and `--check` read.
const FIGURES: [(&str, Experiment, Option<Verdict>); 11] = [
    ("table1", table1, None),
    ("table2", table2, Some(table2_verdict)),
    ("fig1", fig1, Some(fig1_verdict)),
    ("fig2", fig2, None),
    (
        "fig9",
        |c| figs_9_10(c, CompressorKind::SzLr, "fig9"),
        Some(figs_9_10_verdict),
    ),
    (
        "fig10",
        |c| figs_9_10(c, CompressorKind::SzInterp, "fig10"),
        Some(figs_9_10_verdict),
    ),
    ("fig11", fig11, Some(fig11_verdict)),
    (
        "fig12",
        |c| rate_distortion(c, Application::Warpx, "fig12"),
        Some(fig12_verdict),
    ),
    (
        "fig13",
        |c| rate_distortion(c, Application::Nyx, "fig13"),
        Some(fig13_verdict),
    ),
    ("fig14", fig14, Some(fig14_verdict)),
    ("ablation", ablation, Some(ablation_verdict)),
];

/// Why Fig. 11's geometric ordering is expected to be the reverse of the
/// paper's (EXPERIMENTS.md divergence #3).
const DIVERGENCE_3: &str = "divergence #3 (on spiky Nyx data re-sampling's 8-cell averaging \
     flattens the gradient more than it reduces the error, so its crossings move further)";

/// `field` of a recorded row; NaN — which fails every comparison — when the
/// row or the field is missing.
fn cell(row: Option<&Json>, field: &str) -> f64 {
    let value = row.and_then(|r| r.get(field));
    value.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// The recorded rows extracted with `method`.
fn rows_of(rows: &Json, method: IsoMethod) -> impl Iterator<Item = &Json> {
    let rows = rows.as_arr().unwrap_or(&[]).iter();
    rows.filter(move |r| r.get("method").and_then(Json::as_str) == Some(method.label()))
}

/// Judges one claim of the paper, `hi > lo`, on `row`. `diverges` names the
/// known divergence under which the claim is expected to fail, the other way
/// round: then anything but `hi < lo` is the failure, so an ordering that
/// flips is reported until the row and EXPERIMENTS.md are updated together.
fn ordering(row: &str, hi: (&str, f64), lo: (&str, f64), diverges: Option<&str>) -> Option<String> {
    let ((hi_name, hi), (lo_name, lo)) = (hi, lo);
    match diverges {
        None if hi > lo => None,
        None => Some(format!(
            "{row}: {hi_name} {hi:e} is not above {lo_name} {lo:e}"
        )),
        Some(_) if hi < lo => None,
        Some(known) => Some(format!(
            "{row}: {hi_name} {hi:e} is not below {lo_name} {lo:e} as {known} expects — \
             update the row and EXPERIMENTS.md together"
        )),
    }
}

/// Judges one claim of the paper, `value ≥ floor`, on `row` (NaN fails).
fn at_least(row: &str, value: (&str, f64), floor: (&str, f64)) -> Option<String> {
    let ((name, value), (floor_name, floor)) = (value, floor);
    match value >= floor {
        true => None,
        false => Some(format!(
            "{row}: {name} {value:e} is below {floor_name} {floor:e}"
        )),
    }
}

/// Fig. 1: re-sampling cracks and dual-cell gaps both exist, and the
/// redundant coarse data closes the gap to under a quarter of either.
fn fig1_verdict(rows: &Json) -> Vec<String> {
    let gap = |method| cell(rows_of(rows, method).next(), "mean_gap");
    let fixed = ("its own", gap(IsoMethod::DualCellRedundant));
    let mut failed = Vec::new();
    for open in [IsoMethod::Resampling, IsoMethod::DualCell] {
        let (label, gap) = (open.label(), gap(open));
        failed.extend(ordering(label, ("mean gap", gap), ("zero", 0.0), None));
        let quarter = (&*format!("a quarter of {label}'s mean gap"), 0.25 * gap);
        let row = IsoMethod::DualCellRedundant.label();
        failed.extend(ordering(row, quarter, fixed, None));
    }
    failed
}

/// Figs. 9–11: the paper's ordering — dual-cell worse than re-sampling in
/// `field` — at each recorded (compressor, bound) pair, of which there must
/// be `pairs`; `diverges` as in [`ordering`].
fn dual_worse(rows: &Json, pairs: usize, field: &str, diverges: Option<&str>) -> Vec<String> {
    let mut failed = Vec::new();
    let mut seen = 0;
    for basic in rows_of(rows, IsoMethod::Resampling) {
        seen += 1;
        let run = ["compressor", "rel_error_bound"];
        let dual = rows_of(rows, IsoMethod::DualCellRedundant)
            .find(|r| run.iter().all(|key| r.get(key) == basic.get(key)));
        let row = format!(
            "{} eb {:e}",
            basic.get(run[0]).and_then(Json::as_str).unwrap_or("?"),
            cell(Some(basic), run[1])
        );
        let dual = (&*format!("dual-cell {field}"), cell(dual, field));
        let basic = ("re-sampling's", cell(Some(basic), field));
        failed.extend(ordering(&row, dual, basic, diverges));
    }
    if seen != pairs {
        failed.push(format!(
            "{seen} re-sampling row(s) recorded, {pairs} expected"
        ));
    }
    failed
}

/// Figs. 9 and 10: dual-cell renders worse at each of the three bounds.
fn figs_9_10_verdict(rows: &Json) -> Vec<String> {
    dual_worse(rows, 3, "image_rssim", None)
}

/// Fig. 11: the rendered ordering holds for both compressors; the geometric
/// one is the expected failure of divergence #3.
fn fig11_verdict(rows: &Json) -> Vec<String> {
    let mut failed = dual_worse(rows, 2, "image_rssim", None);
    failed.extend(dual_worse(
        rows,
        2,
        "surface_error_cells",
        Some(DIVERGENCE_3),
    ));
    failed
}

/// The recorded rows of `kind` — and of `app`, when one is given — in
/// ascending error bound.
fn series<'a>(rows: &'a Json, app: Option<&str>, kind: CompressorKind) -> Vec<&'a Json> {
    let is = |r: &Json, key, want| r.get(key).and_then(Json::as_str) == Some(want);
    let mut series: Vec<&Json> = (rows.as_arr().unwrap_or(&[]).iter())
        .filter(|r| is(r, "compressor", kind.label()) && app.is_none_or(|app| is(r, "app", app)))
        .collect();
    series.sort_by(|a, b| {
        cell(Some(a), "rel_error_bound").total_cmp(&cell(Some(b), "rel_error_bound"))
    });
    series
}

/// Each recorded SZ-L/R row, named `"[app ]eb <bound>"`, with the SZ-Interp
/// row of the same bound (`None` when there is none); a failure line unless
/// there are `bounds` of them.
fn by_bound<'a>(
    rows: &'a Json,
    app: Option<&str>,
    bounds: usize,
    failed: &mut Vec<String>,
) -> Vec<(String, &'a Json, Option<&'a Json>)> {
    let prefix = app.map(|app| format!("{app} ")).unwrap_or_default();
    let itp = series(rows, app, CompressorKind::SzInterp);
    let pairs: Vec<_> = (series(rows, app, CompressorKind::SzLr).into_iter())
        .map(|lr| {
            let eb = lr.get("rel_error_bound");
            let row = format!("{prefix}eb {:e}", cell(Some(lr), "rel_error_bound"));
            (
                row,
                lr,
                itp.iter().copied().find(|r| r.get("rel_error_bound") == eb),
            )
        })
        .collect();
    if pairs.len() != bounds {
        failed.push(format!(
            "{prefix}{} SZ-L/R row(s) recorded, {bounds} expected",
            pairs.len()
        ));
    }
    pairs
}

/// Why SZ-Interp does not out-compress SZ-L/R on Nyx at 1e-2
/// (EXPERIMENTS.md divergence #7).
const DIVERGENCE_7: &str = "divergence #7 (at eb 1e-2 SZ-L/R's coded regression planes leave \
     95 % of the residual codes of our synthetic Nyx field zero, against 90 % for our \
     always-cubic SZ-Interp, which lacks SZ3's tuned choice of interpolator; the lead holds on \
     the one-fab coarse level too)";

/// Table 2: CR rises and PSNR falls with the bound for both apps and both
/// compressors, SZ-Interp out-compresses SZ-L/R at every bound but on Nyx at
/// 1e-2, where the reverse is divergence #7, and SZ-L/R keeps the lower
/// R-SSIM on Nyx at 1e-2.
fn table2_verdict(rows: &Json) -> Vec<String> {
    let mut failed = Vec::new();
    for app in Application::ALL.map(Application::label) {
        for kind in CompressorKind::PAPER {
            for pair in series(rows, Some(app), kind).windows(2) {
                let (tight, loose) = (Some(pair[0]), Some(pair[1]));
                let eb = cell(loose, "rel_error_bound");
                let row = format!("{app} {} eb {eb:e}", kind.label());
                let cr = |r| cell(r, "compression_ratio");
                let psnr = |r| cell(r, "psnr_db");
                failed.extend(ordering(
                    &row,
                    ("CR", cr(loose)),
                    ("the tighter bound's", cr(tight)),
                    None,
                ));
                failed.extend(ordering(
                    &row,
                    ("the tighter bound's PSNR", psnr(tight)),
                    ("PSNR", psnr(loose)),
                    None,
                ));
            }
        }
        for (row, lr, itp) in by_bound(rows, Some(app), 3, &mut failed) {
            let lr = Some(lr);
            let nyx_1e2 = app == Application::Nyx.label() && cell(lr, "rel_error_bound") == 1e-2;
            let cr = ("SZ-L/R's", cell(lr, "compression_ratio"));
            let itp_cr = ("SZ-Itp CR", cell(itp, "compression_ratio"));
            failed.extend(ordering(&row, itp_cr, cr, nyx_1e2.then_some(DIVERGENCE_7)));
            if nyx_1e2 {
                let rssim = ("SZ-L/R's", cell(lr, "rssim"));
                let itp_rssim = ("SZ-Itp R-SSIM", cell(itp, "rssim"));
                failed.extend(ordering(&row, itp_rssim, rssim, None));
            }
        }
    }
    failed
}

/// Fig. 12: on WarpX SZ-Interp spends fewer bits per value, for a higher
/// PSNR and a lower R-SSIM, at every bound.
fn fig12_verdict(rows: &Json) -> Vec<String> {
    let mut failed = Vec::new();
    for (row, lr, itp) in by_bound(rows, None, RD_EBS.len(), &mut failed) {
        let lr = Some(lr);
        let field = |name, r, key| (name, cell(r, key));
        for (hi, lo) in [
            (
                field("SZ-L/R bits/val", lr, "bits_per_value"),
                field("SZ-Itp's", itp, "bits_per_value"),
            ),
            (
                field("SZ-Itp PSNR", itp, "psnr_db"),
                field("SZ-L/R's", lr, "psnr_db"),
            ),
            (
                field("SZ-L/R R-SSIM", lr, "rssim"),
                field("SZ-Itp's", itp, "rssim"),
            ),
        ] {
            failed.extend(ordering(&row, hi, lo, None));
        }
    }
    failed
}

/// The R-SSIM of a rate-distortion `series` at `bits` per value: log-linear
/// between the two neighbouring recorded points that bracket it, NaN when
/// none do.
fn rssim_at_bits(series: &[&Json], bits: f64) -> f64 {
    let point = |r: &Json| (cell(Some(r), "bits_per_value"), cell(Some(r), "rssim").ln());
    let between = |w: &[&Json]| {
        let ((b0, r0), (b1, r1)) = (point(w[0]), point(w[1]));
        let inside = b0.min(b1) <= bits && bits <= b0.max(b1) && b0 != b1;
        inside.then(|| (r0 + (bits - b0) / (b1 - b0) * (r1 - r0)).exp())
    };
    series.windows(2).find_map(between).unwrap_or(f64::NAN)
}

/// Fig. 13: on Nyx SZ-L/R keeps the lower R-SSIM at equal bound from eb 1e-2
/// up, and at equal *bitrate*: SZ-L/R's 1e-2 point against SZ-Interp's
/// R-SSIM log-interpolated at the same bits per value.
fn fig13_verdict(rows: &Json) -> Vec<String> {
    let mut failed = Vec::new();
    for (row, lr, itp) in by_bound(rows, None, RD_EBS.len(), &mut failed) {
        let eb = cell(Some(lr), "rel_error_bound");
        let rssim = ("SZ-L/R's", cell(Some(lr), "rssim"));
        if eb >= 1e-2 {
            let itp_rssim = ("SZ-Itp R-SSIM", cell(itp, "rssim"));
            failed.extend(ordering(&row, itp_rssim, rssim, None));
        }
        if eb == 1e-2 {
            let bits = cell(Some(lr), "bits_per_value");
            let itp = series(rows, None, CompressorKind::SzInterp);
            let matched = ("SZ-Itp R-SSIM", rssim_at_bits(&itp, bits));
            let row = format!("{row} at {bits:.3} bits/val");
            failed.extend(ordering(&row, matched, rssim, None));
        }
    }
    failed
}

/// Fig. 14: re-sampling takes at least half the step roughness out of the
/// decompressed staircase.
fn fig14_verdict(rows: &Json) -> Vec<String> {
    let roughness = |key| {
        let series = rows.get(key).and_then(Json::as_arr).unwrap_or(&[]);
        let values: Vec<f64> = series
            .iter()
            .map(|v| v.as_f64().unwrap_or(f64::NAN))
            .collect();
        if values.len() < 3 {
            return f64::NAN;
        }
        step_roughness(&values)
    };
    let half = 0.5 * roughness("decompressed");
    let half = ("half the decompressed staircase's step roughness", half);
    let resampled = ("the re-sampled series'", roughness("resampled"));
    at_least("re-sampled", half, resampled)
        .into_iter()
        .collect()
}

/// Why zMesh-1D does not compress WarpX least (EXPERIMENTS.md divergence #6).
const DIVERGENCE_6: &str = "divergence #6 (forced onto every block of smooth WarpX data, where \
     the hybrid picks Lorenzo, a regression plane leaves larger residuals than Lorenzo and adds \
     four coded plane coefficients per 6³ block)";

/// The ablation: skipping the redundant coarse data never costs ratio, for
/// every app × compressor; the hybrid SZ-L/R is within 1 % of each pure mode;
/// and zMesh-1D, whose 1D walk throws WarpX's 3D structure away, compresses
/// it least — regression-only SZ-L/R below it is divergence #6.
fn ablation_verdict(rows: &Json) -> Vec<String> {
    let part = |name| rows.get(name).and_then(Json::as_arr).unwrap_or(&[]);
    let (redundant, predictors) = (part("redundant"), part("predictors"));
    let cr = |rows: &[Json], keys: &[(&str, &str)]| {
        let is =
            |r: &Json, (key, want): &(&str, &str)| r.get(key).and_then(Json::as_str) == Some(want);
        cell(rows.iter().find(|r| keys.iter().all(|k| is(r, k))), "cr")
    };
    let mut failed = Vec::new();
    for app in Application::ALL.map(Application::label) {
        for kind in CompressorKind::PAPER.map(CompressorKind::label) {
            let cr = |how| {
                cr(
                    redundant,
                    &[("app", app), ("compressor", kind), ("redundant", how)],
                )
            };
            let row = format!("{app} {kind}");
            failed.extend(at_least(
                &row,
                ("skip CR", cr("skip")),
                ("keep CR", cr("keep")),
            ));
        }
        let cr = |variant| cr(predictors, &[("app", app), ("variant", variant)]);
        let [(hybrid, _), pure @ ..] = predictor_variants();
        for (pure, _) in pure {
            let floor = (&*format!("99 % of {pure}'s"), 0.99 * cr(pure));
            failed.extend(at_least(
                &format!("{app} {hybrid}"),
                ("CR", cr(hybrid)),
                floor,
            ));
        }
        if app == Application::Warpx.label() {
            let zmesh = ("zMesh-1D's", cr(ZMESH));
            for (variant, comp) in predictor_variants() {
                let diverges = (comp.mode == PredictorMode::RegressionOnly).then_some(DIVERGENCE_6);
                let row = format!("{app} {variant}");
                failed.extend(ordering(&row, ("CR", cr(variant)), zmesh, diverges));
            }
        }
    }
    failed
}

pub const REPRO_FLAGS: crate::commands::Flags = (&["scale", "seed", "suite", "out"], &["check"]);
/// Parses what is left of the command line once `main` has taken the global
/// telemetry flags off it.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let p = args::parse(argv, REPRO_FLAGS.0, REPRO_FLAGS.1)?;
    let scale = p
        .opt("scale")
        .map(|v| Scale::parse(v).ok_or(format!("unknown scale: {v}")))
        .transpose()?;
    let suite = p.opt("suite").map(resolve_suite).transpose()?;
    if let Some(extra) = p.positional.get(1) {
        return Err(format!("unexpected argument: {extra}"));
    }
    let experiment = match (&suite, p.positional.first()) {
        (Some(_), Some(_)) => {
            return Err("--suite replaces the experiment name; pass one or the other".into())
        }
        (Some(_), None) if p.switch("check") => {
            return Err("--check judges the figure experiments; the suite has no verdicts".into())
        }
        (Some(_), None) => "enumerated".to_string(),
        (None, Some(e)) => {
            let figures = FIGURES.iter().map(|(name, ..)| *name);
            let known: Vec<&str> = figures.chain(["all", "obs-overhead"]).collect();
            if !known.contains(&e.as_str()) {
                return Err(format!(
                    "unknown experiment `{e}`; known: {known:?} (or --suite enumerated)"
                ));
            }
            e.clone()
        }
        (None, None) => return Err("missing experiment name (try `all`)".into()),
    };
    Ok(Args {
        experiment,
        suite,
        scale,
        seed: p.opt_parse("seed")?.unwrap_or(42),
        out: PathBuf::from(p.opt("out").unwrap_or("repro_out")),
        check: p.switch("check"),
    })
}

/// Resolves a `--suite` value to recipe text: `enumerated` is the
/// built-in suite, `enumerated:@FILE` reads a recipe file, and
/// `enumerated:(scenario …)` is an inline recipe.
fn resolve_suite(v: &str) -> Result<String, String> {
    let rest = v
        .strip_prefix("enumerated")
        .ok_or_else(|| format!("unknown suite `{v}` (try `enumerated[:RECIPE]`)"))?;
    match rest.strip_prefix(':') {
        None if rest.is_empty() => Ok(amrviz_recipe::ENUMERATED_SUITE.to_string()),
        None => Err(format!("unknown suite `{v}` (try `enumerated[:RECIPE]`)")),
        Some(recipe) => match recipe.strip_prefix('@') {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("reading recipe file {path}: {e}")),
            None if recipe.is_empty() => Err("empty recipe after `enumerated:`".into()),
            None => Ok(recipe.to_string()),
        },
    }
}

/// Cache of built scenarios (generation is the expensive part).
struct Ctx {
    scale: Scale,
    seed: u64,
    out: PathBuf,
    built: BTreeMap<&'static str, Rc<BuiltScenario>>,
    json: Json,
    /// Compression runs observed during this invocation (Table 2 rows),
    /// reported in the final `SUMMARY` line.
    runs: Vec<experiment::CompressionRun>,
    /// Wall seconds per top-level obs stage, accumulated across experiments.
    stage_seconds: BTreeMap<String, f64>,
    /// Per-experiment status records (`{name, status, error?}`) for the
    /// `SUMMARY` line; failed experiments don't abort the batch.
    experiments: Vec<Json>,
    /// (ok, degraded, failed) fab decode totals across all experiments.
    decode_fabs: (u64, u64, u64),
}

impl Ctx {
    fn scenario(&mut self, app: Application) -> Rc<BuiltScenario> {
        let (scale, seed) = (self.scale, self.seed);
        let built = self.built.entry(app.label()).or_insert_with(|| {
            eprintln!(
                "[repro] generating {} scenario at {scale:?} scale…",
                app.label()
            );
            Rc::new(BuiltScenario::from_spec(app.spec(scale, seed)))
        });
        Rc::clone(built)
    }

    /// Prints `rows` as `view`'s table and records them under `key`.
    fn show<R>(&mut self, key: &str, view: &View<R>, rows: &[R]) {
        outln!("{}", view.table(rows));
        self.json.set(key, view.json(rows));
    }

    /// Drains the obs recorder into `manifest_<name>.json` and folds the
    /// top-level stage times into the invocation-wide totals.
    fn finish_experiment(&mut self, name: &str) {
        let summary = amrviz_obs::summary::build(&amrviz_obs::events_snapshot());
        for r in &summary.roots {
            *self.stage_seconds.entry(r.key.clone()).or_insert(0.0) += r.total_ns as f64 / 1e9;
        }
        let mut counters = Json::obj();
        for (k, v) in amrviz_obs::counters_snapshot() {
            match k {
                "decode.fabs_ok" => self.decode_fabs.0 += v,
                "decode.fabs_degraded" => self.decode_fabs.1 += v,
                "decode.fabs_failed" => self.decode_fabs.2 += v,
                _ => {}
            }
            counters.set(k, v);
        }
        let mut histograms = Json::obj();
        for (k, h) in amrviz_obs::histograms_snapshot() {
            histograms.set(k, Json::parse(&h.stats_json()).unwrap_or(Json::Null));
        }
        let mut m = Json::obj();
        m.set("experiment", name)
            .set("scale", format!("{:?}", self.scale).to_lowercase())
            .set("seed", self.seed)
            .set("counters", counters)
            .set("histograms", histograms)
            .set("span_summary", summary.to_json());
        let path = self.out.join(format!("manifest_{name}.json"));
        if std::fs::write(&path, m.to_string_pretty()).is_ok() {
            outln!("  manifest: {}", path.display());
        }
    }

    fn save_mesh_render(
        &self,
        built: &BuiltScenario,
        levels: &[amrviz_amr::MultiFab],
        method: IsoMethod,
        name: &str,
    ) {
        let res = extract_amr_isosurface(&built.hierarchy, levels, built.iso, method);
        // Frame the surface itself (the paper's panels zoom to the refined
        // region), falling back to the whole domain for empty meshes. The
        // bbox is the union of the per-level boxes — no combined-mesh copy.
        let boxes = res.level_meshes.iter().filter_map(|m| m.bbox());
        let bbox = boxes.reduce(|(alo, ahi), (blo, bhi)| {
            let lo = std::array::from_fn(|a| alo[a].min(blo[a]));
            (lo, std::array::from_fn(|a| ahi[a].max(bhi[a])))
        });
        let cam = match bbox {
            Some((lo, hi)) => {
                let center: [f64; 3] = std::array::from_fn(|a| 0.5 * (lo[a] + hi[a]));
                let extent = (0..3).map(|a| hi[a] - lo[a]).fold(1e-6, f64::max);
                let eye = [
                    center[0] - 2.0 * extent,
                    center[1] - 1.2 * extent,
                    center[2] + 1.0 * extent,
                ];
                amrviz_render::Camera::orthographic(eye, center, 0.65 * extent)
            }
            None => standard_camera(built.hierarchy.geometry()),
        };
        let opts = RenderOptions {
            width: 960,
            height: 720,
        };
        // Color the levels differently so cracks/gaps/overlaps stand out,
        // like the paper's red fine-level box.
        let img = amrviz_render::raster::render_meshes(
            &[
                (&res.level_meshes[0], Color::new(205, 205, 210)),
                (&res.level_meshes[1], Color::new(235, 120, 90)),
            ],
            &cam,
            &opts,
        );
        let path = self.out.join(format!("{name}.png"));
        if let Err(e) = img.save_png(&path) {
            eprintln!("[repro] failed to write {}: {e}", path.display());
        } else {
            outln!("  wrote {}", path.display());
        }
    }
}

fn table1(ctx: &mut Ctx) {
    outln!("\n=== Table 1: dataset structure ===");
    let (warpx, nyx) = (
        ctx.scenario(Application::Warpx),
        ctx.scenario(Application::Nyx),
    );
    let rows = experiment::run_table1(&[&warpx, &nyx]);
    ctx.show("table1", &report::TABLE1, &rows);
    outln!(
        "paper: WarpX 128x128x1024 + 256x256x2048 (91.4% / 8.6%), \
         Nyx 256^3 + 512^3 (59.3% / 40.7%)"
    );
}

fn table2(ctx: &mut Ctx) {
    outln!("\n=== Table 2: compression quality ===");
    let mut all = Vec::new();
    for app in Application::ALL {
        let rows = experiment::run_table2(&ctx.scenario(app)).expect("table2 runs");
        all.extend(rows);
    }
    ctx.show("table2", &report::TABLE2, &all);
    ctx.runs.extend(all);
}

fn fig1(ctx: &mut Ctx) {
    outln!("\n=== Fig. 1: cracks (re-sampling) vs gaps (dual) vs redundant fix ===");
    let built = ctx.scenario(Application::Warpx);
    let rows = experiment::run_crack_analysis(&built);
    ctx.show("fig1", &report::CRACKS, &rows);
    let field = built.hierarchy.field(built.spec.eval_field());
    let levels = &field.expect("eval field").levels;
    for (method, name) in [
        (IsoMethod::Resampling, "fig1a_resampling"),
        (IsoMethod::DualCell, "fig1b_dualcell"),
        (IsoMethod::DualCellRedundant, "fig1c_dualcell_redundant"),
    ] {
        ctx.save_mesh_render(&built, levels, method, name);
    }
}

fn fig2(ctx: &mut Ctx) {
    outln!("\n=== Fig. 2: AMR grid adapts across timesteps ===");
    let n = match ctx.scale {
        Scale::Tiny => 16,
        Scale::Small => 32,
        _ => 64,
    };
    let mut sim = AmrAdvection::new(n, [1.0, 0.35, 0.0], 0.02, |p| {
        let r2 = (p[0] - 0.25).powi(2) + (p[1] - 0.35).powi(2) + (p[2] - 0.5).powi(2);
        (-r2 / (2.0 * 0.07f64.powi(2))).exp()
    });
    let mut snapshots: Vec<Json> = Vec::new();
    for snap in 0..3 {
        if snap > 0 {
            sim.run(8);
        }
        let h = sim.hierarchy();
        let bb = h.box_array(1).bounding_box();
        outln!(
            "  step {:>3}  t={:.4}  fine boxes: {:>2}  fine cells: {:>8}  bbox: {}",
            h.step,
            sim.time(),
            h.box_array(1).len(),
            h.box_array(1).num_cells(),
            bb.map(|b| b.to_string()).unwrap_or_else(|| "-".into()),
        );
        let img = render_slice(h, FIELD, false).expect("field exists");
        let path = ctx.out.join(format!("fig2_step{}.png", h.step));
        img.save_png(&path).ok();
        outln!("  wrote {}", path.display());
        let mut snap_json = Json::obj();
        snap_json
            .set("step", h.step)
            .set("time", sim.time())
            .set("fine_cells", h.box_array(1).num_cells());
        snapshots.push(snap_json);
    }
    ctx.json.set("fig2", snapshots);
}

fn figs_9_10(ctx: &mut Ctx, kind: CompressorKind, figname: &str) {
    outln!(
        "\n=== {}: WarpX × {} × methods × error bounds ===",
        figname,
        kind.label()
    );
    let built = ctx.scenario(Application::Warpx);
    let rows = experiment::run_viz_quality(
        &built,
        kind,
        &[1e-4, 1e-3, 1e-2],
        &[IsoMethod::Resampling, IsoMethod::DualCellRedundant],
    )
    .expect("viz-quality runs");
    ctx.show(figname, &report::VIZ_QUALITY, &rows);

    // Render the eb=1e-2 panels (the paper's most visible case).
    let comp = kind.instance();
    let field = built.spec.eval_field();
    let cfg = AmrCodecConfig::default();
    let compressed = compress_hierarchy_field(
        &built.hierarchy,
        field,
        comp.as_ref(),
        ErrorBound::Rel(1e-2),
        &cfg,
    )
    .expect("field exists");
    let levels = decompress_hierarchy_field(&built.hierarchy, &compressed, comp.as_ref(), &cfg)
        .expect("own stream");
    let tag = kind.label().replace(['/', '-'], "").to_lowercase();
    ctx.save_mesh_render(
        &built,
        &levels,
        IsoMethod::Resampling,
        &format!("{figname}_{tag}_eb1e-2_resampling"),
    );
    ctx.save_mesh_render(
        &built,
        &levels,
        IsoMethod::DualCellRedundant,
        &format!("{figname}_{tag}_eb1e-2_dualcell"),
    );
}

fn fig11(ctx: &mut Ctx) {
    outln!("\n=== Fig. 11: Nyx × both compressors × methods at eb 1e-2 ===");
    let built = ctx.scenario(Application::Nyx);
    let mut all = Vec::new();
    for kind in CompressorKind::PAPER {
        let rows = experiment::run_viz_quality(
            &built,
            kind,
            &[1e-2],
            &[IsoMethod::Resampling, IsoMethod::DualCellRedundant],
        )
        .expect("viz-quality runs");
        all.extend(rows);
    }
    ctx.show("fig11", &report::VIZ_QUALITY, &all);
    // Original-data render for reference.
    let field = built.hierarchy.field(built.spec.eval_field());
    ctx.save_mesh_render(
        &built,
        &field.expect("eval field").levels,
        IsoMethod::Resampling,
        "fig11_original_resampling",
    );
}

fn rate_distortion(ctx: &mut Ctx, app: Application, figname: &str) {
    outln!(
        "\n=== {}: rate-distortion on {} \"{}\" ===",
        figname,
        app.label(),
        app.eval_field()
    );
    let runs = experiment::run_rate_distortion(&ctx.scenario(app), &RD_EBS);
    let runs = runs.expect("rate-distortion runs");
    ctx.show(figname, &report::RATE_DISTORTION, &runs);
}

fn fig14(ctx: &mut Ctx) {
    outln!("\n=== Fig. 14: 1D block-artifact smoothing by re-sampling ===");
    let (orig, blocky, resampled) = fig14_series(16, 1.4);
    let fmt = |s: &[f64]| {
        s.iter()
            .map(|v| format!("{v:>5.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    outln!("  original (cell):   {}", fmt(&orig));
    outln!("  decompressed:      {}", fmt(&blocky));
    outln!("  re-sampled (node): {}", fmt(&resampled));
    outln!(
        "  step roughness: original {:.2}, decompressed {:.2}, re-sampled {:.2}",
        step_roughness(&orig),
        step_roughness(&blocky),
        step_roughness(&resampled)
    );
    let mut series = Json::obj();
    series
        .set("original", orig)
        .set("decompressed", blocky)
        .set("resampled", resampled);
    ctx.json.set("fig14", series);
}

/// The ablation's zMesh-style cross-level 1D baseline (the related work the
/// paper's intro discusses).
const ZMESH: &str = "zMesh-1D";

/// The SZ-L/R predictor ablation: the hybrid first, then its pure modes.
fn predictor_variants() -> [(&'static str, SzLr); 3] {
    [
        ("SZ-L/R hybrid", SzLr::default()),
        ("SZ-L/R lorenzo-only", SzLr::lorenzo_only()),
        ("SZ-L/R regression-only", SzLr::regression_only()),
    ]
}

/// One ablation row: its table cells (the values of `keys`, then the CR to
/// one decimal) and its `results.json` object (`keys`, then the CR).
fn ablation_row(keys: &[(&str, &str)], cr: f64) -> (Vec<String>, Json) {
    let mut row = Json::obj();
    for &(key, value) in keys {
        row.set(key, value);
    }
    row.set("cr", cr);
    let cells = keys.iter().map(|(_, value)| value.to_string());
    (cells.chain([format!("{cr:.1}")]).collect(), row)
}

fn ablation(ctx: &mut Ctx) {
    outln!("\n=== Ablation: redundant coarse data during compression (§2.2) ===");
    let compress = |built: &BuiltScenario, comp: &dyn Compressor, cfg| {
        let field = built.spec.eval_field();
        let c =
            compress_hierarchy_field(&built.hierarchy, field, comp, ErrorBound::Rel(1e-3), &cfg)
                .expect("field exists");
        (c.n_values * 8) as f64 / c.compressed_bytes() as f64
    };
    let mut rows = Vec::new();
    for app in Application::ALL {
        let built = &ctx.scenario(app);
        for kind in CompressorKind::PAPER {
            for (how, skip_redundant) in [("keep", false), ("skip", true)] {
                let cfg = AmrCodecConfig {
                    skip_redundant,
                    restore_redundant: false,
                };
                let cr = compress(built, kind.instance().as_ref(), cfg);
                let keys = [("app", app.label()), ("compressor", kind.label())];
                rows.push(ablation_row(&[keys[0], keys[1], ("redundant", how)], cr));
            }
        }
    }
    let (table, redundant): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    let header = ["App", "Compressor", "Redundant data", "CR (f64)"];
    outln!("{}", report::ascii_table(&header, &table));

    outln!("--- related-work baseline + predictor ablation (rel eb 1e-3) ---");
    let mut rows = Vec::new();
    for app in Application::ALL {
        let built = &ctx.scenario(app);
        let field = built.spec.eval_field();
        let z = amrviz_compress::compress_zmesh(&built.hierarchy, field, ErrorBound::Rel(1e-3))
            .expect("field exists");
        let zmesh = (built.hierarchy.total_cells() * 8) as f64 / z.len() as f64;
        let variants = predictor_variants()
            .map(|(variant, comp)| (variant, compress(built, &comp, AmrCodecConfig::default())));
        for (variant, cr) in [(ZMESH, zmesh)].into_iter().chain(variants) {
            rows.push(ablation_row(
                &[("app", app.label()), ("variant", variant)],
                cr,
            ));
        }
    }
    let (table, predictors): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    outln!(
        "{}",
        report::ascii_table(&["App", "Variant", "CR (f64)"], &table)
    );
    let mut record = Json::obj();
    record
        .set("redundant", redundant)
        .set("predictors", predictors);
    ctx.json.set("ablation", record);
}

/// `--suite enumerated`: expand a recipe into concrete scenarios and run
/// the compression-quality matrix over every one of them. Each run row
/// (table and summary.jsonl) carries the scenario's canonical recipe
/// string, so any row reproduces with
/// `amrviz repro --suite "enumerated:<recipe>" --seed <seed>`.
fn enumerated(ctx: &mut Ctx, recipe_src: &str) {
    outln!("\n=== Enumerated suite: recipe-expanded scenario matrix ===");
    let exp = amrviz_recipe::expand(recipe_src, ctx.seed);
    let exp = exp.unwrap_or_else(|e| panic!("recipe error: {e}"));
    outln!(
        "recipe expands to {} scenario(s), {} excluded",
        exp.specs.len(),
        exp.excluded.len()
    );
    for (recipe, reason) in &exp.excluded {
        outln!("  excluded ({reason}): {recipe}");
    }
    let mut all = Vec::new();
    for spec in exp.specs {
        eprintln!("[repro] generating {}…", spec.label());
        let built = BuiltScenario::from_spec(spec);
        all.extend(experiment::sweep(&built, &[1e-3, 1e-2]).expect("suite run"));
    }
    ctx.show("enumerated", &report::TABLE2, &all);
    ctx.runs.extend(all);
}

/// `repro obs-overhead`: writes `OBS_OVERHEAD_<git>.json` into `out` and
/// fails when instrumentation costs more than [`OBS_OVERHEAD_MAX_PCT`].
fn obs_overhead(scale: Scale, out: &Path) -> Result<(), String> {
    let report = run_obs_overhead(scale, out);
    let path = out.join(format!("OBS_OVERHEAD_{}.json", git_describe()));
    std::fs::write(&path, report.to_json().to_string_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    outln!("OBS_OVERHEAD written to {}", path.display());
    out!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "instrumentation overhead {:.2}% exceeds the {:.0}% budget",
            report.overhead_pct, OBS_OVERHEAD_MAX_PCT
        ))
    }
}

pub fn repro(argv: &[String], obs: &ObsOptions) -> Result<(), String> {
    let args = parse_args(argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    std::fs::create_dir_all(&args.out).ok();
    if args.experiment == "obs-overhead" {
        // The gate switches the recorder on and off and runs a journal of
        // its own; telemetry `main` has already started would be in its way.
        if obs.active() {
            return Err("obs-overhead drives the recorder itself; \
                        drop the telemetry flags"
                .into());
        }
        return obs_overhead(args.scale.unwrap_or(Scale::Tiny), &args.out);
    }
    // Merge into any existing results.json so partial re-runs (e.g.
    // `repro fig9` after `repro all`) keep the other experiments' records.
    let existing = std::fs::read_to_string(args.out.join("results.json"))
        .ok()
        .and_then(|s| Json::parse(&s).ok())
        .filter(|v| matches!(v, Json::Obj(_)))
        .unwrap_or_else(Json::obj);
    let mut ctx = Ctx {
        scale: args.scale.unwrap_or(Scale::Medium),
        seed: args.seed,
        out: args.out.clone(),
        built: BTreeMap::new(),
        json: existing,
        runs: Vec::new(),
        stage_seconds: BTreeMap::new(),
        experiments: Vec::new(),
        decode_fabs: (0, 0, 0),
    };
    // The manifests and the SUMMARY stage times are read off the recorder,
    // so it is on whether or not a telemetry flag asked for it.
    amrviz_obs::enable();
    // Trace ids are derived from the run seed, so the same seed reproduces
    // the same ids at any thread count.
    amrviz_obs::set_trace_seed(args.seed);
    let exp = args.experiment.as_str();
    // Each experiment records into a fresh obs recorder so its manifest only
    // covers its own spans and counters (`--trace` / `--flame` / `--timing`
    // still see the whole run: the events are handed on before each reset).
    // A panicking experiment is recorded as `"status":"failed"` and the
    // batch continues — one broken figure must not cost the rest of an
    // `all` run.
    let instrumented = |ctx: &mut Ctx, name: &str, f: &dyn Fn(&mut Ctx)| {
        obs.carry_events();
        amrviz_obs::reset();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx)));
        ctx.finish_experiment(name);
        let mut rec = Json::obj();
        rec.set("name", name).set("status", "ok");
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".into());
            eprintln!("[repro] experiment {name} FAILED: {msg} — continuing batch");
            rec.set("status", "failed").set("error", msg);
        }
        ctx.experiments.push(rec);
    };
    // `--check`: every claim that does not hold, as `figure: row: what`.
    let mut broken: Vec<String> = Vec::new();
    match &args.suite {
        Some(recipe_src) => instrumented(&mut ctx, "enumerated", &|c| enumerated(c, recipe_src)),
        None => {
            for (name, f, verdict) in FIGURES {
                if exp == name || exp == "all" {
                    instrumented(&mut ctx, name, &f);
                    if let (true, Some(verdict)) = (args.check, verdict) {
                        let failed = verdict(ctx.json.get(name).unwrap_or(&Json::Null));
                        outln!("CHECK {name}: {} claim(s) failed", failed.len());
                        broken.extend(failed.iter().map(|row| format!("{name}: {row}")));
                    }
                }
            }
        }
    }

    let json_path: &Path = &ctx.out.join("results.json");
    if std::fs::write(json_path, ctx.json.to_string_pretty()).is_ok() {
        outln!("\nresults recorded in {}", json_path.display());
    }

    // Tear streaming down before the SUMMARY line so its journal totals
    // are final (the writer threads flush everything on stop).
    let journal_stats = obs.stop_streaming();

    // Final machine-readable one-liner: what ran, how well it compressed,
    // and where the wall time went. Also appended to summary.jsonl so
    // successive invocations accumulate a log.
    let any_failed = ctx
        .experiments
        .iter()
        .any(|e| e.get("status").and_then(Json::as_str) == Some("failed"));
    let mut decode_fabs = Json::obj();
    decode_fabs
        .set("ok", ctx.decode_fabs.0)
        .set("degraded", ctx.decode_fabs.1)
        .set("failed", ctx.decode_fabs.2);
    let mut summary = Json::obj();
    summary
        .set("experiment", exp)
        .set("scale", format!("{:?}", ctx.scale).to_lowercase())
        .set("seed", ctx.seed)
        .set("git", git_describe())
        .set("threads", amrviz_par::threads() as u64)
        .set("experiments", Json::Arr(ctx.experiments.clone()))
        .set("decode_fabs", decode_fabs)
        .set("runs", report::SUMMARY_RUNS.json(&ctx.runs))
        .set("stage_seconds", ctx.stage_seconds.clone());
    if let Some(stats) = journal_stats {
        let mut j = Json::obj();
        j.set("enqueued", stats.enqueued)
            .set("dropped", stats.dropped);
        summary.set("journal", j);
    }
    let line = summary.to_string_compact();
    outln!("SUMMARY {line}");
    use std::io::Write;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ctx.out.join("summary.jsonl"))
    {
        let _ = writeln!(f, "{line}");
    }
    if any_failed {
        Err("one or more experiments failed (see the SUMMARY line)".into())
    } else if !broken.is_empty() {
        Err(format!("verdict check failed:\n  {}", broken.join("\n  ")))
    } else {
        Ok(())
    }
}

/// The error bounds the rate-distortion figures sweep.
const RD_EBS: [f64; 6] = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2];

/// `git describe --always --dirty` of the working tree, falling back to
/// `GITHUB_SHA` (CI) and then `"unknown"`. Never fails.
fn git_describe() -> String {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output();
    if let Ok(o) = out {
        if o.status.success() {
            let s = String::from_utf8_lossy(&o.stdout).trim().to_string();
            if !s.is_empty() {
                return s;
            }
        }
    }
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if sha.len() >= 7 {
            return sha[..7].to_string();
        }
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_viz::CrackMetrics;

    #[test]
    fn fig14_resampling_smooths_blocks() {
        let (orig, blocky, resampled) = fig14_series(24, 1.4);
        assert_eq!(orig.len(), 24);
        assert_eq!(resampled.len(), 25);
        // The quantizer staircases the ramp…
        assert!(step_roughness(&blocky) > 2.0 * step_roughness(&orig));
        // …and re-sampling smooths it back down (the paper's Fig. 14 point).
        assert!(
            step_roughness(&resampled) < step_roughness(&blocky),
            "resampled {} !< blocky {}",
            step_roughness(&resampled),
            step_roughness(&blocky)
        );
    }

    #[test]
    fn git_describe_never_panics() {
        assert!(!git_describe().is_empty());
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse_err(line: &str) -> String {
        parse_args(&argv(line)).err().expect("must be rejected")
    }

    #[test]
    fn repro_rejects_bad_experiment_selection() {
        assert_eq!(parse_err(""), "missing experiment name (try `all`)");
        let unknown = parse_err("fig99");
        assert!(
            unknown.starts_with("unknown experiment `fig99`; known: [\"table1\","),
            "{unknown}"
        );
        assert!(unknown.ends_with("(or --suite enumerated)"), "{unknown}");
        assert_eq!(
            parse_err("table2 --suite enumerated"),
            "--suite replaces the experiment name; pass one or the other"
        );
        assert_eq!(parse_err("table1 table2"), "unexpected argument: table2");
        assert_eq!(
            parse_err("--suite enumerated --check"),
            "--check judges the figure experiments; the suite has no verdicts"
        );
        assert!(parse_args(&argv("fig1 --check")).unwrap().check);
        let ok = parse_args(&argv("table2 --scale tiny --seed 7")).unwrap();
        assert_eq!((ok.experiment.as_str(), ok.seed), ("table2", 7));
        assert!(ok.suite.is_none() && ok.scale == Some(Scale::Tiny));
        let suite = parse_args(&argv("--suite enumerated")).unwrap();
        assert_eq!(suite.experiment, "enumerated");
    }

    /// The telemetry flags of a `repro` command line are `main`'s to check.
    #[test]
    fn repro_rejects_bad_global_telemetry_flags() {
        let split =
            |flags: &str| crate::extract_obs_options(argv(&format!("repro table2 {flags}")));
        let err = |flags: &str| split(flags).expect_err("rejected");
        assert_eq!(err("--threads 0"), "--threads must be at least 1");
        assert!(err("--threads two").starts_with("--threads: "));
        let (rest, opts) = split("--flame f.html --threads 2 --seed 9").unwrap();
        assert_eq!(rest, argv("repro table2 --seed 9"));
        assert!(opts.active() && opts.threads == Some(2));
    }

    /// A row set on which the figure's verdict holds: `(re-sampling,
    /// dual-cell+redundant)` image R-SSIM and surface error per run.
    fn viz_rows(
        runs: &[(&'static str, f64)],
        geometry: [f64; 2],
    ) -> Vec<experiment::VizQualityRun> {
        let mut rows = Vec::new();
        for &(compressor, rel_error_bound) in runs {
            for (m, method) in [IsoMethod::Resampling, IsoMethod::DualCellRedundant]
                .into_iter()
                .enumerate()
            {
                rows.push(experiment::VizQualityRun {
                    scenario: "x".into(),
                    compressor,
                    rel_error_bound,
                    method: method.label(),
                    surface_error_cells: geometry[m],
                    surface_error_max_cells: 1.0,
                    roughness_increase: 0.0,
                    image_rssim: [1e-5, 2e-5][m],
                    triangles: 10,
                });
            }
        }
        rows
    }

    fn verdict_of(figure: &str) -> Verdict {
        let row = FIGURES.iter().find(|(name, ..)| *name == figure);
        row.and_then(|r| r.2).expect("the figure has a verdict")
    }

    /// Every failure line of `figure` on `rows`, as `--check` prints them.
    fn broken(figure: &str, rows: impl Into<Json>) -> Vec<String> {
        let failed = verdict_of(figure)(&rows.into());
        failed.iter().map(|f| format!("{figure}: {f}")).collect()
    }

    #[test]
    fn each_verdict_names_its_figure_and_row_on_a_hand_broken_row_set() {
        // Fig. 1: zero a gap; leave the gap open.
        let crack = |method: IsoMethod, mean_gap| experiment::CrackRun {
            scenario: "x".into(),
            method: method.label(),
            coarse_triangles: 1,
            fine_triangles: 1,
            gap: CrackMetrics {
                n_rim_edges: 1,
                rim_length: 1.0,
                mean_gap,
                max_gap: 1.0,
            },
        };
        let fig1 = |gaps: [f64; 3]| {
            let rows = IsoMethod::ALL.iter().zip(gaps).map(|(&m, g)| crack(m, g));
            broken("fig1", report::CRACKS.json(&rows.collect::<Vec<_>>()))
        };
        assert_eq!(fig1([0.011, 0.049, 7e-4]), [""; 0]);
        let no_crack = fig1([0.0, 0.049, 0.0]);
        assert_eq!(no_crack.len(), 2, "{no_crack:?}");
        assert!(no_crack[0].starts_with("fig1: re-sampling: mean gap 0e0"));
        let open = fig1([0.011, 0.049, 0.004]);
        assert_eq!(open.len(), 1, "{open:?}");
        assert!(open[0].starts_with("fig1: dual-cell+redundant: a quarter of re-sampling"));
        assert_eq!(fig1([0.011, 0.049, f64::NAN]).len(), 2);

        // Figs. 9 / 10: swap the two methods in one pair; lose a bound.
        let sweep = |c| [(c, 1e-4), (c, 1e-3), (c, 1e-2)];
        for (figure, compressor) in [("fig9", "SZ-L/R"), ("fig10", "SZ-Itp")] {
            let mut rows = viz_rows(&sweep(compressor), [0.1, 0.2]);
            assert_eq!(broken(figure, report::VIZ_QUALITY.json(&rows)), [""; 0]);
            let swapped = rows[2].image_rssim;
            rows[2].image_rssim = rows[3].image_rssim;
            rows[3].image_rssim = swapped;
            let failed = broken(figure, report::VIZ_QUALITY.json(&rows));
            assert_eq!(failed.len(), 1, "{failed:?}");
            let start = format!("{figure}: {compressor} eb 1e-3: dual-cell image_rssim 1e-5");
            assert!(failed[0].starts_with(&start), "{failed:?}");
            let failed = broken(figure, report::VIZ_QUALITY.json(&rows[..4]));
            assert!(failed[1].ends_with("2 re-sampling row(s) recorded, 3 expected"));
        }

        // Fig. 11: the image ordering as above, and divergence #3 — the
        // geometric ordering is recorded the other way round, so it fails
        // when it turns into the paper's, or stops being an ordering.
        let both = [("SZ-L/R", 1e-2), ("SZ-Itp", 1e-2)];
        let mut rows = viz_rows(&both, [0.5, 0.4]);
        assert_eq!(broken("fig11", report::VIZ_QUALITY.json(&rows)), [""; 0]);
        rows[1].image_rssim = 0.0;
        let failed = broken("fig11", report::VIZ_QUALITY.json(&rows));
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].starts_with("fig11: SZ-L/R eb 1e-2: dual-cell image_rssim 0e0"));
        for geometry in [[0.4, 0.5], [0.5, 0.5], [0.5, f64::NAN]] {
            let failed = broken(
                "fig11",
                report::VIZ_QUALITY.json(&viz_rows(&both, geometry)),
            );
            assert_eq!(failed.len(), 2, "{failed:?}");
            assert!(failed[1].starts_with("fig11: SZ-Itp eb 1e-2: dual-cell surface_error_cells"));
            assert!(failed[1].contains("divergence #3"), "{failed:?}");
        }
        // Table 2: swap the two compressors' CR at one bound; reverse one
        // series' PSNR column; give SZ-L/R the worse R-SSIM on Nyx at 1e-2.
        let mut rows = table2_rows();
        assert_eq!(broken("table2", report::TABLE2.json(&rows)), [""; 0]);
        let (lr, itp) = (rows[1].compression_ratio, rows[4].compression_ratio);
        (rows[1].compression_ratio, rows[4].compression_ratio) = (itp, lr);
        let failed = broken("table2", report::TABLE2.json(&rows));
        assert_eq!(
            failed,
            ["table2: WarpX eb 1e-3: SZ-Itp CR 2e1 is not above SZ-L/R's 2.1e1"]
        );
        let mut rows = table2_rows();
        let psnr: Vec<f64> = rows[6..9].iter().map(|r| r.psnr_db).collect();
        for (row, psnr) in rows[6..9].iter_mut().zip(psnr.into_iter().rev()) {
            row.psnr_db = psnr;
        }
        let failed = broken("table2", report::TABLE2.json(&rows));
        assert_eq!(failed.len(), 2, "{failed:?}");
        let start =
            "table2: Nyx SZ-L/R eb 1e-3: the tighter bound's PSNR 4e1 is not above PSNR 6e1";
        assert_eq!(failed[0], start);
        let mut rows = table2_rows();
        rows[8].rssim = 1.0;
        let failed = broken("table2", report::TABLE2.json(&rows));
        assert_eq!(
            failed,
            ["table2: Nyx eb 1e-2: SZ-Itp R-SSIM 2e-2 is not above SZ-L/R's 1e0"]
        );
        // Divergence #7: SZ-Interp's CR turning into the paper's, above
        // SZ-L/R's on Nyx at 1e-2, fails.
        let mut rows = table2_rows();
        rows[8].compression_ratio = 30.0;
        let failed = broken("table2", report::TABLE2.json(&rows));
        assert_eq!(failed.len(), 1, "{failed:?}");
        let start =
            "table2: Nyx eb 1e-2: SZ-Itp CR 3.1e1 is not below SZ-L/R's 3e1 as divergence #7";
        assert!(failed[0].starts_with(start), "{failed:?}");
        let mut rows = table2_rows();
        rows.remove(8);
        let failed = broken("table2", report::TABLE2.json(&rows));
        assert_eq!(failed, ["table2: Nyx 2 SZ-L/R row(s) recorded, 3 expected"]);

        // Fig. 12: swap the two compressors' bits/val at one bound.
        let warpx = |s: f64| {
            std::array::from_fn(|e| {
                let e = e as f64;
                let psnr = 90.0 - 10.0 * e + 2.0 * (1.0 - s);
                ((6.0 - e) * s, psnr, 1e-5 * 10f64.powf(e) * s)
            })
        };
        let mut rows = rd_rows([warpx(1.0), warpx(0.5)]);
        assert_eq!(
            broken("fig12", report::RATE_DISTORTION.json(&rows)),
            [""; 0]
        );
        let (lr, itp) = (rows[2].bits_per_value, rows[8].bits_per_value);
        (rows[2].bits_per_value, rows[8].bits_per_value) = (itp, lr);
        let failed = broken("fig12", report::RATE_DISTORTION.json(&rows));
        assert_eq!(
            failed,
            ["fig12: eb 1e-3: SZ-L/R bits/val 2e0 is not above SZ-Itp's 4e0"]
        );

        // Fig. 13: SZ-L/R ahead in R-SSIM from 1e-2 up, and at 1e-2 also
        // at SZ-Interp's R-SSIM for the same bitrate; spend more bits on
        // SZ-L/R's 1e-2 point and the matched-bitrate row fails.
        let nyx = rd_rows([
            [
                (6.9, 84.8, 4e-6),
                (5.2, 75.2, 3.4e-5),
                (3.4, 64.7, 4.1e-4),
                (1.9, 56.5, 3.6e-3),
                (0.9, 51.4, 1.08e-2),
                (0.4, 48.6, 1.57e-2),
            ],
            [
                (6.6, 84.8, 3.8e-6),
                (4.9, 75.2, 3.4e-5),
                (3.2, 64.9, 3.8e-4),
                (1.9, 56.2, 3.3e-3),
                (1.0, 49.0, 2.29e-2),
                (0.4, 45.3, 4.5e-2),
            ],
        ]);
        assert_eq!(broken("fig13", report::RATE_DISTORTION.json(&nyx)), [""; 0]);
        let mut rows = nyx.clone();
        rows[4].bits_per_value = 2.5;
        let failed = broken("fig13", report::RATE_DISTORTION.json(&rows));
        assert_eq!(failed.len(), 1, "{failed:?}");
        let start = "fig13: eb 1e-2 at 2.500 bits/val: SZ-Itp R-SSIM 1.2";
        assert!(failed[0].starts_with(start), "{failed:?}");
        assert!(
            failed[0].ends_with("is not above SZ-L/R's 1.08e-2"),
            "{failed:?}"
        );
        let mut rows = nyx;
        rows[11].rssim = 1e-2;
        let failed = broken("fig13", report::RATE_DISTORTION.json(&rows));
        assert_eq!(
            failed,
            ["fig13: eb 3e-2: SZ-Itp R-SSIM 1e-2 is not above SZ-L/R's 1.57e-2"]
        );

        // Fig. 14: the demonstration's own series hold; a re-sampling that
        // keeps the staircase does not.
        let (orig, blocky, resampled) = fig14_series(16, 1.4);
        let fig14 = |resampled: &[f64]| {
            let mut rows = Json::obj();
            rows.set("original", orig.clone())
                .set("decompressed", blocky.clone())
                .set("resampled", resampled.to_vec());
            broken("fig14", rows)
        };
        assert_eq!(fig14(&resampled), [""; 0]);
        assert_eq!(
            fig14(&blocky),
            [
                "fig14: re-sampled: half the decompressed staircase's step roughness 1.4e1 \
              is below the re-sampled series' 2.8e1"
            ]
        );

        // Ablation: skip under keep; the hybrid 2 % behind a pure mode; a
        // WarpX variant under zMesh-1D; divergence #6 turning into the
        // paper's ordering.
        assert_eq!(broken("ablation", ablation_rows(|_, _, _| {})), [""; 0]);
        let edit = |app: &'static str, variant: &'static str, to: f64| {
            ablation_rows(move |a, v, cr| {
                if (a, v) == (app, variant) {
                    *cr = to;
                }
            })
        };
        let failed = broken("ablation", edit("Nyx", "SZ-Itp skip", 9.0));
        assert_eq!(
            failed,
            ["ablation: Nyx SZ-Itp: skip CR 9e0 is below keep CR 1e1"]
        );
        let failed = broken("ablation", edit("WarpX", "SZ-L/R hybrid", 29.4));
        assert_eq!(failed.len(), 1, "{failed:?}");
        let start =
            "ablation: WarpX SZ-L/R hybrid: CR 2.94e1 is below 99 % of SZ-L/R lorenzo-only's";
        assert!(failed[0].starts_with(start), "{failed:?}");
        let failed = broken("ablation", edit("WarpX", "SZ-L/R lorenzo-only", 7.0));
        assert_eq!(
            failed,
            ["ablation: WarpX SZ-L/R lorenzo-only: CR 7e0 is not above zMesh-1D's 8e0"]
        );
        let failed = broken("ablation", edit("WarpX", "SZ-L/R regression-only", 9.0));
        assert_eq!(failed.len(), 1, "{failed:?}");
        let start = "ablation: WarpX SZ-L/R regression-only: CR 9e0 is not below zMesh-1D's 8e0 \
                     as divergence #6";
        assert!(failed[0].starts_with(start), "{failed:?}");

        // Nothing recorded at all is a failure, not a pass.
        for (figure, ..) in FIGURES.iter().filter(|f| f.2.is_some()) {
            assert!(!verdict_of(figure)(&Json::Null).is_empty(), "{figure}");
        }
    }

    /// An ablation row set on which the verdict holds, each CR passed through
    /// `edit(app, row, cr)`; a redundant-data row is `"<compressor> keep"` or
    /// `"<compressor> skip"`, a predictor row its variant.
    fn ablation_rows(edit: impl Fn(&str, &str, &mut f64)) -> Json {
        let (mut redundant, mut predictors) = (Vec::new(), Vec::new());
        for app in Application::ALL.map(Application::label) {
            for kind in CompressorKind::PAPER.map(CompressorKind::label) {
                for (how, mut cr) in [("keep", 10.0), ("skip", 11.0)] {
                    edit(app, &format!("{kind} {how}"), &mut cr);
                    let keys = [("app", app), ("compressor", kind), ("redundant", how)];
                    redundant.push(ablation_row(&keys, cr).1);
                }
            }
            let variants = [ZMESH]
                .into_iter()
                .chain(predictor_variants().map(|(v, _)| v));
            for (variant, mut cr) in variants.zip([8.0, 30.0, 30.0, 5.0]) {
                edit(app, variant, &mut cr);
                predictors.push(ablation_row(&[("app", app), ("variant", variant)], cr).1);
            }
        }
        let mut rows = Json::obj();
        rows.set("redundant", redundant)
            .set("predictors", predictors);
        rows
    }

    /// A Table 2 row set on which the verdict holds: per app, SZ-L/R then
    /// SZ-Interp at 1e-4, 1e-3, 1e-2, SZ-Interp one CR point ahead — but on
    /// Nyx at 1e-2, one behind (divergence #7) — and SZ-L/R's R-SSIM the
    /// lower at every bound.
    fn table2_rows() -> Vec<CompressionRun> {
        let mut rows = Vec::new();
        for app in Application::ALL {
            for (c, compressor) in ["SZ-L/R", "SZ-Itp"].into_iter().enumerate() {
                for (e, rel_error_bound) in [1e-4, 1e-3, 1e-2].into_iter().enumerate() {
                    rows.push(CompressionRun {
                        compression_ratio: (10 * (e + 1) + c) as f64,
                        psnr_db: 80.0 - 20.0 * e as f64,
                        rssim: rel_error_bound * (1 + c) as f64,
                        ..run(app.label(), compressor, rel_error_bound)
                    });
                }
            }
        }
        rows[8].compression_ratio = 32.0;
        rows
    }

    /// A run of `compressor` at `rel_error_bound` on `scenario`: one bit per
    /// value, an SSIM of 1 and every other figure 0.
    fn run(scenario: &str, compressor: &'static str, rel_error_bound: f64) -> CompressionRun {
        CompressionRun {
            scenario: scenario.into(),
            recipe: String::new(),
            compressor,
            rel_error_bound,
            abs_error_bound: rel_error_bound,
            compression_ratio: 0.0,
            compression_ratio_f32: 0.0,
            bits_per_value: 1.0,
            psnr_db: 0.0,
            ssim: 1.0,
            rssim: 0.0,
            max_abs_error: 0.0,
            compress_seconds: 0.0,
            decompress_seconds: 0.0,
            trace_id: 0,
        }
    }

    /// Rate-distortion points `(bits/val, PSNR, R-SSIM)` of SZ-L/R, then of
    /// SZ-Interp, at each of the figures' six bounds.
    fn rd_rows(points: [[(f64, f64, f64); 6]; 2]) -> Vec<CompressionRun> {
        let series = ["SZ-L/R", "SZ-Itp"].into_iter().zip(points);
        series
            .flat_map(|(compressor, points)| {
                RD_EBS
                    .into_iter()
                    .zip(points)
                    .map(move |(eb, p)| CompressionRun {
                        bits_per_value: p.0,
                        psnr_db: p.1,
                        rssim: p.2,
                        ..run("x", compressor, eb)
                    })
            })
            .collect()
    }

    #[test]
    fn resolve_suite_forms() {
        assert_eq!(
            resolve_suite("enumerated").unwrap(),
            amrviz_recipe::ENUMERATED_SUITE
        );
        assert_eq!(
            resolve_suite("enumerated:(scenario x)").unwrap(),
            "(scenario x)"
        );
        let file = std::env::temp_dir().join(format!("amrviz_recipe_{}", std::process::id()));
        std::fs::write(&file, "(scenario from-file)").unwrap();
        let from_file = resolve_suite(&format!("enumerated:@{}", file.display()));
        std::fs::remove_file(&file).unwrap();
        assert_eq!(from_file.unwrap(), "(scenario from-file)");
        let missing = resolve_suite("enumerated:@/nonexistent/x.recipe").unwrap_err();
        assert!(missing.starts_with("reading recipe file /nonexistent/x.recipe:"));
        assert_eq!(
            resolve_suite("enumerated:").unwrap_err(),
            "empty recipe after `enumerated:`"
        );
        for unknown in ["paper", "enumeratedX"] {
            assert_eq!(
                resolve_suite(unknown).unwrap_err(),
                format!("unknown suite `{unknown}` (try `enumerated[:RECIPE]`)")
            );
        }
    }
}
