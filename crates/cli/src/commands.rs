//! Implementations of the `amrviz` subcommands.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::ops::ControlFlow;
use std::path::Path;

use amrviz_amr::plotfile::{read_plotfile, write_plotfile};
use amrviz_amr::resample::{flatten_to_finest, Upsample};
use amrviz_amr::AmrHierarchy;
use amrviz_compress::{
    compress_hierarchy_field, compressor_by_name, AmrCodecConfig, CompressionStats, DecodeBudget,
    DecodePolicy, ErrorBound, FabStatus, SzLr, ALGORITHMS,
};
use amrviz_core::args::{parse, Parsed};
use amrviz_core::experiment::standard_camera;
use amrviz_json::Json;
use amrviz_render::{render_mesh, render_slice, RenderOptions};
use amrviz_serve::telemetry::dominant_stage;
use amrviz_serve::{decode_artifact, encode_artifact};
use amrviz_sim::solver::AmrAdvection;
use amrviz_sim::{quantile, NyxScenario, Scale, WarpxScenario};
use amrviz_viz::{extract_amr_isosurface, obj, IsoMethod};

/// The `(value flags, switches)` a subcommand accepts, without the `--`. Each
/// command parses with its own pair, and `usage_and_parsers_agree` holds the
/// usage text to the same lists.
pub type Flags = (&'static [&'static str], &'static [&'static str]);

fn method(name: Option<&str>) -> Result<IsoMethod, String> {
    match name.unwrap_or("resampling") {
        "resampling" => Ok(IsoMethod::Resampling),
        "dual" => Ok(IsoMethod::DualCell),
        "dual-redundant" => Ok(IsoMethod::DualCellRedundant),
        other => Err(format!(
            "unknown method `{other}` (resampling|dual|dual-redundant)"
        )),
    }
}

/// The error bound from `--rel` or `--abs`: a positive, finite number, or
/// an error naming the flag.
fn bound(p: &Parsed) -> Result<ErrorBound, String> {
    let positive = |name: &str| match p.opt_parse::<f64>(name)? {
        Some(v) if !(v > 0.0 && v.is_finite()) => {
            Err(format!("--{name} must be positive and finite, got {v}"))
        }
        v => Ok(v),
    };
    match (positive("rel")?, positive("abs")?) {
        (Some(_), Some(_)) => Err("--rel and --abs are mutually exclusive".into()),
        (Some(r), None) => Ok(ErrorBound::Rel(r)),
        (None, Some(a)) => Ok(ErrorBound::Abs(a)),
        (None, None) => Ok(ErrorBound::Rel(1e-3)),
    }
}

fn load(path: &str) -> Result<AmrHierarchy, String> {
    read_plotfile(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))
}

/// Iso value from `--iso` (finite) or `--quantile` (default: 0.9 quantile).
fn iso_value(p: &Parsed, hier: &AmrHierarchy, field: &str) -> Result<f64, String> {
    match p.opt_parse::<f64>("iso")? {
        Some(v) if !v.is_finite() => return Err(format!("--iso must be finite, got {v}")),
        Some(v) => return Ok(v),
        None => {}
    }
    let q = p.opt_parse::<f64>("quantile")?.unwrap_or(0.9);
    if !(0.0..=1.0).contains(&q) {
        return Err("--quantile must be in [0, 1]".into());
    }
    let uniform =
        flatten_to_finest(hier, field, Upsample::PiecewiseConstant).map_err(|e| e.to_string())?;
    if uniform.data.iter().any(|v| !v.is_finite()) {
        return Err(format!(
            "--quantile needs finite data, but field `{field}` holds a NaN or infinity; \
             give the iso value with --iso"
        ));
    }
    Ok(quantile(&uniform.data, q))
}

pub const GENERATE_FLAGS: Flags = (&["out", "scale", "seed"], &["all-fields"]);
pub fn generate(argv: &[String]) -> Result<(), String> {
    let p = parse(argv, GENERATE_FLAGS.0, GENERATE_FLAGS.1)?;
    let app = p.positional(0, "application (nyx|warpx)")?;
    let out = p.required("out")?;
    let scale = match p.opt("scale") {
        None => Scale::Small,
        Some(s) => Scale::parse(s).ok_or(format!("unknown scale `{s}`"))?,
    };
    let seed = p.opt_parse::<u64>("seed")?.unwrap_or(42);
    let hier = match app {
        "nyx" => {
            let mut sc = NyxScenario::new(scale, seed);
            if p.switch("all-fields") {
                sc = sc.with_all_fields();
            }
            sc.generate()
        }
        "warpx" => WarpxScenario::new(scale, seed).generate(),
        other => return Err(format!("unknown application `{other}` (nyx|warpx)")),
    };
    write_plotfile(Path::new(out), &hier).map_err(|e| e.to_string())?;
    outln!(
        "wrote {out}: {} levels, {} cells, fields: {:?}",
        hier.num_levels(),
        hier.total_cells(),
        hier.field_names()
    );
    Ok(())
}

pub const SIMULATE_FLAGS: Flags = (&["out", "n", "steps", "snap-every"], &[]);
pub fn simulate(argv: &[String]) -> Result<(), String> {
    let p = parse(argv, SIMULATE_FLAGS.0, SIMULATE_FLAGS.1)?;
    let out = Path::new(p.required("out")?);
    let n = p.opt_parse::<usize>("n")?.unwrap_or(32);
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    let steps = p.opt_parse::<u64>("steps")?.unwrap_or(24);
    let every = p.opt_parse::<u64>("snap-every")?.unwrap_or(8).max(1);
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let mut sim = AmrAdvection::new(n, [1.0, 0.4, 0.0], 0.02, |pt| {
        let r2 = (pt[0] - 0.25).powi(2) + (pt[1] - 0.3).powi(2) + (pt[2] - 0.5).powi(2);
        (-r2 / (2.0 * 0.07f64.powi(2))).exp()
    });
    let snap = |sim: &AmrAdvection| -> Result<(), String> {
        let h = sim.hierarchy();
        let dir = out.join(format!("plt{:05}", h.step));
        write_plotfile(&dir, h).map_err(|e| e.to_string())?;
        outln!(
            "step {:>4}  t={:.4}  fine cells {:>8}  -> {}",
            h.step,
            sim.time(),
            h.box_array(1).num_cells(),
            dir.display()
        );
        Ok(())
    };
    snap(&sim)?;
    let mut done = 0;
    while done < steps {
        let burst = every.min(steps - done);
        sim.run(burst);
        done += burst;
        snap(&sim)?;
    }
    Ok(())
}

pub const INFO_FLAGS: Flags = (&[], &[]);
pub fn info(argv: &[String]) -> Result<(), String> {
    let p = parse(argv, INFO_FLAGS.0, INFO_FLAGS.1)?;
    let hier = load(p.positional(0, "plotfile path")?)?;
    outln!("levels:      {}", hier.num_levels());
    outln!("ref ratios:  {:?}", hier.ref_ratios());
    outln!("time/step:   {} / {}", hier.time, hier.step);
    let g = hier.geometry();
    outln!("phys box:    {:?} .. {:?}", g.prob_lo, g.prob_hi);
    for lev in 0..hier.num_levels() {
        outln!(
            "level {lev}: domain {:?}, {} boxes, {} cells, density {:.1}%",
            hier.level_domain(lev).size(),
            hier.box_array(lev).len(),
            hier.box_array(lev).num_cells(),
            hier.level_density(lev) * 100.0
        );
    }
    for f in hier.fields() {
        let (lo, hi) = f
            .levels
            .iter()
            .map(|mf| mf.min_max())
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(al, ah), (bl, bh)| {
                (al.min(bl), ah.max(bh))
            });
        outln!("field {:<20} range [{lo:.6e}, {hi:.6e}]", f.name);
    }
    Ok(())
}

pub const COMPRESS_FLAGS: Flags = (&["field", "out", "algo", "rel", "abs"], &["skip-redundant"]);
pub fn compress(argv: &[String]) -> Result<(), String> {
    outln!("{}", compress_file(argv)?);
    Ok(())
}

/// Writes the compressed file and returns its summary line, whose bytes and
/// ratio are the file's.
fn compress_file(argv: &[String]) -> Result<String, String> {
    let p = parse(argv, COMPRESS_FLAGS.0, COMPRESS_FLAGS.1)?;
    let bound = bound(&p)?;
    let hier = load(p.positional(0, "plotfile path")?)?;
    let field = p.required("field")?;
    hier.field(field).map_err(|e| e.to_string())?;
    let out = p.required("out")?;
    let algo = p.opt("algo").unwrap_or("szlr");
    let comp = compressor_by_name(algo)
        .ok_or_else(|| format!("unknown algorithm `{algo}` ({})", ALGORITHMS.join("|")))?;
    let cfg = AmrCodecConfig {
        skip_redundant: p.switch("skip-redundant"),
        restore_redundant: false,
    };
    let sp = amrviz_obs::span!("compress", algo = comp.name());
    let c = compress_hierarchy_field(&hier, field, comp.as_ref(), bound, &cfg)
        .map_err(|e| e.to_string())?;
    let secs = sp.finish();
    let file = encode_artifact(&hier, field, algo, &c);
    std::fs::write(out, &file).map_err(|e| e.to_string())?;
    let stats = CompressionStats::new(c.n_values, file.len());
    Ok(format!(
        "{} -> {out}: {} values, {} bytes, CR {:.1}x (f64) / {:.1}x (f32-equiv), \
         {:.2} bits/value, abs eb {:.3e}, {:.2} s ({:.0} MB/s)",
        comp.name(),
        c.n_values,
        file.len(),
        stats.ratio(),
        stats.ratio_vs_f32(),
        stats.bits_per_value(),
        c.abs_eb,
        secs,
        stats.original_bytes as f64 / secs / 1e6
    ))
}

pub const DECOMPRESS_FLAGS: Flags = (&["out"], &["degrade"]);
/// Decodes a file `compress` wrote into a plotfile holding its one field,
/// on the hierarchy, time and step the file carries, with the compressor and
/// `skip_redundant` setting it names; skipped coarse cells are rebuilt from
/// the finer levels.
pub fn decompress(argv: &[String]) -> Result<(), String> {
    let p = parse(argv, DECOMPRESS_FLAGS.0, DECOMPRESS_FLAGS.1)?;
    let path = p.positional(0, "compressed file path")?;
    let out = p.required("out")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let budget = DecodeBudget::default();
    let art = decode_artifact(&bytes, &budget).map_err(|e| format!("{path}: {e}"))?;
    let policy = if p.switch("degrade") {
        DecodePolicy::Degrade
    } else {
        DecodePolicy::Strict
    };
    let mut levels = Vec::new();
    let report = art
        .decode_levels(policy, &budget, &mut levels, |_, _, _| {
            ControlFlow::Continue(())
        })
        .map_err(|e| e.to_string())?;
    let (n_ok, n_degraded, n_failed) = report.counts();
    if n_degraded + n_failed > 0 {
        eprintln!("decode report: {n_ok} fabs ok, {n_degraded} degraded, {n_failed} failed");
        for (lev, fab, status) in report.problems() {
            match status {
                FabStatus::Degraded { repair, cause } => {
                    eprintln!("  level {lev} fab {fab}: degraded ({repair:?}): {cause}")
                }
                FabStatus::Failed { cause } => {
                    eprintln!("  level {lev} fab {fab}: FAILED (zero-filled): {cause}")
                }
                FabStatus::Ok => {}
            }
        }
    }
    let (field, mut hier) = (art.field, art.hier);
    hier.add_field(&field, levels).map_err(|e| e.to_string())?;
    write_plotfile(Path::new(out), &hier).map_err(|e| e.to_string())?;
    let abs_eb = art.container.abs_eb;
    outln!("wrote {out} with field `{field}` (abs eb {abs_eb:.3e})");
    Ok(())
}

pub const EXTRACT_FLAGS: Flags = (&["field", "out", "iso", "quantile", "method"], &[]);
pub fn extract(argv: &[String]) -> Result<(), String> {
    let p = parse(argv, EXTRACT_FLAGS.0, EXTRACT_FLAGS.1)?;
    let hier = load(p.positional(0, "plotfile path")?)?;
    let field = p.required("field")?;
    let out = p.required("out")?;
    let m = method(p.opt("method"))?;
    let iso = iso_value(&p, &hier, field)?;
    let levels = &hier.field(field).map_err(|e| e.to_string())?.levels;
    let res = extract_amr_isosurface(&hier, levels, iso, m);
    let per_level: Vec<String> = res
        .level_meshes
        .iter()
        .map(|m| m.num_triangles().to_string())
        .collect();
    let mesh = res.into_combined();
    obj::save_obj(Path::new(out), &mesh).map_err(|e| e.to_string())?;
    outln!(
        "{} @ iso {iso:.6e}: {} triangles ({} per-level) -> {out}",
        m.label(),
        mesh.num_triangles(),
        per_level.join(" + ")
    );
    Ok(())
}

/// The largest `render --width`/`--height`: an 8192² image and its
/// z-buffer take ≈ 0.7 GB.
const MAX_IMAGE_SIDE: usize = 8192;

pub const RENDER_FLAGS: Flags = (
    &[
        "field", "out", "iso", "quantile", "method", "mode", "width", "height",
    ],
    &["log"],
);
pub fn render(argv: &[String]) -> Result<(), String> {
    let p = parse(argv, RENDER_FLAGS.0, RENDER_FLAGS.1)?;
    let width = p.opt_parse::<usize>("width")?.unwrap_or(960);
    let height = p.opt_parse::<usize>("height")?.unwrap_or(720);
    for (flag, pixels) in [("width", width), ("height", height)] {
        if pixels == 0 {
            return Err(format!("--{flag} must be at least 1"));
        }
        if pixels > MAX_IMAGE_SIDE {
            return Err(format!("--{flag} must be at most {MAX_IMAGE_SIDE}"));
        }
    }
    let hier = load(p.positional(0, "plotfile path")?)?;
    let field = p.required("field")?;
    let out = p.required("out")?;

    let img = match p.opt("mode").unwrap_or("surface") {
        "surface" => {
            let m = method(p.opt("method"))?;
            let iso = iso_value(&p, &hier, field)?;
            let levels = &hier.field(field).map_err(|e| e.to_string())?.levels;
            let mesh = extract_amr_isosurface(&hier, levels, iso, m).into_combined();
            outln!(
                "surface @ iso {iso:.6e}: {} triangles",
                mesh.num_triangles()
            );
            let cam = standard_camera(hier.geometry());
            render_mesh(&mesh, &cam, &RenderOptions { width, height })
        }
        "slice" => render_slice(&hier, field, p.switch("log")).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown mode `{other}` (surface|slice)")),
    };
    img.save_png(Path::new(out)).map_err(|e| e.to_string())?;
    outln!("wrote {out} ({}x{})", img.width, img.height);
    Ok(())
}

pub const DIFF_FLAGS: Flags = (&["field"], &[]);
/// Compares a field across two plotfiles on the uniform-resolution merge:
/// PSNR, SSIM, R-SSIM, max error — the quality check for a compression
/// round-trip.
pub fn diff(argv: &[String]) -> Result<(), String> {
    let p = parse(argv, DIFF_FLAGS.0, DIFF_FLAGS.1)?;
    let ha = load(p.positional(0, "first plotfile")?)?;
    let hb = load(p.positional(1, "second plotfile")?)?;
    let f = p.required("field")?;
    let ua = flatten_to_finest(&ha, f, Upsample::PiecewiseConstant).map_err(|e| e.to_string())?;
    let ub = flatten_to_finest(&hb, f, Upsample::PiecewiseConstant).map_err(|e| e.to_string())?;
    if ua.dims() != ub.dims() {
        return Err(format!(
            "shape mismatch: {:?} vs {:?}",
            ua.dims(),
            ub.dims()
        ));
    }
    let q = amrviz_metrics::quality(&ua.data, &ub.data);
    let s = amrviz_metrics::ssim3(
        &ua.data,
        &ub.data,
        ua.dims(),
        &amrviz_metrics::SsimConfig::default(),
    );
    outln!("samples:     {}", q.n);
    outln!("range (A):   {:.6e}", q.range);
    outln!("max |err|:   {:.6e}", q.max_abs_err);
    outln!("RMSE:        {:.6e}", q.rmse);
    outln!("PSNR:        {:.2} dB", q.psnr);
    outln!("SSIM:        {:.9}", s);
    outln!("R-SSIM:      {:.3e}", 1.0 - s);
    Ok(())
}

pub const TORTURE_FLAGS: Flags = (&["iters", "seed", "recipes"], &["serve"]);
/// Fault-injection sweep: corrupt known-good streams and assert every
/// decoder errors gracefully within its memory budget; `--serve` instead
/// chaos-tests the serving stack.
pub fn torture(argv: &[String]) -> Result<(), String> {
    let p = parse(argv, TORTURE_FLAGS.0, TORTURE_FLAGS.1)?;
    let verdict = if p.switch("serve") {
        if p.opt("recipes").is_some() {
            return Err("--recipes samples decoder targets; --serve has none".into());
        }
        let cfg = amrviz_fault::ServeTortureConfig {
            iters: p.opt_parse::<u64>("iters")?.unwrap_or(300),
            seed: p.opt_parse::<u64>("seed")?.unwrap_or(7),
            ..amrviz_fault::ServeTortureConfig::default()
        };
        if cfg.iters == 0 {
            return Err("--iters must be at least 1".into());
        }
        amrviz_fault::serve_torture::run(&cfg).verdict()
    } else {
        let cfg = amrviz_fault::TortureConfig {
            seed: p.opt_parse::<u64>("seed")?.unwrap_or(7),
            iters: p.opt_parse::<u32>("iters")?.unwrap_or(500),
            recipes: p.opt_parse::<u32>("recipes")?.unwrap_or(0),
        };
        if cfg.iters == 0 {
            return Err("--iters must be at least 1".into());
        }
        amrviz_fault::run_torture(&cfg).verdict()
    };
    outln!("{}", verdict.line);
    verdict.result
}

pub const STATS_FLAGS: Flags = (&["slo"], &["strict"]);
/// Pretty-prints a `--journal` JSONL file. Journals written by newer
/// binaries may carry event kinds this binary doesn't know; those (and
/// malformed lines) warn and are skipped so the tool stays useful across
/// versions — `--strict` restores hard failure on the first bad line (the CI
/// well-formedness check). `--slo SPEC` additionally gates the journal's
/// server-side outcomes against a declared objective.
pub fn stats(argv: &[String]) -> Result<(), String> {
    let p = parse(argv, STATS_FLAGS.0, STATS_FLAGS.1)?;
    let path = p.positional(0, "journal file (JSONL)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if text.trim().is_empty() {
        return Err(format!("{path} is empty"));
    }
    let mut out = std::io::stdout().lock();
    stats_journal(&mut out, path, &text, p.switch("strict"), p.opt("slo"))
}

/// Journal event kinds this binary understands.
const KNOWN_KINDS: [&str; 5] = ["span", "serve", "meta", "fault", "slo"];

// Defaulting readers for the JSON the program writes, journal lines and the
// STATS snapshot alike: a field that is missing or of another type reads
// as 0, 0.0, `false`, `?` or no entries.

pub(crate) fn u64_of(j: &Json, k: &str) -> u64 {
    j.get(k).and_then(Json::as_u64).unwrap_or(0)
}

pub(crate) fn f64_of(j: &Json, k: &str) -> f64 {
    j.get(k).and_then(Json::as_f64).unwrap_or(0.0)
}

pub(crate) fn bool_of(j: &Json, k: &str) -> bool {
    j.get(k).and_then(Json::as_bool).unwrap_or(false)
}

pub(crate) fn str_of<'a>(j: &'a Json, k: &str) -> &'a str {
    j.get(k).and_then(Json::as_str).unwrap_or("?")
}

pub(crate) fn entries_of<'a>(j: &'a Json, k: &str) -> &'a [(String, Json)] {
    match j.get(k) {
        Some(Json::Obj(entries)) => entries,
        _ => &[],
    }
}

/// A `serve` line with its result: the server's `status` or the client's
/// `outcome`.
type ServeLine<'a> = (&'a str, &'a Json);

fn stats_journal(
    out: &mut dyn Write,
    path: &str,
    text: &str,
    strict: bool,
    slo: Option<&str>,
) -> Result<(), String> {
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    let (mut spans, mut serve, mut slo_events) = (Vec::new(), Vec::new(), Vec::new());
    let mut warned_kinds: BTreeSet<String> = Default::default();
    let mut dropped = 0u64;
    let mut n_lines = 0u64;
    let mut skipped = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        n_lines += 1;
        // Every line should be a standalone JSON object carrying `kind` —
        // the schema contract. Violations are fatal under --strict and
        // warn-and-skip otherwise (a journal from a newer binary must stay
        // readable).
        let v = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                if strict {
                    return Err(format!("{path}:{}: {e}", i + 1));
                }
                eprintln!("warning: {path}:{}: skipping unparseable line: {e}", i + 1);
                skipped += 1;
                continue;
            }
        };
        let kind = match v.get("kind").and_then(|k| k.as_str()) {
            Some(k) => k,
            None => {
                if strict {
                    return Err(format!("{path}:{}: line has no `kind`", i + 1));
                }
                eprintln!("warning: {path}:{}: skipping line with no `kind`", i + 1);
                skipped += 1;
                continue;
            }
        };
        *kinds.entry(kind.to_string()).or_insert(0) += 1;
        if !KNOWN_KINDS.contains(&kind) {
            if strict {
                return Err(format!("{path}:{}: unknown event kind `{kind}`", i + 1));
            }
            if warned_kinds.insert(kind.to_string()) {
                eprintln!(
                    "warning: {path}: unknown event kind `{kind}` (newer journal \
                     schema?); counting but not interpreting it"
                );
            }
            skipped += 1;
            continue;
        }
        match kind {
            "span" => spans.push(v),
            "serve" => serve.push(v),
            "meta" => {
                if let Some(d) = v.get("dropped").and_then(|d| d.as_u64()) {
                    dropped = d;
                }
            }
            "slo" => slo_events.push(v),
            _ => {}
        }
    }
    // Lifecycle events (e.g. drain) carry neither `status` nor `outcome` and
    // are counted in the kind totals only.
    let serve_lines: Vec<ServeLine> = serve
        .iter()
        .filter_map(|l| Some((l.get("status").or_else(|| l.get("outcome"))?.as_str()?, l)))
        .collect();

    // `--slo SPEC`: gate the journal's server-side outcomes against a
    // declared objective, whole journal as one window. Exact-rank p99 (not
    // log-bucketed) since the raw latencies are all in hand. Judged before
    // anything is printed, so a reader that hangs up early cannot skip it.
    let gate = match slo {
        None => None,
        Some(spec_str) => {
            let spec = amrviz_serve::slo::SloSpec::parse(spec_str)?;
            // The live STATS endpoint's rule, applied to the journal's status
            // names: client-attributable errors don't burn the server's
            // budget. A name this build does not know counts, and is not good.
            let status = |name| amrviz_serve::Status::from_name(name);
            let server: Vec<&ServeLine> = serve_lines
                .iter()
                .filter(|(name, l)| {
                    str_of(l, "role") == "server"
                        && status(name).is_none_or(amrviz_serve::Status::counts_toward_slo)
                })
                .collect();
            let good = server
                .iter()
                .filter(|(name, _)| status(name).is_some_and(amrviz_serve::Status::is_good))
                .count() as u64;
            let mut lat: Vec<u64> = server
                .iter()
                .map(|(_, l)| u64_of(l, "elapsed_us"))
                .collect();
            lat.sort_unstable();
            let reading = amrviz_serve::slo::WindowReading {
                label: "journal",
                secs: 0,
                good,
                total: server.len() as u64,
                p99_us: amrviz_obs::hist::exact_percentile(&lat, 0.99),
            };
            Some((server.len(), amrviz_serve::slo::evaluate(&spec, &[reading])))
        }
    };

    let printed = (|| -> std::io::Result<()> {
        if skipped > 0 {
            writeln!(
                out,
                "journal {path}: {n_lines} lines, {dropped} dropped, {skipped} skipped"
            )?;
        } else {
            writeln!(out, "journal {path}: {n_lines} lines, {dropped} dropped")?;
        }
        for (kind, n) in &kinds {
            writeln!(out, "  {kind:<12} {n}")?;
        }
        if !serve_lines.is_empty() {
            print_serve_summary(out, &serve_lines)?;
            print_tail_breakdown(out, &serve_lines)?;
        }
        if !slo_events.is_empty() {
            writeln!(out, "slo events ({}):", slo_events.len())?;
            writeln!(
                out,
                "  {:<20} {:<6} {:>12} {:>10} {:>8} {:>9}",
                "spec", "window", "good/total", "p99 ms", "burn", "breached"
            )?;
            for e in &slo_events {
                writeln!(
                    out,
                    "  {:<20} {:<6} {:>12} {:>10.2} {:>8.2} {:>9}",
                    str_of(e, "spec"),
                    str_of(e, "window"),
                    format!("{}/{}", u64_of(e, "good"), u64_of(e, "total")),
                    u64_of(e, "p99_us") as f64 / 1e3,
                    f64_of(e, "burn"),
                    bool_of(e, "breached")
                )?;
            }
        }

        // Stitch spans into per-trace trees, traces in first-seen order; a
        // span outside any trace is trace 0's.
        let mut trace_order: Vec<&str> = Vec::new();
        let mut by_trace: BTreeMap<&str, Vec<usize>> = Default::default();
        for (i, s) in spans.iter().enumerate() {
            let trace = s.get("trace").and_then(Json::as_str).unwrap_or("0");
            if !by_trace.contains_key(trace) {
                trace_order.push(trace);
            }
            by_trace.entry(trace).or_default().push(i);
        }
        const MAX_TRACES: usize = 20;
        for trace in trace_order.iter().take(MAX_TRACES) {
            let idxs = &by_trace[trace];
            writeln!(out, "trace {trace} ({} spans):", idxs.len())?;
            let ids: BTreeSet<u64> = idxs.iter().map(|&i| u64_of(&spans[i], "span")).collect();
            let mut children: BTreeMap<u64, Vec<usize>> = Default::default();
            let mut roots: Vec<usize> = Vec::new();
            for &i in idxs {
                let parent = u64_of(&spans[i], "parent");
                if parent != 0 && ids.contains(&parent) {
                    children.entry(parent).or_default().push(i);
                } else {
                    roots.push(i);
                }
            }
            let order = |list: &mut Vec<usize>| {
                list.sort_by_key(|&i| (u64_of(&spans[i], "start_ns"), u64_of(&spans[i], "span")));
            };
            order(&mut roots);
            for list in children.values_mut() {
                order(list);
            }
            // Depth-first print; explicit stack so deep trees can't recurse out.
            let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
            while let Some((i, depth)) = stack.pop() {
                let s = &spans[i];
                writeln!(
                    out,
                    "  {:indent$}{} [{:.3} ms, thread {}]",
                    "",
                    str_of(s, "name"),
                    u64_of(s, "dur_ns") as f64 / 1e6,
                    u64_of(s, "thread"),
                    indent = depth * 2
                )?;
                if let Some(kids) = children.get(&u64_of(s, "span")) {
                    for &k in kids.iter().rev() {
                        stack.push((k, depth + 1));
                    }
                }
            }
        }
        if trace_order.len() > MAX_TRACES {
            writeln!(
                out,
                "... and {} more trace(s)",
                trace_order.len() - MAX_TRACES
            )?;
        }
        if let Some((_, eval)) = &gate {
            writeln!(out, "SLO_EVAL {}", eval.to_json())?;
        }
        Ok(())
    })();
    match printed {
        // `stats FILE | head -1`: the reader has what it came for.
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            return Err(format!("writing stats: {e}"))
        }
        _ => {}
    }
    match gate {
        Some((requests, eval)) if eval.breached() => Err(format!(
            "SLO {} breached over {requests} server request(s) in {path}",
            eval.spec.display()
        )),
        _ => Ok(()),
    }
}

/// Names the dominant stage of the slowest server requests — the "p99 is
/// decode-bound" answer, straight from journal `stages_us` breakdowns.
fn print_tail_breakdown(out: &mut dyn Write, lines: &[ServeLine]) -> std::io::Result<()> {
    let mut tail: Vec<ServeLine> = lines
        .iter()
        .copied()
        .filter(|(_, l)| str_of(l, "role") == "server" && !entries_of(l, "stages_us").is_empty())
        .collect();
    if tail.is_empty() {
        return Ok(());
    }
    tail.sort_by_key(|&(_, l)| std::cmp::Reverse((u64_of(l, "elapsed_us"), str_of(l, "trace"))));
    writeln!(out, "slowest server requests (stage-attributed):")?;
    for (result, l) in tail.into_iter().take(3) {
        let elapsed_us = u64_of(l, "elapsed_us");
        let stages = entries_of(l, "stages_us").iter();
        let stages = stages.map(|(name, us)| (name.as_str(), us.as_u64().unwrap_or(0)));
        let attribution = match dominant_stage(stages) {
            Some((name, us)) if elapsed_us > 0 => format!(
                "{name}-bound ({:.2} ms, {:.0}%)",
                us as f64 / 1e3,
                us as f64 / elapsed_us as f64 * 100.0
            ),
            Some((name, us)) => format!("{name}-bound ({:.2} ms)", us as f64 / 1e3),
            None => "no stage breakdown".to_string(),
        };
        let first = l.get("first_level_us").and_then(Json::as_u64);
        let first = first.map_or(String::new(), |us| {
            format!(", first level at {:.2} ms", us as f64 / 1e3)
        });
        writeln!(
            out,
            "  {:>10.2} ms  trace {}  {result}  {attribution}{first}",
            elapsed_us as f64 / 1e3,
            str_of(l, "trace"),
        )?;
    }
    Ok(())
}

/// Per-role outcome table plus client↔server trace stitching for the
/// `serve` journal kind.
fn print_serve_summary(out: &mut dyn Write, lines: &[ServeLine]) -> std::io::Result<()> {
    let pct = |sorted_us: &[u64], p: f64| -> f64 {
        amrviz_obs::hist::exact_percentile(sorted_us, p) as f64 / 1e3
    };
    // (role, result) -> latencies; BTreeMap keeps the table stable.
    let mut table: BTreeMap<(&str, &str), Vec<u64>> = Default::default();
    for &(result, l) in lines {
        let latencies = table.entry((str_of(l, "role"), result)).or_default();
        latencies.push(u64_of(l, "elapsed_us"));
    }
    writeln!(out, "serve outcomes ({} lines):", lines.len())?;
    writeln!(
        out,
        "  {:<8} {:<16} {:>8} {:>10} {:>10}",
        "role", "outcome", "count", "p50 ms", "p99 ms"
    )?;
    for ((role, result), lat) in &mut table {
        lat.sort_unstable();
        writeln!(
            out,
            "  {role:<8} {result:<16} {:>8} {:>10.2} {:>10.2}",
            lat.len(),
            pct(lat, 0.50),
            pct(lat, 0.99)
        )?;
    }
    // When a viewer could first render, against when the stream closed.
    let first = lines
        .iter()
        .filter_map(|(_, l)| l.get("first_level_us")?.as_u64());
    let mut first: Vec<u64> = first.collect();
    if !first.is_empty() {
        first.sort_unstable();
        writeln!(
            out,
            "  server first_level_us over {} GET(s): p50 {:.2} ms, p99 {:.2} ms",
            first.len(),
            pct(&first, 0.50),
            pct(&first, 0.99)
        )?;
    }
    // Stitching: a trace observed by both ends means the client journal line
    // and the server journal line describe the same exchange.
    let mut server_traces: BTreeSet<&str> = Default::default();
    let mut client_traces: BTreeSet<&str> = Default::default();
    for (_, l) in lines {
        let trace = str_of(l, "trace");
        if trace == "?" {
            continue;
        }
        match str_of(l, "role") {
            "server" => {
                server_traces.insert(trace);
            }
            "client" => {
                client_traces.insert(trace);
            }
            _ => {}
        }
    }
    let both = server_traces.intersection(&client_traces).count();
    writeln!(
        out,
        "  traces: {both} stitched (both ends), {} server-only, {} client-only",
        server_traces.len() - both,
        client_traces.len() - both
    )
}

/// Seeds a serve store with deterministic tiny scenario artifacts so the
/// server (and CI) has something to stream without a prior `generate` +
/// `compress` pipeline run.
fn seed_store(dir: &Path, n: usize, seed: u64) -> Result<Vec<u64>, String> {
    let store = amrviz_serve::BlobStore::open(dir).map_err(|e| e.to_string())?;
    let cfg = AmrCodecConfig::default();
    let mut keys = Vec::new();
    for i in 0..n {
        // Alternate Nyx (spiky) and WarpX (smooth) tiny snapshots.
        let (hier, field) = if i % 2 == 0 {
            (
                NyxScenario::new(Scale::Tiny, seed + i as u64).generate(),
                "baryon_density",
            )
        } else {
            (
                WarpxScenario::new(Scale::Tiny, seed + i as u64).generate(),
                "Ez",
            )
        };
        let container =
            compress_hierarchy_field(&hier, field, &SzLr::default(), ErrorBound::Rel(1e-3), &cfg)
                .map_err(|e| format!("seeding store: {e}"))?;
        let key = store
            .put(&encode_artifact(&hier, field, "szlr", &container))
            .map_err(|e| e.to_string())?;
        keys.push(key);
    }
    Ok(keys)
}

pub const SERVE_FLAGS: Flags = (
    &[
        "store",
        "addr",
        "workers",
        "queue-depth",
        "cache-mb",
        "shutdown-after",
        "chaos",
        "seed-scenarios",
        "seed",
        "slo",
    ],
    &[],
);
/// `amrviz serve`: run the progressive server (optionally behind a chaos
/// proxy) until `--shutdown-after` elapses.
pub fn serve(argv: &[String]) -> Result<(), String> {
    let p = parse(argv, SERVE_FLAGS.0, SERVE_FLAGS.1)?;
    let store_dir = std::path::PathBuf::from(p.required("store")?);
    let shutdown_after = p.opt_secs("shutdown-after")?;
    if let Some(n) = p.opt_parse::<usize>("seed-scenarios")? {
        let seed = p.opt_parse::<u64>("seed")?.unwrap_or(1);
        let keys = seed_store(&store_dir, n, seed)?;
        let hex: Vec<String> = keys.iter().map(|k| format!("\"{k:016x}\"")).collect();
        outln!("SERVE_KEYS [{}]", hex.join(","));
    }
    if shutdown_after.is_none() {
        eprintln!("note: no --shutdown-after given; serving until killed");
    }
    let cfg = amrviz_serve::ServeConfig {
        addr: p.opt("addr").unwrap_or("127.0.0.1:0").to_string(),
        store_dir,
        workers: p.opt_parse::<usize>("workers")?.unwrap_or(2),
        queue_depth: p.opt_parse::<usize>("queue-depth")?.unwrap_or(32),
        cache_bytes: p
            .opt_parse::<usize>("cache-mb")?
            .unwrap_or(256)
            .saturating_mul(1 << 20),
        slo: match p.opt("slo") {
            Some(s) => amrviz_serve::slo::SloSpec::parse(s)?,
            None => amrviz_serve::slo::SloSpec::default(),
        },
    };
    let server = amrviz_serve::start(cfg).map_err(|e| format!("starting server: {e}"))?;
    let proxy = match p.opt_parse::<u64>("chaos")? {
        Some(chaos_seed) => Some(
            amrviz_serve::ChaosProxy::start(server.addr(), chaos_seed)
                .map_err(|e| format!("starting chaos proxy: {e}"))?,
        ),
        None => None,
    };
    // Machine-readable address line for scripts (CI parses this).
    match &proxy {
        Some(pr) => outln!("SERVE_LISTENING addr={} chaos={}", server.addr(), pr.addr()),
        None => outln!("SERVE_LISTENING addr={}", server.addr()),
    }
    let _ = std::io::stdout().flush();

    if let Some(after) = shutdown_after {
        std::thread::sleep(after);
        server.shutdown();
    }
    let stats = server.join();
    if let Some(pr) = proxy {
        pr.stop();
    }
    outln!("SERVE_STATS {}", stats.to_json_line());
    if stats.panics > 0 || stats.post_deadline_responses > 0 {
        return Err(format!(
            "serve invariants violated: {} panic(s), {} post-deadline response(s)",
            stats.panics, stats.post_deadline_responses
        ));
    }
    Ok(())
}

pub const LOADGEN_FLAGS: Flags = (
    &[
        "addr",
        "clients",
        "rps",
        "duration",
        "deadline-ms",
        "seed",
        "min-success",
        "slo",
    ],
    &[],
);
/// `amrviz loadgen`: drive a running server and report latency/outcome
/// distribution; exits nonzero below the success-rate floor.
pub fn loadgen(argv: &[String]) -> Result<(), String> {
    let p = parse(argv, LOADGEN_FLAGS.0, LOADGEN_FLAGS.1)?;
    let addr: std::net::SocketAddr = p
        .required("addr")?
        .parse()
        .map_err(|e| format!("--addr: {e}"))?;
    let cfg = amrviz_serve::LoadgenConfig {
        addr,
        clients: p.opt_parse::<usize>("clients")?.unwrap_or(4),
        rps: p.opt_parse::<f64>("rps")?.unwrap_or(20.0),
        duration: p
            .opt_secs("duration")?
            .unwrap_or(std::time::Duration::from_secs(5)),
        deadline_ms: p.opt_parse::<u32>("deadline-ms")?.unwrap_or(500),
        seed: p.opt_parse::<u64>("seed")?.unwrap_or(1),
    };
    let min_success = p.opt_parse::<f64>("min-success")?.unwrap_or(0.9);

    // Discover keys from the server itself: one LIST exchange.
    let list = amrviz_serve::exchange(
        addr,
        &amrviz_serve::Request {
            op: amrviz_serve::Op::List,
            trace: 1,
            key: 0,
            deadline_ms: 5_000,
            max_level: 0,
        },
        &amrviz_serve::ClientConfig::default(),
    );
    let keys = match list.keys {
        Some(k) if !k.is_empty() => k,
        _ => {
            return Err(format!(
                "could not list keys from {addr} (outcome: {}); is the server \
                 running with a seeded store?",
                list.outcome.name()
            ))
        }
    };

    let report = amrviz_serve::loadgen::run(&cfg, &keys);
    outln!("LOADGEN {}", report.to_json_line());
    outln!(
        "loadgen: {} requests ({} attempts), p50 {:.1} ms, p99 {:.1} ms, success {:.1}%",
        report.requests,
        report.attempts,
        report.p50_us as f64 / 1e3,
        report.p99_us as f64 / 1e3,
        report.success_rate * 100.0
    );
    if report.late_frames > 0 {
        return Err(format!(
            "{} frame(s) arrived after deadline+grace",
            report.late_frames
        ));
    }
    if report.success_rate < min_success {
        return Err(format!(
            "success rate {:.3} below --min-success {min_success}",
            report.success_rate
        ));
    }
    // `--slo`: gate the whole run as one evaluation window, reusing the
    // same evaluator the server's burn-rate windows run through.
    if let Some(spec_str) = p.opt("slo") {
        let spec = amrviz_serve::slo::SloSpec::parse(spec_str)?;
        let good = report.good;
        let reading = amrviz_serve::slo::WindowReading {
            label: "run",
            secs: cfg.duration.as_secs(),
            good,
            total: report.requests,
            p99_us: report.p99_us,
        };
        let eval = amrviz_serve::slo::evaluate(&spec, &[reading]);
        outln!("LOADGEN_SLO {}", eval.to_json());
        if eval.breached() {
            return Err(format!(
                "SLO {} breached over the run ({good}/{} good, p99 {:.1} ms)",
                spec.display(),
                report.requests,
                report.p99_us as f64 / 1e3
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts `room` bytes, then reports that the reader has hung up.
    struct HangsUp {
        room: usize,
    }

    impl Write for HangsUp {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One journal holding every kind `amrviz stats` reads: spans of two
    /// traces, nested and out of start order; server lines with stages and
    /// a first level; a client line sharing a trace with a server line; a
    /// shed event with no status; `slo`, `fault` and `meta` lines, and a
    /// kind this build does not know.
    const JOURNAL: &str = r#"{"seq":1,"kind":"span","trace":"00000000000000a1","span":1,"parent":0,"name":"repro.table2","thread":1,"start_ns":100,"dur_ns":9000000}
{"seq":2,"kind":"span","trace":"00000000000000b2","span":9,"parent":0,"name":"serve.get","thread":3,"start_ns":50,"dur_ns":1500000}
{"seq":3,"kind":"span","trace":"00000000000000a1","span":3,"parent":1,"name":"compress","thread":2,"start_ns":700,"dur_ns":2500000}
{"seq":4,"kind":"span","trace":"00000000000000a1","span":2,"parent":1,"name":"generate","thread":1,"start_ns":200,"dur_ns":400000}
{"seq":5,"kind":"span","trace":"00000000000000a1","span":4,"parent":3,"name":"compress.level","thread":2,"start_ns":800,"dur_ns":1250000}
{"seq":6,"kind":"serve","trace":"0000000000000001","thread":4,"role":"server","status":"ok","elapsed_us":1500,"levels_sent":2,"stages_us":{"queue_wait":10,"store_read":90,"decode":1200,"write":200},"first_level_us":700}
{"seq":7,"kind":"serve","trace":"0000000000000002","thread":4,"role":"server","status":"timeout","elapsed_us":9000,"levels_sent":0,"stages_us":{"queue_wait":500,"decode":8000}}
{"seq":8,"kind":"serve","trace":"0000000000000001","thread":5,"role":"client","outcome":"ok","attempt":0,"elapsed_us":1800,"late_frames":0}
{"seq":9,"kind":"serve","trace":"0000000000000003","thread":5,"role":"client","outcome":"shed","attempt":0,"elapsed_us":300,"late_frames":0}
{"seq":10,"kind":"serve","thread":6,"role":"server","event":"shed","retry_after_ms":50}
{"seq":11,"kind":"slo","thread":4,"spec":"p99<250ms,avail>99%","window":"1m","secs":60,"good":1,"total":2,"p99_us":9000,"burn":50.00,"avail_exceeded":true,"latency_exceeded":false,"breached":true}
{"seq":12,"kind":"fault","thread":1,"what":"panic","target":"szlr","iter":3,"seed":7,"fault_trace":"00000000000000c3","mutations":["bitflip"]}
{"seq":13,"kind":"mystery","thread":1}
{"seq":14,"kind":"meta","thread":0,"dropped":3}
"#;

    /// `amrviz stats FILE | head -1`: a closed pipe ends the printing, not
    /// the command — and not the `--slo` gate either.
    #[test]
    fn stats_survives_a_reader_that_hangs_up() {
        for room in [0, 10, 600] {
            let mut pipe = HangsUp { room };
            assert_eq!(stats_journal(&mut pipe, "j", JOURNAL, false, None), Ok(()));
            let gated = stats_journal(&mut pipe, "j", JOURNAL, false, Some("avail>99"));
            assert!(
                gated.unwrap_err().starts_with("SLO avail>99"),
                "room {room}"
            );
        }
        // Any other write error is still an error.
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let failed = stats_journal(&mut Full, "j", JOURNAL, false, None).unwrap_err();
        assert!(failed.starts_with("writing stats:"), "{failed}");
    }

    /// `amrviz stats` on [`JOURNAL`], pinned whole, with and without
    /// `--slo`.
    #[test]
    fn stats_renders_every_journal_kind() {
        let render = |slo| {
            let mut out = Vec::new();
            let result = stats_journal(&mut out, "j", JOURNAL, false, slo);
            (String::from_utf8(out).unwrap(), result)
        };
        let plain = "\
journal j: 14 lines, 3 dropped, 1 skipped
  fault        1
  meta         1
  mystery      1
  serve        5
  slo          1
  span         5
serve outcomes (4 lines):
  role     outcome             count     p50 ms     p99 ms
  client   ok                      1       1.80       1.80
  client   shed                    1       0.30       0.30
  server   ok                      1       1.50       1.50
  server   timeout                 1       9.00       9.00
  server first_level_us over 1 GET(s): p50 0.70 ms, p99 0.70 ms
  traces: 1 stitched (both ends), 1 server-only, 1 client-only
slowest server requests (stage-attributed):
        9.00 ms  trace 0000000000000002  timeout  decode-bound (8.00 ms, 89%)
        1.50 ms  trace 0000000000000001  ok  decode-bound (1.20 ms, 80%), first level at 0.70 ms
slo events (1):
  spec                 window   good/total     p99 ms     burn  breached
  p99<250ms,avail>99%  1m              1/2       9.00    50.00      true
trace 00000000000000a1 (4 spans):
  repro.table2 [9.000 ms, thread 1]
    generate [0.400 ms, thread 1]
    compress [2.500 ms, thread 2]
      compress.level [1.250 ms, thread 2]
trace 00000000000000b2 (1 spans):
  serve.get [1.500 ms, thread 3]
";
        assert_eq!(render(None), (plain.to_string(), Ok(())));
        let eval = r#"SLO_EVAL {"spec":"p99<10,avail>40","windows":[{"label":"journal","secs":0,"good":1,"total":2,"p99_us":9000,"burn":0.83,"avail_exceeded":false,"latency_exceeded":false}],"avail_breach":false,"latency_breach":false,"breached":false}"#;
        let gated = (format!("{plain}{eval}\n"), Ok(()));
        assert_eq!(render(Some("p99<10,avail>40")), gated);
        let (_, breached) = render(Some("p99<5,avail>40"));
        let why = "SLO p99<5,avail>40 breached over 2 server request(s) in j";
        assert_eq!(breached, Err(why.to_string()));
    }

    /// Journal lines that leave out every optional field `stats` reads: a
    /// span without `trace`, `name` or `thread`, a serve line without
    /// `trace`, `role` or `elapsed_us`, a server line without `trace` or
    /// `elapsed_us`, and an `slo` line without `burn` or `breached`.
    const SPARSE_JOURNAL: &str = r#"{"seq":1,"kind":"span","span":5,"parent":0,"start_ns":10,"dur_ns":2000000}
{"seq":2,"kind":"serve","status":"ok","stages_us":{"decode":40}}
{"seq":3,"kind":"serve","role":"server","status":"corrupt","stages_us":{"store_read":70,"decode":30},"first_level_us":20}
{"seq":4,"kind":"slo","spec":"avail>99%","window":"5m","good":3,"total":4,"p99_us":1500}
"#;

    /// What each missing field reads as, pinned whole: a span's trace `0`
    /// and name `?`, a serve line's trace and role `?`, an elapsed time
    /// of 0, a burn of 0.00 and `breached` false.
    #[test]
    fn stats_renders_the_defaults_of_missing_fields() {
        let mut out = Vec::new();
        let result = stats_journal(&mut out, "s", SPARSE_JOURNAL, true, None);
        let text = "\
journal s: 4 lines, 0 dropped
  serve        2
  slo          1
  span         1
serve outcomes (2 lines):
  role     outcome             count     p50 ms     p99 ms
  ?        ok                      1       0.00       0.00
  server   corrupt                 1       0.00       0.00
  server first_level_us over 1 GET(s): p50 0.02 ms, p99 0.02 ms
  traces: 0 stitched (both ends), 0 server-only, 0 client-only
slowest server requests (stage-attributed):
        0.00 ms  trace ?  corrupt  store_read-bound (0.07 ms), first level at 0.02 ms
slo events (1):
  spec                 window   good/total     p99 ms     burn  breached
  avail>99%            5m              3/4       1.50     0.00     false
trace 0 (1 spans):
  ? [2.000 ms, thread 0]
";
        assert_eq!(
            (String::from_utf8(out).unwrap(), result),
            (text.into(), Ok(()))
        );
    }

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    /// A zero-sized image or grid, or an image side past
    /// [`MAX_IMAGE_SIDE`], is refused by name before any input is read or
    /// any output written.
    #[test]
    fn zero_sizes_are_refused_by_name() {
        let root = std::env::temp_dir().join(format!("amrviz_cli_zero_{}", std::process::id()));
        let out = root.join("out.png").to_string_lossy().into_owned();
        for flag in ["--width", "--height"] {
            for pixels in ["0", "8193", "200000"] {
                let argv = args(&["missing", "--field", "f", "--out", &out, flag, pixels]);
                let err = render(&argv).unwrap_err();
                assert!(err.starts_with(flag), "{flag} {pixels}: {err}");
            }
            // The limit itself passes the flag check; the missing plotfile
            // fails next.
            let argv = args(&["missing", "--field", "f", "--out", &out, flag, "8192"]);
            let err = render(&argv).unwrap_err();
            assert!(!err.starts_with(flag), "{flag} 8192: {err}");
        }
        let dir = root.join("sim").to_string_lossy().into_owned();
        let err = simulate(&args(&["--out", &dir, "--n", "0"])).unwrap_err();
        assert!(err.starts_with("--n "), "{err}");
        assert!(!root.exists(), "nothing is written");
    }

    /// `--recipes` samples decoder targets, so the serve torture, which has
    /// none, refuses it by name before it starts a server.
    #[test]
    fn torture_serve_refuses_recipes_by_name() {
        for recipes in ["0", "3"] {
            let argv = args(&["--serve", "--recipes", recipes, "--iters", "1"]);
            let err = torture(&argv).unwrap_err();
            assert!(err.starts_with("--recipes "), "{recipes}: {err}");
        }
    }

    /// A non-finite or non-positive error bound is refused by name before
    /// any input is read; one that only overflows against the data's range
    /// is a typed error, not a panic, and so is a field the plotfile lacks.
    /// None writes an output.
    #[test]
    fn bad_error_bounds_are_refused_by_name() {
        let root = std::env::temp_dir().join(format!("amrviz_cli_eb_{}", std::process::id()));
        let path = |leaf: &str| root.join(leaf).to_string_lossy().into_owned();
        let (ds, out) = (path("ds"), path("out.amrz"));
        for (flag, eb) in [("--abs", "inf"), ("--rel", "nan"), ("--abs", "-1")] {
            let argv = args(&["missing", "--field", "f", "--out", &out, flag, eb]);
            let err = compress(&argv).unwrap_err();
            assert!(err.starts_with(flag), "{flag} {eb}: {err}");
        }
        assert!(!root.exists(), "nothing is written");
        generate(&args(&["warpx", "--out", &ds, "--scale", "tiny"])).unwrap();
        for (flag, eb) in [
            ("--abs", "inf"),
            ("--rel", "1e308"),
            ("--rel", "nan"),
            ("--abs", "-1"),
        ] {
            let argv = args(&[&ds, "--field", "Ez", "--out", &out, flag, eb]);
            let err = compress(&argv).unwrap_err();
            assert!(
                err.starts_with(flag) || err.contains("bad error bound inf"),
                "{flag} {eb}: {err}"
            );
            assert!(!Path::new(&out).exists(), "{flag} {eb} wrote {out}");
        }
        // A field the plotfile lacks is named as such: there is no stream
        // to call malformed yet.
        let err = compress(&args(&[&ds, "--field", "nope", "--out", &out])).unwrap_err();
        assert_eq!(err, "unknown field: nope");
        assert!(!Path::new(&out).exists(), "unknown field wrote {out}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The summary line counts the file `compress` wrote, structure and
    /// all, not just the container inside it.
    #[test]
    fn compress_reports_the_bytes_of_the_file_it_wrote() {
        let root = std::env::temp_dir().join(format!("amrviz_cli_size_{}", std::process::id()));
        let path = |leaf: &str| root.join(leaf).to_string_lossy().into_owned();
        let (ds, out) = (path("ds"), path("out.amrz"));
        generate(&args(&[
            "nyx", "--out", &ds, "--scale", "tiny", "--seed", "42",
        ]))
        .unwrap();
        for extra in [&[][..], &["--skip-redundant"]] {
            let argv = [
                &[ds.as_str(), "--field", "baryon_density", "--out", &out][..],
                extra,
            ];
            let line = compress_file(&args(&argv.concat())).unwrap();
            let bytes: usize = line
                .split(", ")
                .nth(1)
                .unwrap()
                .strip_suffix(" bytes")
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(
                bytes as u64,
                std::fs::metadata(&out).unwrap().len(),
                "{line}"
            );
            let artifact = std::fs::read(&out).unwrap();
            let art = decode_artifact(&artifact, &DecodeBudget::default()).unwrap();
            assert!(art.container.compressed_bytes() < bytes, "{line}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A plotfile holding a NaN has no quantile: `extract` and `render`
    /// refuse it by flag, name `--iso` and write nothing; with `--iso`
    /// both work.
    #[test]
    fn quantile_of_nan_data_is_refused_by_name() {
        let root = std::env::temp_dir().join(format!("amrviz_cli_nan_{}", std::process::id()));
        let path = |leaf: &str| root.join(leaf).to_string_lossy().into_owned();
        let (ds, obj, png) = (path("ds"), path("x.obj"), path("x.png"));
        generate(&args(&["nyx", "--out", &ds, "--scale", "tiny"])).unwrap();
        let bin = root.join("ds/baryon_density_L0.bin");
        let mut bytes = std::fs::read(&bin).unwrap();
        bytes[64..72].copy_from_slice(&f64::NAN.to_le_bytes());
        std::fs::write(&bin, bytes).unwrap();
        let argv = |out: &str, iso: &[&str]| {
            args(
                &[
                    &[ds.as_str(), "--field", "baryon_density", "--out", out],
                    iso,
                ]
                .concat(),
            )
        };
        for (command, out) in [(extract as fn(&[String]) -> _, &obj), (render, &png)] {
            let err = command(&argv(out, &[])).unwrap_err();
            assert!(
                err.starts_with("--quantile") && err.contains("--iso"),
                "{err}"
            );
            assert!(!Path::new(out).exists(), "{out} was written");
            command(&argv(out, &["--iso", "1"])).unwrap();
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A NaN or infinite `--iso` crosses no surface: `extract` and `render`
    /// refuse it by name and write nothing.
    #[test]
    fn non_finite_iso_is_refused_by_name() {
        let root = std::env::temp_dir().join(format!("amrviz_cli_iso_{}", std::process::id()));
        let path = |leaf: &str| root.join(leaf).to_string_lossy().into_owned();
        let (ds, obj, png) = (path("ds"), path("x.obj"), path("x.png"));
        generate(&args(&["nyx", "--out", &ds, "--scale", "tiny"])).unwrap();
        for iso in ["nan", "inf", "-inf"] {
            for (command, out) in [(extract as fn(&[String]) -> _, &obj), (render, &png)] {
                let argv = args(&[&ds, "--field", "baryon_density", "--out", out, "--iso", iso]);
                let err = command(&argv).unwrap_err();
                assert!(err.starts_with("--iso must be finite"), "{iso}: {err}");
                assert!(!Path::new(out).exists(), "{iso}: {out} was written");
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A negative or NaN span of seconds is refused by name before a
    /// server starts or a client connects.
    #[test]
    fn bad_seconds_are_refused_by_name() {
        let store = std::env::temp_dir().join(format!("amrviz_cli_secs_{}", std::process::id()));
        let store = store.to_string_lossy().into_owned();
        for secs in ["-1", "nan"] {
            let argv = args(&["--addr", "127.0.0.1:9", "--duration", secs]);
            let err = loadgen(&argv).unwrap_err();
            assert!(err.starts_with("--duration"), "{secs}: {err}");
            let argv = args(&["--store", &store, "--shutdown-after", secs]);
            let err = serve(&argv).unwrap_err();
            assert!(err.starts_with("--shutdown-after"), "{secs}: {err}");
        }
        assert!(!Path::new(&store).exists(), "no store is opened");
    }

    /// `decompress` takes the compressor and `skip_redundant` from the
    /// file's header: every algorithm, with and without skipping, comes
    /// back within the pointwise bound with no flag naming either, and the
    /// flags that used to are refused. The original plotfile is gone by
    /// then: the file carries the structure it decodes against.
    #[test]
    fn decompress_reads_its_configuration_from_the_header() {
        let root = std::env::temp_dir().join(format!("amrviz_cli_rt_{}", std::process::id()));
        let path = |leaf: &str| root.join(leaf).to_string_lossy().into_owned();
        let ds = path("ds");
        generate(&args(&[
            "nyx", "--out", &ds, "--scale", "tiny", "--seed", "3",
        ]))
        .unwrap();
        let orig = load(&ds).unwrap();
        let field = orig.field("baryon_density").unwrap();
        let cases: Vec<(&str, bool)> = ALGORITHMS
            .into_iter()
            .flat_map(|algo| [(algo, false), (algo, true)])
            .collect();
        for &(algo, skip) in &cases {
            let stream = path(&format!("{algo}_{skip}.amrz"));
            let mut argv = args(&[&ds, "--field", "baryon_density", "--out", &stream]);
            argv.extend(args(&["--algo", algo, "--rel", "1e-3"]));
            if skip {
                argv.push("--skip-redundant".into());
            }
            compress(&argv).unwrap();
        }
        std::fs::remove_dir_all(&ds).unwrap();
        for &(algo, skip) in &cases {
            let stream = path(&format!("{algo}_{skip}.amrz"));
            let bytes = std::fs::read(&stream).unwrap();
            let budget = DecodeBudget::default();
            let eb = decode_artifact(&bytes, &budget).unwrap().container.abs_eb;
            let out = path(&format!("{algo}_{skip}_dec"));
            decompress(&args(&[&stream, "--out", &out])).unwrap();
            let dec = load(&out).unwrap();
            let dec = dec.field("baryon_density").unwrap();
            for lev in 0..orig.num_levels() {
                let pairs = field.levels[lev].fabs().iter().zip(dec.levels[lev].fabs());
                for (a, b) in pairs {
                    for (cell, v) in a.iter() {
                        let err = (v - b.get(cell)).abs();
                        assert!(
                            err <= eb * (1.0 + 1e-12),
                            "{algo} skip={skip} level {lev} {cell:?}: {err:e} > {eb:e}"
                        );
                    }
                }
            }
        }
        let stream = path("szlr_true.amrz");
        for flag in [
            &["--algo", "szlr"][..],
            &["--skip-redundant"],
            &["--field", "f"],
        ] {
            let mut argv = args(&[&stream, "--out", &path("refused")]);
            argv.extend(args(flag));
            let refused = decompress(&argv).unwrap_err();
            assert!(refused.contains("unknown option"), "{flag:?}: {refused}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A file whose algorithm names no compressor is refused by name, and
    /// nothing is written. Bytes 6–9 are the name: `AVH1`, the version,
    /// then the name's length 4 and `szlr`.
    #[test]
    fn decompress_refuses_an_unknown_algorithm() {
        let root = std::env::temp_dir().join(format!("amrviz_cli_algo_{}", std::process::id()));
        let path = |leaf: &str| root.join(leaf).to_string_lossy().into_owned();
        let (ds, file, out) = (path("ds"), path("f.amrz"), path("dec"));
        generate(&args(&["warpx", "--out", &ds, "--scale", "tiny"])).unwrap();
        compress(&args(&[&ds, "--field", "Ez", "--out", &file])).unwrap();
        let mut bytes = std::fs::read(&file).unwrap();
        assert_eq!(&bytes[4..10], b"\x02\x04szlr");
        bytes[9] = b'q';
        std::fs::write(&file, bytes).unwrap();
        let err = decompress(&args(&[&file, "--out", &out])).unwrap_err();
        assert!(err.starts_with(&file), "{err}");
        assert!(err.ends_with("unknown algorithm `szlq`"), "{err}");
        assert!(!Path::new(&out).exists(), "{out} was written");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A `simulate` snapshot past step 0 comes back from its compressed
    /// file alone with its field name, geometry, levels, boxes, time and
    /// step.
    #[test]
    fn decompress_restores_the_snapshot_it_was_given() {
        let root = std::env::temp_dir().join(format!("amrviz_cli_snap_{}", std::process::id()));
        let path = |leaf: &str| root.join(leaf).to_string_lossy().into_owned();
        let (sim, file, out) = (path("sim"), path("snap.amrz"), path("dec"));
        simulate(&args(&[
            "--out",
            &sim,
            "--n",
            "16",
            "--steps",
            "2",
            "--snap-every",
            "2",
        ]))
        .unwrap();
        let snap = path("sim/plt00002");
        let orig = load(&snap).unwrap();
        assert!(
            orig.step == 2 && orig.time > 0.0,
            "{} {}",
            orig.step,
            orig.time
        );
        let field = orig.field_names()[0].to_string();
        compress(&args(&[&snap, "--field", &field, "--out", &file])).unwrap();
        std::fs::remove_dir_all(&sim).unwrap();
        decompress(&args(&[&file, "--out", &out])).unwrap();
        let dec = load(&out).unwrap();
        assert_eq!(dec.field_names(), [field.as_str()]);
        assert_eq!(dec.geometry(), orig.geometry());
        assert_eq!(dec.ref_ratios(), orig.ref_ratios());
        assert_eq!(dec.box_arrays(), orig.box_arrays());
        assert_eq!((dec.time, dec.step), (orig.time, orig.step));
        let _ = std::fs::remove_dir_all(&root);
    }
}
