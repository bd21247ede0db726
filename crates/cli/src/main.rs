//! `amrviz` — command-line front end to the workspace.
//!
//! ```text
//! amrviz generate   <nyx|warpx> --out DIR [--scale S] [--seed N] [--all-fields]
//! amrviz simulate   --out DIR [--n N] [--steps K] [--snap-every M]
//! amrviz info       <plotfile>
//! amrviz compress   <plotfile> --field F --out FILE [--algo A] [--rel EB | --abs EB] [--skip-redundant]
//! amrviz decompress <plotfile> <stream> --out DIR [--algo A] [--skip-redundant] [--degrade]
//! amrviz extract    <plotfile> --field F --out FILE.obj [--iso V | --quantile Q] [--method M]
//! amrviz render     <plotfile> --field F --out FILE.png [--mode surface|slice|volume] [...]
//! amrviz diff       <plotfile A> <plotfile B> --field F [--field-b G]
//! amrviz repro      <experiment> | --suite enumerated[:RECIPE]   (see [`repro`])
//! ```
//!
//! Algorithms: `szlr` (default), `szinterp`, `zfp`. Methods: `resampling`
//! (default), `dual`, `dual-redundant`. Plotfiles are the directories
//! written by `amrviz-amr::plotfile`.

mod commands;
mod obs_overhead;
mod repro;
mod top;

use std::process::ExitCode;

// Counting allocator so `amrviz torture` can assert bounded memory on
// corrupted-stream decodes; negligible overhead on the other commands
// (two relaxed atomic ops per allocation).
#[global_allocator]
static ALLOC: amrviz_obs::mem::CountingAlloc = amrviz_obs::mem::CountingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (argv, obs_opts) = match extract_obs_options(argv) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" || argv[0] == "help" {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if let Some(n) = obs_opts.threads {
        amrviz_par::set_threads(n);
    }
    if obs_opts.active() {
        amrviz_obs::enable();
    }
    if let Err(e) = obs_opts.start_streaming() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let cmd = argv[0].clone();
    let rest = &argv[1..];
    let result = match cmd.as_str() {
        "generate" => commands::generate(rest),
        "simulate" => commands::simulate(rest),
        "info" => commands::info(rest),
        "compress" => commands::compress(rest),
        "decompress" => commands::decompress(rest),
        "extract" => commands::extract(rest),
        "render" => commands::render(rest),
        "diff" => commands::diff(rest),
        "torture" => commands::torture(rest),
        "serve" => commands::serve(rest),
        "loadgen" => commands::loadgen(rest),
        "stats" => commands::stats(rest),
        "top" => top::top(rest),
        "repro" => repro::repro(rest, &obs_opts),
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    };
    // Streaming shutdown and exporters run even when the command failed:
    // a journal/trace of a failed run is exactly when you want one.
    let result = result.and(obs_opts.finish());
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Observability flags, valid on every subcommand.
#[derive(Debug)]
struct ObsOptions {
    trace_path: Option<String>,
    flame_path: Option<String>,
    timing: bool,
    threads: Option<usize>,
    journal_path: Option<String>,
    metrics_path: Option<String>,
    metrics_interval_secs: f64,
    trace_sample: Option<u64>,
    /// Span events a command took out of the recorder before resetting it
    /// (see [`ObsOptions::carry_events`]); the exporters put them in front
    /// of what the recorder still holds.
    carried: std::cell::RefCell<Vec<amrviz_obs::SpanEvent>>,
}

impl Drop for ObsOptions {
    /// Flush-on-drop backstop: if a command panics (or any path skips
    /// `finish`), unwinding still stops the journal and lands the queued
    /// tail — a short run must never lose its final events to the 50 ms
    /// writer poll. No-op on the normal path where `finish` already ran.
    fn drop(&mut self) {
        if self.journal_path.is_some() && amrviz_obs::journal::is_active() {
            amrviz_obs::journal::stop();
        }
    }
}

impl ObsOptions {
    fn active(&self) -> bool {
        self.trace_path.is_some()
            || self.flame_path.is_some()
            || self.timing
            || self.journal_path.is_some()
            || self.metrics_path.is_some()
    }

    /// Starts the continuous-telemetry machinery (trace sampling, JSONL
    /// journal, periodic metrics snapshots) before command dispatch.
    fn start_streaming(&self) -> Result<(), String> {
        if let Some(n) = self.trace_sample {
            amrviz_obs::set_trace_sampling(n);
        }
        // `repro --out DIR --journal DIR/j.jsonl` on a fresh DIR: the files
        // open here, before the command gets to create its output directory.
        for path in self.journal_path.iter().chain(&self.metrics_path) {
            if let Some(dir) = std::path::Path::new(path).parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
        }
        if let Some(path) = &self.journal_path {
            amrviz_obs::journal::start(std::path::Path::new(path))?;
        }
        if let Some(path) = &self.metrics_path {
            amrviz_obs::expose::writer_start(
                std::path::PathBuf::from(path),
                std::time::Duration::from_secs_f64(self.metrics_interval_secs),
            )?;
        }
        Ok(())
    }

    /// Stops streaming — a final metrics snapshot, then the journal flushed
    /// and closed — and returns the journal's totals if one was running.
    /// `repro` calls this ahead of [`ObsOptions::finish`] so its `SUMMARY`
    /// line can carry final totals; a second call finds nothing to stop.
    fn stop_streaming(&self) -> Option<amrviz_obs::journal::JournalStats> {
        if self.metrics_path.is_some() {
            amrviz_obs::expose::writer_stop();
        }
        let path = self.journal_path.as_ref()?;
        if !amrviz_obs::journal::is_active() {
            return None;
        }
        let stats = amrviz_obs::journal::stop();
        eprintln!(
            "journal written to {path} ({} lines, {} dropped)",
            stats.enqueued, stats.dropped
        );
        Some(stats)
    }

    /// Stops streaming and then runs the batch exporters. Called whether or
    /// not the command succeeded.
    fn finish(&self) -> Result<(), String> {
        self.stop_streaming();
        self.export()
    }

    /// For a command about to [`amrviz_obs::reset`] mid-run (`repro` resets
    /// per experiment): keeps the recorder's span events for the exporters,
    /// when an exporter that reads them was asked for.
    fn carry_events(&self) {
        if self.trace_path.is_some() || self.flame_path.is_some() || self.timing {
            self.carried
                .borrow_mut()
                .extend(amrviz_obs::events_snapshot());
        }
    }

    /// Writes the chrome trace / flamegraph and/or prints the timing
    /// summary, over the carried events plus the recorder's.
    fn export(&self) -> Result<(), String> {
        let mut events = self.carried.take();
        events.extend(amrviz_obs::events_snapshot());
        if let Some(path) = &self.trace_path {
            let counters = amrviz_obs::counters_snapshot();
            let json = amrviz_obs::chrome::render_chrome_trace(&events, &counters);
            std::fs::write(path, json).map_err(|e| format!("writing trace to {path}: {e}"))?;
            eprintln!("trace written to {path} (open in chrome://tracing or ui.perfetto.dev)");
        }
        if let Some(path) = &self.flame_path {
            amrviz_obs::flame::write_flamegraph_events(std::path::Path::new(path), &events)
                .map_err(|e| format!("writing flamegraph to {path}: {e}"))?;
            let kind = if path.to_ascii_lowercase().ends_with(".html")
                || path.to_ascii_lowercase().ends_with(".htm")
            {
                "self-contained HTML"
            } else {
                "collapsed-stack text"
            };
            eprintln!("flamegraph written to {path} ({kind})");
        }
        if self.timing {
            eprint!("{}", amrviz_obs::summary::build(&events).to_text());
            let hists = amrviz_obs::histograms_snapshot();
            if !hists.is_empty() {
                eprint!("{}", amrviz_obs::hist::render_text(&hists));
            }
            eprint!("{}", amrviz_par::utilization().to_text());
        }
        Ok(())
    }
}

/// Strips the global observability flags (`--trace PATH`, `--flame PATH`,
/// `--timing`, `--threads N`, `--journal FILE`, `--metrics-out FILE`,
/// `--metrics-interval SECS`, `--trace-sample N` — valid anywhere on the
/// command line) from `argv` before subcommand dispatch. Repeated value
/// flags keep the last occurrence and warn on stderr.
fn extract_obs_options(argv: Vec<String>) -> Result<(Vec<String>, ObsOptions), String> {
    const VALUE_FLAGS: [&str; 7] = [
        "trace",
        "flame",
        "threads",
        "journal",
        "metrics-out",
        "metrics-interval",
        "trace-sample",
    ];
    let (p, rest) = amrviz_core::args::split(&argv, &VALUE_FLAGS, &["timing"])?;
    p.report_warnings();
    fn number<T: std::str::FromStr>(v: Option<&str>, what: &str) -> Result<Option<T>, String> {
        v.map(|v| v.parse().map_err(|_| format!("{what}, got `{v}`")))
            .transpose()
    }
    let threads = number::<usize>(p.opt("threads"), "--threads needs a positive integer")?;
    if threads == Some(0) {
        return Err("--threads must be at least 1".to_string());
    }
    let trace_sample = number::<u64>(
        p.opt("trace-sample"),
        "--trace-sample needs a positive integer N (keep 1/N)",
    )?;
    if trace_sample == Some(0) {
        return Err("--trace-sample must be at least 1 (keep every Nth trace)".to_string());
    }
    let metrics_interval_secs = number::<f64>(
        p.opt("metrics-interval"),
        "--metrics-interval needs a number of seconds",
    )?
    .unwrap_or(5.0);
    if !metrics_interval_secs.is_finite() || metrics_interval_secs <= 0.0 {
        return Err("--metrics-interval must be a positive number".to_string());
    }
    let opts = ObsOptions {
        trace_path: p.opt("trace").map(String::from),
        flame_path: p.opt("flame").map(String::from),
        timing: p.switch("timing"),
        threads,
        journal_path: p.opt("journal").map(String::from),
        metrics_path: p.opt("metrics-out").map(String::from),
        metrics_interval_secs,
        trace_sample,
        carried: Default::default(),
    };
    Ok((rest, opts))
}

fn usage() -> &'static str {
    "amrviz — AMR data toolkit (compression × visualization)

USAGE:
  amrviz generate   <nyx|warpx> --out DIR [--scale tiny|small|medium|paper]
                    [--seed N] [--all-fields]
  amrviz simulate   --out DIR [--n N] [--steps K] [--snap-every M]
  amrviz info       <plotfile>
  amrviz compress   <plotfile> --field F --out FILE
                    [--algo szlr|szinterp|zfp] [--rel EB | --abs EB]
                    [--skip-redundant]
  amrviz decompress <plotfile> <stream> --out DIR
                    [--algo szlr|szinterp|zfp] [--skip-redundant]
                    [--degrade]  repair corrupt fabs from neighbor levels
                    instead of failing; prints a per-fab decode report
  amrviz extract    <plotfile> --field F --out FILE.obj
                    [--iso V | --quantile Q]
                    [--method resampling|dual|dual-redundant]
  amrviz render     <plotfile> --field F --out FILE.png
                    [--mode surface|slice|volume] [--iso V | --quantile Q]
                    [--method M] [--width W] [--height H] [--log]
  amrviz diff       <plotfile A> <plotfile B> --field F [--field-b G]
  amrviz torture    [--iters N] [--seed S] [--max-peak-mb M] [--recipes K]
                    fault-injection sweep over every decoder: mutated
                    streams must error gracefully, never panic, and stay
                    under the peak-allocation cap (default 128 MiB).
                    --recipes K appends K recipe-sampled AMR scenarios to
                    the corrupted-stream corpus; violations print the
                    reproducing recipe string. Prints one machine-readable
                    `TORTURE {...}` line; exits nonzero on any violation.
                    [--serve] instead chaos-tests the serving stack: an
                    in-process server behind a fault-injecting proxy, with
                    good/degraded/disk-corrupt/unknown keys and randomized
                    deadlines. Asserts no panics, no post-deadline data,
                    typed errors for corrupt blobs, and bounded peak
                    memory. Prints `SERVE_TORTURE {...}`; exits nonzero on
                    any violation with a reproducing command line.
  amrviz serve      --store DIR [--addr HOST:PORT] [--workers N]
                    [--queue-depth D] [--cache-mb MB] [--max-deadline-ms MS]
                    [--shutdown-after SECS] [--chaos SEED] [--slo SPEC]
                    [--seed-scenarios N [--seed S]]
                    progressive AMR server: streams cached decoded
                    hierarchies coarse-level-first over a length-prefixed
                    binary protocol, honoring per-request deadline budgets
                    (late work is cut mid-stream, never delivered late) and
                    shedding load with typed RETRY_LATER + retry hint when
                    the queue is full. --chaos puts a deterministic
                    fault-injecting proxy in front (for CI/torture).
                    --seed-scenarios pre-populates the store with N tiny
                    compressed snapshots. --slo declares the objectives
                    (e.g. p99<250,avail>99) evaluated over 5m/1h burn
                    windows and reported by the in-band STATS endpoint.
                    Prints `SERVE_LISTENING addr=...`
                    once ready and `SERVE_STATS {...}` after drain; exits
                    nonzero if any worker panicked or any data frame was
                    written past its deadline.
  amrviz loadgen    --addr HOST:PORT [--clients N] [--rps R]
                    [--duration SECS] [--deadline-ms MS] [--retries K]
                    [--seed S] [--min-success FRAC] [--slo SPEC]
                    closed-loop load generator: N client threads with
                    jittered pacing and seeded exponential backoff on
                    shed/timeout. Discovers keys via LIST, prints a
                    `LOADGEN {...}` line with p50/p99 latency and
                    per-outcome latency histograms; exits nonzero when the
                    success rate drops below --min-success (default 0.9) or
                    any frame arrived after deadline + grace. --slo gates
                    the whole run against a declared objective (e.g.
                    p99<250,avail>99), printing `LOADGEN_SLO {...}` and
                    exiting nonzero on breach.
  amrviz top        HOST:PORT [--interval SECS] [--exemplars N]
                    [--once] [--json]
                    live dashboard over the server's in-band STATS request
                    (same port as data traffic): outcome sparklines,
                    windowed latency and stage-timing percentiles, SLO
                    burn-rate windows, and tail exemplars naming the stage
                    each slow request spent its time in. Retries through
                    chaos-proxy faults. --once renders a single frame;
                    --once --json prints the raw validated snapshot for
                    scripts and CI.
  amrviz repro      <experiment> [--scale tiny|small|medium|paper] [--seed N]
                    [--out DIR] [--check]
  amrviz repro      --suite enumerated[:RECIPE] [--seed N] [--out DIR]
                    regenerates the paper's tables and figures: table1,
                    table2, fig1, fig2, fig9..fig14, ablation, or all; ASCII
                    tables on stdout, renders + results.json +
                    manifest_<name>.json + summary.jsonl in --out (default
                    repro_out/), and one `SUMMARY {...}` line. --suite runs
                    the recipe-enumerated scenario matrix instead (`:@FILE`
                    or `:(scenario ...)` for a custom recipe). The recorder
                    is always on, seeded from --seed. --check judges fig1,
                    fig9, fig10 and fig11 on the rows just recorded and
                    exits non-zero naming the figure and row of each claim
                    of the paper that fails. `repro obs-overhead`
                    is the instrumentation self-overhead gate (3 % budget).
  amrviz stats      <FILE> [--strict] [--slo SPEC]
                    pretty-prints continuous-telemetry artifacts: a
                    `--journal` JSONL file or a `--metrics-out` snapshot
                    (counters, gauges, histogram percentiles, recorder
                    self-overhead). Unknown event kinds and malformed
                    journal lines warn and are skipped so old binaries can
                    read new journals; --strict restores hard failure on
                    the first bad line. Journals from `serve`/`loadgen`
                    additionally get a per-role outcome table
                    (ok/degraded/shed/timeout with p50/p99), a
                    client-to-server trace-stitching summary, a tail
                    breakdown naming the dominant stage of the slowest
                    requests, and any `slo` burn-rate events. --slo
                    evaluates server-side outcomes in the journal against
                    a declared objective, printing `SLO_EVAL {...}` and
                    exiting nonzero on breach.

GLOBAL OPTIONS (valid on every command):
  --trace FILE   write a chrome://tracing / Perfetto trace of the run
  --flame FILE   write a flamegraph of the run's span tree; `.html` gets a
                 self-contained interactive page, anything else
                 collapsed-stack text (flamegraph.pl format)
  --timing       print a hierarchical per-stage timing summary, latency/size
                 histograms (p50/p90/p99), plus worker-pool utilization to
                 stderr
  --threads N    size of the worker pool (default: available parallelism;
                 the AMRVIZ_THREADS env var sets the same default).
                 Results are bit-identical at any thread count.
  --journal FILE stream every completed span (and fault/meta events) to
                 FILE as JSONL (`amrviz-journal-v1`): bounded queues,
                 drop-oldest backpressure, line-atomic appends. Inspect
                 with `amrviz stats FILE`.
  --metrics-out FILE
                 write a rolling `amrviz-metrics-v2` JSON snapshot to FILE
                 every interval, atomically replaced so readers never see
                 a torn file
  --metrics-interval SECS
                 snapshot period for --metrics-out (default 5)
  --trace-sample N
                 head-based trace sampling: keep every N-th trace's spans
                 (counters/histograms are unaffected; default 1 = keep all)
"
}
