//! `amrviz` — command-line front end to the workspace.
//!
//! ```text
//! amrviz generate   <nyx|warpx> --out DIR [--scale S] [--seed N] [--all-fields]
//! amrviz simulate   --out DIR [--n N] [--steps K] [--snap-every M]
//! amrviz info       <plotfile>
//! amrviz compress   <plotfile> --field F --out FILE [--algo A] [--rel EB | --abs EB] [--skip-redundant]
//! amrviz decompress <FILE> --out DIR [--degrade]
//! amrviz extract    <plotfile> --field F --out FILE.obj [--iso V | --quantile Q] [--method M]
//! amrviz render     <plotfile> --field F --out FILE.png [--mode surface|slice] [...]
//! amrviz diff       <plotfile A> <plotfile B> --field F
//! amrviz repro      <experiment> | --suite enumerated[:RECIPE]   (see [`repro`])
//! ```
//!
//! Algorithms: `szlr` (default), `szinterp`, `zfp`. Methods: `resampling`
//! (default), `dual`, `dual-redundant`. Plotfiles are the directories
//! written by `amrviz-amr::plotfile`. A compressed file is the serve
//! store's artifact (`amrviz_serve::encode_artifact`): it carries its
//! hierarchy with time and step, field name and compressor, so `decompress`
//! reads nothing else.

/// `print!` for every command's stdout, through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {{
        $crate::write_stdout(format_args!($($arg)*));
    }};
}

/// `println!` for every command's stdout, through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {{
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)));
    }};
}

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
        out!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if let Some(n) = obs_opts.threads {
        amrviz_par::set_threads(n);
    }
    // Spans are kept only for a reader of the whole run; a journal alone
    // streams them.
    if obs_opts.reads_events() {
        amrviz_obs::enable();
    } else if obs_opts.journal_path.is_some() {
        amrviz_obs::enable_streaming();
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

/// Writes to stdout; returns whether the reader is still there. A reader
/// that hangs up (`amrviz info PLT | head -1`) ends the printing quietly,
/// not the command, which finishes its work and returns its own exit
/// status. Any other write error is fatal, as under `println!`.
fn write_stdout(args: std::fmt::Arguments) -> bool {
    use std::io::Write;
    match std::io::stdout().write_fmt(args) {
        Ok(()) => true,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => false,
        Err(e) => panic!("failed printing to stdout: {e}"),
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
        self.reads_events() || self.journal_path.is_some()
    }

    /// Whether an exporter reads the recorder's span events after the run.
    fn reads_events(&self) -> bool {
        self.trace_path.is_some() || self.flame_path.is_some() || self.timing
    }

    /// Creates the parent directory of every output file and starts the
    /// JSONL journal, before command dispatch. The journal opens here; the
    /// trace and the flamegraph are written after the command has run, and a
    /// missing directory must not cost the run that produced them.
    fn start_streaming(&self) -> Result<(), String> {
        let outputs = [&self.journal_path, &self.trace_path, &self.flame_path];
        for path in outputs.into_iter().flatten() {
            if let Some(dir) = std::path::Path::new(path).parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
        }
        if let Some(path) = &self.journal_path {
            amrviz_obs::journal::start(std::path::Path::new(path))?;
        }
        Ok(())
    }

    /// Stops streaming — the journal flushed and closed — and returns its
    /// totals if one was running. `repro` calls this ahead of
    /// [`ObsOptions::finish`] so its `SUMMARY` line can carry final totals;
    /// a second call finds nothing to stop.
    fn stop_streaming(&self) -> Option<amrviz_obs::journal::JournalStats> {
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
        if self.reads_events() {
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
            let kind =
                amrviz_obs::flame::write_flamegraph_events(std::path::Path::new(path), &events)
                    .map_err(|e| format!("writing flamegraph to {path}: {e}"))?;
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

/// The global flags, as a [`commands::Flags`] pair.
const GLOBAL_FLAGS: commands::Flags = (&["trace", "flame", "threads", "journal"], &["timing"]);

/// Strips the global observability flags (`--trace PATH`, `--flame PATH`,
/// `--timing`, `--threads N`, `--journal FILE` — valid anywhere on the
/// command line) from `argv` before subcommand dispatch. Repeated value
/// flags keep the last occurrence and warn on stderr.
fn extract_obs_options(argv: Vec<String>) -> Result<(Vec<String>, ObsOptions), String> {
    let (p, rest) = amrviz_core::args::split(&argv, GLOBAL_FLAGS.0, GLOBAL_FLAGS.1)?;
    let threads = p.opt_parse::<usize>("threads")?;
    if threads == Some(0) {
        return Err("--threads must be at least 1".to_string());
    }
    let opts = ObsOptions {
        trace_path: p.opt("trace").map(String::from),
        flame_path: p.opt("flame").map(String::from),
        timing: p.switch("timing"),
        threads,
        journal_path: p.opt("journal").map(String::from),
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
                    writes one self-describing file: the field compressed,
                    with the hierarchy structure, time and step it needs
  amrviz decompress <FILE> --out DIR [--degrade]
                    writes the field a `compress` FILE holds, under its
                    own name, on the hierarchy, time and step the FILE
                    carries; the original plotfile is not read. The FILE
                    names its compressor and whether it skipped covered
                    coarse cells (rebuilt here from the finer levels).
                    --degrade repairs corrupt fabs from neighbor levels
                    instead of failing and prints a per-fab decode report.
  amrviz extract    <plotfile> --field F --out FILE.obj
                    [--iso V | --quantile Q]
                    [--method resampling|dual|dual-redundant]
  amrviz render     <plotfile> --field F --out FILE.png
                    [--mode surface|slice] [--iso V | --quantile Q]
                    [--method M] [--width W] [--height H] [--log]
  amrviz diff       <plotfile A> <plotfile B> --field F
  amrviz torture    [--iters N] [--seed S] [--recipes K]
                    fault-injection sweep over every decoder: mutated
                    streams must error gracefully, never panic, and stay
                    under the 128 MiB peak-allocation cap.
                    --recipes K appends K recipe-sampled AMR scenarios to
                    the corrupted-stream corpus; violations print the
                    reproducing recipe string. Prints one machine-readable
                    `TORTURE {...}` line; exits nonzero on any violation.
                    [--serve] instead chaos-tests the serving stack: an
                    in-process server behind a fault-injecting proxy, with
                    good/degraded/disk-corrupt/unknown keys and randomized
                    deadlines, served by two workers. Asserts no panics,
                    no post-deadline data, typed errors for corrupt blobs,
                    and peak memory under 1 GiB. Prints
                    `SERVE_TORTURE {...}`; exits nonzero on any violation
                    with a reproducing command line.
  amrviz serve      --store DIR [--addr HOST:PORT] [--workers N]
                    [--queue-depth D] [--cache-mb MB] [--shutdown-after SECS]
                    [--chaos SEED] [--slo SPEC]
                    [--seed-scenarios N [--seed S]]
                    progressive AMR server: streams cached decoded
                    hierarchies coarse-level-first over a length-prefixed
                    binary protocol, honoring per-request deadline budgets
                    (capped at 10 s; late work is cut mid-stream, never
                    delivered late) and shedding load with typed
                    RETRY_LATER + retry hint when the queue is full.
                    --chaos puts a deterministic fault-injecting proxy in
                    front (for CI/torture).
                    --seed-scenarios pre-populates the store with N tiny
                    compressed snapshots. --slo declares the objectives
                    (e.g. p99<250,avail>99) evaluated over 5m/1h burn
                    windows and reported by the in-band STATS endpoint.
                    Prints `SERVE_LISTENING addr=...`
                    once ready and `SERVE_STATS {...}` after drain; exits
                    nonzero if any worker panicked or any data frame was
                    written past its deadline.
  amrviz loadgen    --addr HOST:PORT [--clients N] [--rps R]
                    [--duration SECS] [--deadline-ms MS] [--seed S]
                    [--min-success FRAC] [--slo SPEC]
                    closed-loop load generator: N client threads with
                    jittered pacing and seeded exponential backoff on
                    shed/timeout, at most 3 retries a request. Discovers
                    keys via LIST, prints a `LOADGEN {...}` line with
                    p50/p99 latency and per-outcome latency histograms;
                    exits nonzero when the success rate drops below
                    --min-success (default 0.9) or any frame arrived after
                    deadline + grace. --slo gates
                    the whole run against a declared objective (e.g.
                    p99<250,avail>99), printing `LOADGEN_SLO {...}` and
                    exiting nonzero on breach.
  amrviz top        HOST:PORT [--interval SECS] [--once] [--json]
                    live dashboard over the server's in-band STATS request
                    (same port as data traffic): outcome sparklines,
                    windowed latency and stage-timing percentiles, SLO
                    burn-rate windows, and the three slowest exemplars,
                    each naming the stage it spent its time in. Redraws
                    every 2 s by default. Retries through chaos-proxy
                    faults. --once renders a single frame;
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
                    is always on, seeded from --seed. --check judges
                    table2, fig1, fig9..fig14 and ablation on the rows just
                    recorded and exits non-zero naming the figure and row
                    of each claim of the paper that fails. `repro obs-overhead`
                    is the instrumentation self-overhead gate (3 % budget).
  amrviz stats      <FILE> [--strict] [--slo SPEC]
                    pretty-prints a `--journal` JSONL file. Unknown event
                    kinds and malformed lines warn and are skipped so old
                    binaries can read new journals; --strict restores hard
                    failure on the first bad line. Journals from `serve`/`loadgen`
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
"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Every `--flag` the usage text prints under a command is one the
    /// command (or, being global, every command) accepts, and every flag a
    /// command accepts is printed under it.
    #[test]
    fn usage_and_parsers_agree() {
        use commands::*;
        let parsers = [
            ("generate", GENERATE_FLAGS),
            ("simulate", SIMULATE_FLAGS),
            ("info", INFO_FLAGS),
            ("compress", COMPRESS_FLAGS),
            ("decompress", DECOMPRESS_FLAGS),
            ("extract", EXTRACT_FLAGS),
            ("render", RENDER_FLAGS),
            ("diff", DIFF_FLAGS),
            ("torture", TORTURE_FLAGS),
            ("serve", SERVE_FLAGS),
            ("loadgen", LOADGEN_FLAGS),
            ("top", top::TOP_FLAGS),
            ("repro", repro::REPRO_FLAGS),
            ("stats", STATS_FLAGS),
            ("GLOBAL", GLOBAL_FLAGS),
        ];
        let set = |f: Flags| -> BTreeSet<&str> { f.0.iter().chain(f.1).copied().collect() };

        // The text as one block of `--flag` mentions per command: a block
        // opens at `  amrviz <name>` (or at the global-options heading).
        let mut printed: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut block = None;
        for line in usage().lines() {
            if let Some(rest) = line.strip_prefix("  amrviz ") {
                block = rest.split_whitespace().next();
            } else if line.starts_with("GLOBAL OPTIONS") {
                block = Some("GLOBAL");
            }
            let Some(block) = block else { continue };
            let flags = line.split("--").skip(1).map(|after| {
                let end = after.find(|c: char| !(c.is_ascii_lowercase() || c == '-'));
                &after[..end.unwrap_or(after.len())]
            });
            printed.entry(block).or_default().extend(flags);
        }

        let names: BTreeSet<&str> = parsers.iter().map(|(name, _)| *name).collect();
        assert_eq!(printed.keys().copied().collect::<BTreeSet<_>>(), names);
        let mut disagree = Vec::new();
        for (name, flags) in parsers {
            let accepted = set(flags);
            let anywhere: BTreeSet<&str> = accepted.union(&set(GLOBAL_FLAGS)).copied().collect();
            for flag in printed[name].difference(&anywhere) {
                disagree.push(format!("`{name}` prints --{flag} and rejects it"));
            }
            for flag in accepted.difference(&printed[name]) {
                disagree.push(format!("`{name}` accepts --{flag} and does not print it"));
            }
        }
        assert!(disagree.is_empty(), "{disagree:#?}");
    }

    /// Flags that only ever held one value are gone: each is an unknown
    /// option to its command.
    #[test]
    fn one_value_flags_are_unknown() {
        type Command = fn(&[String]) -> Result<(), String>;
        let retired: [(&str, Command); 5] = [
            ("--max-peak-mb", commands::torture),
            ("--workers", commands::torture),
            ("--max-deadline-ms", commands::serve),
            ("--retries", commands::loadgen),
            ("--exemplars", top::top),
        ];
        for (flag, command) in retired {
            let err = command(&[flag.to_string(), "1".to_string()]).unwrap_err();
            assert_eq!(err, format!("unknown option {flag}"));
        }
    }

    /// `--trace d/t.json` on a directory that does not exist yet must not
    /// cost the run: every output's parent exists before dispatch.
    #[test]
    fn output_parents_exist_before_dispatch() {
        let root = std::env::temp_dir().join(format!("amrviz_parents_{}", std::process::id()));
        let file = |leaf: &str| Some(root.join(leaf).to_string_lossy().into_owned());
        let opts = ObsOptions {
            trace_path: file("t/trace.json"),
            flame_path: file("f/flame.html"),
            timing: false,
            threads: None,
            journal_path: file("j/journal.jsonl"),
            carried: Default::default(),
        };
        opts.start_streaming().unwrap();
        drop(opts); // closes the journal
        for dir in ["t", "f", "j"] {
            assert!(root.join(dir).is_dir(), "{dir}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
