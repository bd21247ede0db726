//! The repo benchmark. `benchmark run` measures one workload (or, with
//! `--workload all`, each in its own child process) and prints every
//! metric by name; `benchmark compare` applies the bounds of
//! `BENCHMARK.json` to two result files. See `README.md` beside this crate.

mod batch;
mod compare;
mod input;
mod load;
mod probe;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;

use amrviz_core::prelude::Scale;
use run::RunOpts;
use spec::Spec;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                     [--out DIR] [--label NAME] [--smoke]
       benchmark compare A.jsonl B.jsonl

run      measures the end-to-end metrics (--trace 0, the default) or, in a
         separate traced run (--trace 1), the per-layer metrics, and appends
         the result to DIR/NAME.jsonl (DIR/NAME_traced.jsonl when traced).
         Defaults: --workload all --seed 42 --seconds from BENCHMARK.json
         --out target/benchmark --label run. --smoke runs at Scale::Tiny.
compare  one row per (workload, end-to-end metric): medians, quartiles,
         direction, bound and verdict; exits 1 on any `regressed` row or any
         rise in the share of failed operations.";

struct RunArgs {
    workload: String,
    opts: RunOpts,
    label: String,
}

fn parse_run(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: "all".into(),
        opts: RunOpts {
            seed: 42,
            seconds: spec.run_seconds,
            trace: false,
            scale: Scale::Small,
            out_dir: PathBuf::from("target/benchmark"),
        },
        label: "run".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.opts.scale = Scale::Tiny;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use `{value}`");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.opts.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.opts.seconds > 0.0 && parsed.opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.opts.out_dir = PathBuf::from(value),
            "--label" => parsed.label = value.clone(),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if parsed.workload != "all" && !spec.workloads.contains(&parsed.workload) {
        return Err(format!(
            "unknown workload `{}` (BENCHMARK.json lists {})",
            parsed.workload,
            spec.workloads.join(", ")
        ));
    }
    Ok(parsed)
}

/// Runs one workload in this process, prints the report, appends the
/// result line to the label's file, and prints the result as the last line.
fn run_one(args: &RunArgs, spec: &Spec) -> std::io::Result<()> {
    let outcome = run::run_workload(&args.workload, &args.opts, spec);
    print!("{}", outcome.render(&args.workload));
    let result = outcome.to_json();
    let mut line = amrviz_json::Json::obj();
    line.set("workload", args.workload.as_str())
        .set("seed", args.opts.seed)
        .set("seconds", args.opts.seconds)
        .set("trace", args.opts.trace);
    if let (amrviz_json::Json::Obj(dst), amrviz_json::Json::Obj(src)) = (&mut line, result.clone())
    {
        dst.extend(src);
    }
    std::fs::create_dir_all(&args.opts.out_dir)?;
    let suffix = if args.opts.trace { "_traced" } else { "" };
    let path = args
        .opts
        .out_dir
        .join(format!("{}{suffix}.jsonl", args.label));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    writeln!(file, "{}", line.to_string_compact())?;
    println!("{}: result appended to {}", args.workload, path.display());
    println!("{}", result.to_string_compact());
    Ok(())
}

/// Runs every workload, each in a child process of its own so that peak
/// memory is per workload. Returns whether every child exited 0.
fn run_all(raw: &[String], spec: &Spec) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    let mut all_ok = true;
    for workload in &spec.workloads {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(raw)
            .args(["--workload", workload])
            .status()?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let fail = |msg: String| {
        eprintln!("benchmark: {msg}\n{USAGE}");
        ExitCode::from(2)
    };
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            let parsed = match parse_run(rest, &spec) {
                Ok(p) => p,
                Err(e) => return fail(e),
            };
            let done = if parsed.workload == "all" {
                run_all(rest, &spec)
            } else {
                run_one(&parsed, &spec).map(|()| true)
            };
            match done {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some((cmd, [a, b])) if cmd == "compare" => {
            let sets = compare::RunSet::read(Path::new(a))
                .and_then(|a| Ok((a, compare::RunSet::read(Path::new(b))?)));
            match sets {
                Ok((a, b)) => {
                    let (table, acceptable) = compare::compare(&spec, &a, &b);
                    print!("{table}");
                    if acceptable {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => fail(e),
            }
        }
        _ => fail("expected `run` or `compare A.jsonl B.jsonl`".into()),
    }
}
