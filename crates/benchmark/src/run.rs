//! What every workload shares: the options of one run, the tally of
//! attempted and failed operations, and the result a run reports.

use crate::spec::{Metrics, Spec};
use crate::trace::{attribute, write_jsonl, Span};
use amrviz_core::prelude::Scale;
use amrviz_json::Json;
use std::path::PathBuf;

/// Worker-pool size pinned in every measured phase, so a result never
/// depends on the machine's ambient `AMRVIZ_THREADS`. One, not the box's
/// two: on this shared host the second vCPU is there in some hours and not
/// in others (the same 100 ms compress region after a single-threaded
/// stretch reads 1.6× faster or no faster), which moved every two-thread
/// time by up to 40 % with no change in the program.
pub const THREADS: usize = 1;

/// Pool size of the probe that measures what a second thread buys.
pub const PROBE_THREADS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Options of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a span file instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// `Scale::Small` normally, `Scale::Tiny` under `--smoke`.
    pub scale: Scale,
    pub out_dir: PathBuf,
}

/// Counts operations and names the ones that failed a check. A failed
/// operation never stops the run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, `"<operation>: <what was wrong>"`.
    pub named: Vec<String>,
}

impl Tally {
    const NAMED_MAX: usize = 12;

    /// Records one operation; it failed if `problems` is non-empty.
    pub fn record(&mut self, operation: impl FnOnce() -> String, problems: &[String]) {
        self.attempted += 1;
        if problems.is_empty() {
            return;
        }
        self.failed += 1;
        if self.named.len() < Self::NAMED_MAX {
            self.named
                .push(format!("{}: {}", operation(), problems.join("; ")));
        }
    }
}

/// The result of one run.
pub struct Outcome<'a> {
    pub metrics: Metrics<'a>,
    pub tally: Tally,
    /// Conditions that do not fail an operation but mean the workload is
    /// not what its name says (printed as warnings).
    pub warnings: Vec<String>,
    /// Spans of a traced run, empty otherwise.
    pub spans: Vec<Span>,
}

impl Outcome<'_> {
    /// The one JSON object the driver reads from the last line of stdout.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("correct", self.tally.failed == 0)
            .set("attempted", self.tally.attempted)
            .set("failed", self.tally.failed)
            .set("metrics", self.metrics.to_json());
        doc
    }

    /// Human-readable report: every metric by name with its unit, the
    /// named failures, the warnings, and for a traced run where the time
    /// went.
    pub fn render(&self, workload: &str) -> String {
        let mut s = String::new();
        for (def, value) in self.metrics.rows() {
            s.push_str(&format!(
                "{workload:<14} {:<34} {value:>16.6} {}\n",
                def.name, def.unit
            ));
        }
        if !self.spans.is_empty() {
            let a = attribute(&self.spans);
            s.push_str(&format!(
                "{workload:<14} self time by layer over {} traced operations \
                 (sum of self times within {:.4} % of the root spans):\n",
                a.operations,
                100.0 * a.worst_sum_error
            ));
            let mut layers: Vec<_> = a.layer_self_s.iter().collect();
            layers.sort_by(|x, y| y.1.total_cmp(x.1));
            for (layer, secs) in layers {
                s.push_str(&format!(
                    "{workload:<14}   {layer:<12} {:>6.2} %  {secs:>10.4} s\n",
                    100.0 * secs / a.root_s.max(1e-12)
                ));
            }
        }
        for w in &self.warnings {
            s.push_str(&format!("{workload:<14} WARNING {w}\n"));
        }
        for f in &self.tally.named {
            s.push_str(&format!("{workload:<14} FAILED {f}\n"));
        }
        s.push_str(&format!(
            "{workload:<14} operations attempted {} failed {}\n",
            self.tally.attempted, self.tally.failed
        ));
        s
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds from seconds — every latency sample is kept in seconds
/// and converted once, where the metric is set.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Writes `trace_<workload>.jsonl` into the output directory.
pub fn write_spans(name: &str, opts: &RunOpts, spans: &[Span]) {
    let path = opts.out_dir.join(format!("trace_{name}.jsonl"));
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| write_jsonl(&path, spans))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!(
        "{name}: {} spans written to {}",
        spans.len(),
        path.display()
    );
}

/// Runs the named workload.
pub fn run_workload<'a>(name: &str, opts: &RunOpts, spec: &'a Spec) -> Outcome<'a> {
    amrviz_par::set_threads(THREADS);
    match name {
        "nyx_pipeline" | "warpx_table2" | "nyx_codec" => crate::batch::run(name, opts, spec),
        "serve_cold" | "serve_hot" => crate::serve::run(name, opts, spec),
        other => panic!("unknown workload `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// One workload of the smoke run, untraced then traced, at
    /// `Scale::Tiny`. Returns the per-layer metrics it measured.
    fn smoke(workload: &str, spec: &Spec, out_dir: &std::path::Path) -> BTreeSet<String> {
        let mut measured = BTreeSet::new();
        for trace in [false, true] {
            let opts = RunOpts {
                seed: 7,
                seconds: 0.2,
                trace,
                scale: Scale::Tiny,
                out_dir: out_dir.to_path_buf(),
            };
            let outcome = run_workload(workload, &opts, spec);
            assert_eq!(
                outcome.tally.failed, 0,
                "{workload}: {:?}",
                outcome.tally.named
            );
            assert!(outcome.tally.attempted >= 1);
            assert!(
                outcome.warnings.is_empty(),
                "{workload}: {:?}",
                outcome.warnings
            );
            let doc = outcome.to_json();
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            let Some(Json::Obj(emitted)) = doc.get("metrics") else {
                panic!("{workload}: metrics is not an object");
            };
            let listed = if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            let emitted: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
            let listed: Vec<&str> = listed.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(emitted, listed, "{workload} trace={trace}");
            for (def, value) in outcome.metrics.rows() {
                if !trace {
                    // Every end-to-end metric is reported on every workload
                    // and is never 0.
                    assert!(value > 0.0, "{workload}: {} = {value}", def.name);
                } else if outcome.metrics.is_set(&def.name) {
                    measured.insert(def.name.clone());
                }
            }
            if trace {
                assert!(!outcome.spans.is_empty());
                let a = attribute(&outcome.spans);
                assert!(
                    a.worst_sum_error < 0.01,
                    "{workload}: self times do not add up"
                );
                assert!(out_dir.join(format!("trace_{workload}.jsonl")).exists());
            }
        }
        measured
    }

    /// The `--smoke` run. What a run emits and what `BENCHMARK.json` lists
    /// must be the same names: `Metrics::set` refuses an unlisted name, so
    /// this checks the other direction — nothing listed goes unmeasured.
    /// The workloads run side by side to keep the test short; they share
    /// only the worker-pool size, which no output depends on.
    #[test]
    fn smoke_run_emits_exactly_the_names_benchmark_json_lists() {
        let spec = Spec::load();
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/benchmark-smoke")
            .join(std::process::id().to_string());
        let measured: BTreeSet<String> = std::thread::scope(|scope| {
            let runs: Vec<_> = spec
                .workloads
                .iter()
                .map(|w| scope.spawn(|| smoke(w, &spec, &out_dir)))
                .collect();
            runs.into_iter()
                .flat_map(|r| r.join().expect("smoke run panicked"))
                .collect()
        });
        let unmeasured: Vec<&str> = spec
            .per_layer
            .iter()
            .map(|d| d.name.as_str())
            .filter(|n| !measured.contains(*n))
            .collect();
        assert!(
            unmeasured.is_empty(),
            "listed but never measured: {unmeasured:?}"
        );
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
