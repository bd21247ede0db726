//! `benchmark compare A.jsonl B.jsonl`: applies the bounds of
//! `BENCHMARK.json` to two sets of untraced runs, A the baseline and B the
//! change, one row per (workload, end-to-end metric).

use crate::spec::{MetricDef, Spec};
use crate::stats::quartiles;
use amrviz_json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// What one row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sets
    /// overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's median B's median is worse (negative: better).
fn worsening(def: &MetricDef, a_median: f64, b_median: f64) -> f64 {
    let delta = if def.higher_is_better {
        a_median - b_median
    } else {
        b_median - a_median
    };
    delta / a_median.abs().max(f64::MIN_POSITIVE)
}

/// Applies `def`'s bound and direction to two run sets. Where either
/// set's interquartile spread is wider than the bound the medians are not
/// trusted: the row is decided only if every run of one set beats every
/// run of the other, and is unresolved otherwise.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let ((a1, am, a3), (b1, bm, b3)) = (quartiles(a), quartiles(b));
    let worse = worsening(def, am, bm);
    let spread = ((a3 - a1) / am.abs()).max((b3 - b1) / bm.abs());
    if spread.is_nan() || spread <= bound {
        return if worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let beats = |x: f64, y: f64| if def.higher_is_better { x > y } else { x < y };
    let every = |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| beats(x, y)));
    if every(b, a) {
        Verdict::Ok
    } else if every(a, b) && worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

/// The untraced runs of one result file, grouped by workload.
#[derive(Debug, Default)]
pub struct RunSet {
    /// Per workload, per metric, one value per run.
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Per workload, `(attempted, failed)` summed over the runs.
    pub operations: BTreeMap<String, (f64, f64)>,
}

impl RunSet {
    /// Parses result lines as `benchmark run` appends them.
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let mut set = RunSet::default();
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let field = |k: &str| doc.get(k).ok_or(format!("line {}: no `{k}`", n + 1));
            if field("trace")?.as_bool() == Some(true) {
                continue;
            }
            let workload = field("workload")?.as_str().unwrap_or_default().to_string();
            let ops = set.operations.entry(workload.clone()).or_default();
            ops.0 += field("attempted")?.as_f64().unwrap_or(0.0);
            ops.1 += field("failed")?.as_f64().unwrap_or(0.0);
            let Json::Obj(metrics) = field("metrics")? else {
                return Err(format!("line {}: `metrics` is not an object", n + 1));
            };
            let per_metric = set.values.entry(workload).or_default();
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64);
                per_metric
                    .entry(name.clone())
                    .or_default()
                    .push(v.ok_or(format!("line {}: `{name}` has no value", n + 1))?);
            }
        }
        Ok(set)
    }

    pub fn read(path: &Path) -> Result<RunSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        RunSet::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn fail_frac(&self, workload: &str) -> f64 {
        self.operations
            .get(workload)
            .map_or(0.0, |&(attempted, failed)| failed / attempted.max(1.0))
    }
}

/// Renders the comparison table. Returns the text and whether B is
/// acceptable: no `regressed` row and no rise in the share of failed
/// operations.
pub fn compare(spec: &Spec, a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<14} {:>6} {:>12} {:>23} {:>12} {:>23} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "better",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "worse %",
        "bound"
    );
    let mut acceptable = true;
    for workload in &spec.workloads {
        let (Some(va), Some(vb)) = (a.values.get(workload), b.values.get(workload)) else {
            out.push_str(&format!(
                "{workload:<14} missing from one of the run sets\n"
            ));
            continue;
        };
        for def in &spec.end_to_end {
            let (Some(xa), Some(xb)) = (va.get(&def.name), vb.get(&def.name)) else {
                out.push_str(&format!(
                    "{workload:<14} {:<14} missing from one of the run sets\n",
                    def.name
                ));
                continue;
            };
            let ((a1, am, a3), (b1, bm, b3)) = (quartiles(xa), quartiles(xb));
            let verdict = judge(def, xa, xb);
            acceptable &= verdict != Verdict::Regressed;
            out.push_str(&format!(
                "{workload:<14} {:<14} {:>6} {am:>12.5} {:>23} {bm:>12.5} {:>23} {:>+8.2} {:>6.1}  {}\n",
                def.name,
                if def.higher_is_better { "higher" } else { "lower" },
                format!("{a1:.5}..{a3:.5}"),
                format!("{b1:.5}..{b3:.5}"),
                100.0 * worsening(def, am, bm),
                100.0 * def.bound.unwrap_or(0.0),
                verdict.label(),
            ));
        }
        let (fa, fb) = (a.fail_frac(workload), b.fail_frac(workload));
        let rose = fb > fa;
        acceptable &= !rose;
        out.push_str(&format!(
            "{workload:<14} {:<14} {:>6} {fa:>12.5} {:>23} {fb:>12.5} {:>23} {:>8} {:>6}  {}\n",
            "fail_frac",
            "lower",
            format!("{} runs", va.values().next().map_or(0, Vec::len)),
            format!("{} runs", vb.values().next().map_or(0, Vec::len)),
            "",
            "0",
            if rose { "regressed" } else { "ok" },
        ));
    }
    (out, acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn bound_and_direction_decide_the_verdict() {
        let lower = def(false, 0.08);
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&lower, &a, &[105.0, 106.0, 104.0]),
            Verdict::Ok,
            "+5 % is inside 8 %"
        );
        assert_eq!(
            judge(&lower, &a, &[110.0, 111.0, 109.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lower, &a, &[50.0, 51.0, 49.0]),
            Verdict::Ok,
            "faster is never a regression"
        );
        // The same numbers read the other way for a higher-is-better metric.
        let higher = def(true, 0.08);
        assert_eq!(judge(&higher, &a, &[110.0, 111.0, 109.0]), Verdict::Ok);
        assert_eq!(judge(&higher, &a, &[90.0, 91.0, 89.0]), Verdict::Regressed);
        assert_eq!(
            judge(&higher, &a, &[95.0, 96.0, 94.0]),
            Verdict::Ok,
            "−5 % is inside 8 %"
        );
        // Exactly on the bound is still inside it.
        assert_eq!(judge(&lower, &[100.0], &[108.0]), Verdict::Ok);
        // Bit-identical values (cr at one seed) have no spread to divide.
        assert_eq!(judge(&higher, &[13.7; 3], &[13.7; 3]), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sets_separate() {
        let lower = def(false, 0.08);
        let noisy_a = [80.0, 100.0, 120.0];
        // Overlapping sets: the median moved +10 % but the runs cannot tell.
        assert_eq!(
            judge(&lower, &noisy_a, &[90.0, 110.0, 130.0]),
            Verdict::Unresolved
        );
        // Even an unchanged median is unresolved, not "unchanged".
        assert_eq!(
            judge(&lower, &noisy_a, &[85.0, 100.0, 125.0]),
            Verdict::Unresolved
        );
        // Every run of B beats every run of A: resolved as ok.
        assert_eq!(judge(&lower, &noisy_a, &[50.0, 60.0, 70.0]), Verdict::Ok);
        // Every run of B is worse than every run of A: resolved as regressed.
        assert_eq!(
            judge(&lower, &noisy_a, &[150.0, 170.0, 190.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn result_lines_group_by_workload_and_skip_traced_runs() {
        let line = |w: &str, trace: bool, v: f64, failed: u32| {
            format!(
                "{{\"workload\":\"{w}\",\"seed\":1,\"trace\":{trace},\"correct\":true,\
                 \"attempted\":10,\"failed\":{failed},\"metrics\":{{\"op_min_ms\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}\n"
            )
        };
        let text = [
            line("nyx_codec", false, 1.0, 0),
            line("nyx_codec", true, 99.0, 0),
            line("nyx_codec", false, 2.0, 1),
            line("serve_hot", false, 3.0, 0),
        ]
        .concat();
        let set = RunSet::parse(&text).unwrap();
        assert_eq!(set.values["nyx_codec"]["op_min_ms"], vec![1.0, 2.0]);
        assert_eq!(set.values["serve_hot"]["op_min_ms"], vec![3.0]);
        assert_eq!(set.fail_frac("nyx_codec"), 0.05);
        assert_eq!(set.fail_frac("serve_hot"), 0.0);
        assert!(RunSet::parse("{not json").is_err());
    }

    #[test]
    fn a_rise_in_failures_is_not_acceptable_even_when_every_metric_is_ok() {
        let spec = Spec::load();
        let mut a = RunSet::default();
        for w in &spec.workloads {
            a.operations.insert(w.clone(), (100.0, 0.0));
            let per_metric = a.values.entry(w.clone()).or_default();
            for m in &spec.end_to_end {
                per_metric.insert(m.name.clone(), vec![10.0, 10.1, 9.9]);
            }
        }
        let mut b = RunSet {
            values: a.values.clone(),
            operations: a.operations.clone(),
        };
        let (table, ok) = compare(&spec, &a, &b);
        assert!(ok, "identical sets are acceptable:\n{table}");
        assert_eq!(
            table.lines().count(),
            1 + spec.workloads.len() * (spec.end_to_end.len() + 1),
            "one row per (workload, metric) plus fail_frac"
        );
        b.operations.insert(spec.workloads[0].clone(), (100.0, 1.0));
        let (table, ok) = compare(&spec, &a, &b);
        assert!(!ok, "one failed operation more is a regression:\n{table}");
    }
}
