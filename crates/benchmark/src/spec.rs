//! `BENCHMARK.json` is the one registry of workload and metric names,
//! units, directions and bounds. It is compiled in, so the binary cannot
//! drift from the file the driver reads, and [`Metrics::set`] refuses any
//! name the file does not list.

use amrviz_json::Json;
use std::collections::BTreeMap;

const SPEC_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One metric as declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn text(j: &Json, key: &str) -> String {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing string `{key}`"))
        .to_string()
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing list `{key}`"))
}

fn metric_defs(doc: &Json, key: &str) -> Vec<MetricDef> {
    list(doc, key)
        .iter()
        .map(|m| MetricDef {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: match text(m, "better").as_str() {
                "higher" => true,
                "lower" => false,
                other => panic!("BENCHMARK.json: better must be higher|lower, got {other}"),
            },
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`. A malformed file is a
    /// build-time mistake, so this panics rather than returning an error.
    pub fn load() -> Spec {
        let doc = Json::parse(SPEC_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: list(&doc, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metric_defs(&doc, "end_to_end"),
            per_layer: metric_defs(&doc, "per_layer"),
        }
    }
}

/// The metric values of one run, keyed by the names of one `BENCHMARK.json`
/// section.
#[derive(Debug)]
pub struct Metrics<'a> {
    defs: &'a [MetricDef],
    values: BTreeMap<&'a str, f64>,
    /// What a metric that was never set reads as, if anything.
    unset: Option<f64>,
}

impl<'a> Metrics<'a> {
    /// End-to-end metrics: every one must be [`set`](Metrics::set) before
    /// the run is reported.
    pub fn required(defs: &'a [MetricDef]) -> Self {
        Metrics {
            defs,
            values: BTreeMap::new(),
            unset: None,
        }
    }

    /// Per-layer metrics: a layer the workload never enters reads 0 (no
    /// time spent, no work done).
    pub fn zeroed(defs: &'a [MetricDef]) -> Self {
        Metrics {
            unset: Some(0.0),
            ..Metrics::required(defs)
        }
    }

    /// Records `value` under `name`. Panics on a name `BENCHMARK.json` does
    /// not list or a non-finite value: both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not listed in BENCHMARK.json"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.insert(def.name.as_str(), value);
    }

    /// Whether `name` was measured in this run.
    #[cfg(test)]
    pub fn is_set(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Every metric of the section in file order, with its value.
    pub fn rows(&self) -> Vec<(&'a MetricDef, f64)> {
        self.defs
            .iter()
            .map(|d| {
                let v = self.values.get(d.name.as_str()).copied().or(self.unset);
                (
                    d,
                    v.unwrap_or_else(|| panic!("metric `{}` was never measured", d.name)),
                )
            })
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in file order.
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj();
        for (def, value) in self.rows() {
            let mut m = Json::obj();
            m.set("value", value).set("unit", def.unit.as_str());
            out.set(&def.name, m);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_limits_hold() {
        let spec = Spec::load();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!(
            (setup.unit.as_str(), setup.higher_is_better),
            ("s", false),
            "setup_s is seconds, lower is better"
        );
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .map(String::as_str)
            .chain(spec.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            assert!(
                b <= setup.bound.unwrap(),
                "setup_s has the largest bound ({} > it)",
                m.name
            );
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    #[should_panic(expected = "not listed in BENCHMARK.json")]
    fn unknown_metric_names_are_refused() {
        let spec = Spec::load();
        Metrics::zeroed(&spec.per_layer).set("no.such_metric", 1.0);
    }
}
