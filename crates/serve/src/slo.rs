//! Service-level objectives: declared targets, burn-rate math, and
//! multi-window evaluation.
//!
//! An SLO here is two optional objectives over a request stream:
//!
//! * **Availability** — the fraction of requests with a good outcome must
//!   stay above `target_pct`. The *burn rate* of a window is the observed
//!   bad fraction divided by the error budget:
//!   `burn = (1 - good/total) / (1 - target_pct/100)`. Burn 1.0 means the
//!   budget is being consumed exactly at the sustainable rate; burn 10
//!   means a 30-day budget is gone in 3 days.
//! * **p99 latency** — the 99th-percentile latency of the window must stay
//!   below `p99_target_us`.
//!
//! Evaluation is **multi-window**: a short window (5 m) reacts fast but is
//! noisy, a long window (1 h) is stable but slow. An objective is only
//! *breached* when every window **that has traffic** exceeds it — the
//! standard AND-of-windows rule that suppresses both one-request blips
//! (short window fires, long does not) and stale alarms (long window still
//! remembers an incident the short window shows as resolved). Windows with
//! no traffic are skipped: no data is not an outage.
//!
//! The module is pure math over [`WindowReading`]s; [`crate::telemetry`]
//! owns the rings that produce them and [`crate::window`] supplies the
//! slot geometry.

/// Burn rate threshold above which a window is flagged. 1.0 would alert on
/// exactly-at-budget; small overshoots are noise, so flag at 2x budget
/// consumption (a common page threshold for mid-length windows).
pub const BURN_ALERT: f64 = 2.0;

/// A declared service-level objective. Both objectives are optional; an
/// empty spec never breaches.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// p99 latency objective in microseconds (`p99<MS` in the spec string,
    /// converted from milliseconds).
    pub p99_target_us: Option<u64>,
    /// Availability objective in percent (`avail>PCT`).
    pub availability_target_pct: Option<f64>,
}

impl Default for SloSpec {
    /// Conservative default used by `amrviz serve` when no `--slo` is
    /// given: 99% availability, p99 under one second.
    fn default() -> Self {
        SloSpec {
            p99_target_us: Some(1_000_000),
            availability_target_pct: Some(99.0),
        }
    }
}

impl SloSpec {
    /// Parses the compact CLI form `"p99<MS,avail>PCT"` — e.g.
    /// `"p99<250,avail>99.5"`. Either clause may be omitted; at least one
    /// must be present. p99 values are milliseconds on the command line
    /// (operator-friendly) and microseconds internally.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let mut spec = SloSpec {
            p99_target_us: None,
            availability_target_pct: None,
        };
        for clause in s.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(ms) = clause.strip_prefix("p99<") {
                let ms: f64 = ms
                    .parse()
                    .map_err(|_| format!("bad p99 bound in SLO clause '{clause}'"))?;
                if !ms.is_finite() || ms <= 0.0 {
                    return Err(format!("p99 bound must be positive: '{clause}'"));
                }
                spec.p99_target_us = Some((ms * 1000.0) as u64);
            } else if let Some(pct) = clause.strip_prefix("avail>") {
                let pct: f64 = pct
                    .parse()
                    .map_err(|_| format!("bad availability in SLO clause '{clause}'"))?;
                if !(0.0..100.0).contains(&pct) {
                    return Err(format!(
                        "availability target must be in [0, 100): '{clause}'"
                    ));
                }
                spec.availability_target_pct = Some(pct);
            } else {
                return Err(format!(
                    "unknown SLO clause '{clause}' (expected p99<MS or avail>PCT)"
                ));
            }
        }
        if spec.p99_target_us.is_none() && spec.availability_target_pct.is_none() {
            return Err("empty SLO spec (expected \"p99<MS,avail>PCT\")".into());
        }
        Ok(spec)
    }

    /// The canonical spec string this would parse from.
    pub fn display(&self) -> String {
        fn num(v: f64) -> String {
            if v == v.trunc() {
                format!("{v:.0}")
            } else {
                format!("{v}")
            }
        }
        let mut parts = Vec::new();
        if let Some(us) = self.p99_target_us {
            parts.push(format!("p99<{}", num(us as f64 / 1000.0)));
        }
        if let Some(pct) = self.availability_target_pct {
            parts.push(format!("avail>{}", num(pct)));
        }
        parts.join(",")
    }
}

/// Burn rate of one window: observed bad fraction over the error budget.
/// Zero traffic burns nothing; a zero-width budget (target 100%) is
/// clamped so a single failure reads as a very large, finite burn.
pub fn burn_rate(good: u64, total: u64, target_pct: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let bad_frac = 1.0 - good as f64 / total as f64;
    let budget = (1.0 - target_pct / 100.0).max(1e-9);
    bad_frac / budget
}

/// One evaluation window's worth of request data, produced by whatever
/// ring the caller maintains.
#[derive(Debug, Clone)]
pub struct WindowReading {
    /// Human label for the window ("5m", "1h", "run").
    pub label: &'static str,
    /// Window length in seconds (0 = whole run).
    pub secs: u64,
    /// Requests with a good outcome in the window.
    pub good: u64,
    /// All requests in the window.
    pub total: u64,
    /// p99 latency over the window in microseconds (0 when empty).
    pub p99_us: u64,
}

/// Per-window evaluation result.
#[derive(Debug, Clone)]
pub struct WindowEval {
    pub label: &'static str,
    pub secs: u64,
    pub good: u64,
    pub total: u64,
    pub p99_us: u64,
    /// Availability burn rate (0 when no availability objective declared).
    pub burn: f64,
    /// This window exceeds the availability objective's alert burn.
    pub avail_exceeded: bool,
    /// This window exceeds the latency objective.
    pub latency_exceeded: bool,
}

/// Full multi-window SLO evaluation.
#[derive(Debug, Clone)]
pub struct SloReport {
    pub spec: SloSpec,
    pub windows: Vec<WindowEval>,
    /// Availability objective breached (every window with traffic exceeds).
    pub avail_breach: bool,
    /// Latency objective breached (every window with traffic exceeds).
    pub latency_breach: bool,
}

impl SloReport {
    /// Any declared objective breached.
    pub fn breached(&self) -> bool {
        self.avail_breach || self.latency_breach
    }

    /// Compact single-line JSON for markers and STATS embedding.
    pub fn to_json(&self) -> String {
        let mut windows = String::new();
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                windows.push(',');
            }
            windows.push_str(&format!(
                "{{\"label\":\"{}\",\"secs\":{},\"good\":{},\"total\":{},\"p99_us\":{},\"burn\":{:.2},\"avail_exceeded\":{},\"latency_exceeded\":{}}}",
                w.label, w.secs, w.good, w.total, w.p99_us, w.burn, w.avail_exceeded, w.latency_exceeded
            ));
        }
        format!(
            "{{\"spec\":\"{}\",\"windows\":[{}],\"avail_breach\":{},\"latency_breach\":{},\"breached\":{}}}",
            amrviz_json::escape(&self.spec.display()),
            windows,
            self.avail_breach,
            self.latency_breach,
            self.breached()
        )
    }
}

/// Evaluates `spec` over the given windows. Breach semantics are
/// AND-of-windows over windows *with traffic*: an objective is breached
/// only when at least one window has traffic and every such window
/// exceeds it.
pub fn evaluate(spec: &SloSpec, readings: &[WindowReading]) -> SloReport {
    let mut windows = Vec::with_capacity(readings.len());
    for r in readings {
        let burn = match spec.availability_target_pct {
            Some(pct) => burn_rate(r.good, r.total, pct),
            None => 0.0,
        };
        let avail_exceeded =
            spec.availability_target_pct.is_some() && r.total > 0 && burn >= BURN_ALERT;
        let latency_exceeded = match spec.p99_target_us {
            Some(t) => r.total > 0 && r.p99_us > t,
            None => false,
        };
        windows.push(WindowEval {
            label: r.label,
            secs: r.secs,
            good: r.good,
            total: r.total,
            p99_us: r.p99_us,
            burn,
            avail_exceeded,
            latency_exceeded,
        });
    }
    let with_traffic: Vec<&WindowEval> = windows.iter().filter(|w| w.total > 0).collect();
    let avail_breach = spec.availability_target_pct.is_some()
        && !with_traffic.is_empty()
        && with_traffic.iter().all(|w| w.avail_exceeded);
    let latency_breach = spec.p99_target_us.is_some()
        && !with_traffic.is_empty()
        && with_traffic.iter().all(|w| w.latency_exceeded);
    SloReport {
        spec: spec.clone(),
        windows,
        avail_breach,
        latency_breach,
    }
}

/// Emits one typed `slo` journal event per window (plus the overall breach
/// verdict on each line, so a single grepped line is self-contained).
/// No-op when no journal is attached.
pub fn emit_journal(report: &SloReport) {
    if !amrviz_obs::journal::is_active() {
        return;
    }
    for w in &report.windows {
        amrviz_obs::journal::emit(
            "slo",
            &[
                (
                    "spec",
                    format!("\"{}\"", amrviz_json::escape(&report.spec.display())),
                ),
                ("window", format!("\"{}\"", w.label)),
                ("secs", w.secs.to_string()),
                ("good", w.good.to_string()),
                ("total", w.total.to_string()),
                ("p99_us", w.p99_us.to_string()),
                ("burn", format!("{:.2}", w.burn)),
                ("avail_exceeded", w.avail_exceeded.to_string()),
                ("latency_exceeded", w.latency_exceeded.to_string()),
                ("breached", report.breached().to_string()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec_roundtrips() {
        let s = SloSpec::parse("p99<250,avail>99.5").unwrap();
        assert_eq!(s.p99_target_us, Some(250_000));
        assert_eq!(s.availability_target_pct, Some(99.5));
        assert_eq!(s.display(), "p99<250,avail>99.5");
        let again = SloSpec::parse(&s.display()).unwrap();
        assert_eq!(again, s);
    }

    #[test]
    fn parse_partial_and_errors() {
        let s = SloSpec::parse("p99<100").unwrap();
        assert_eq!(s.p99_target_us, Some(100_000));
        assert_eq!(s.availability_target_pct, None);
        let s = SloSpec::parse("avail>90").unwrap();
        assert_eq!(s.availability_target_pct, Some(90.0));
        assert!(SloSpec::parse("").is_err());
        assert!(SloSpec::parse("p99<-5").is_err());
        assert!(SloSpec::parse("avail>100").is_err());
        assert!(SloSpec::parse("p50<10").is_err());
        assert!(SloSpec::parse("p99<abc").is_err());
    }

    #[test]
    fn burn_rate_math() {
        // 90 good of 100 at a 99% target: 10% bad over a 1% budget = 10x.
        assert!((burn_rate(90, 100, 99.0) - 10.0).abs() < 1e-9);
        // Exactly at budget burns 1.0.
        assert!((burn_rate(99, 100, 99.0) - 1.0).abs() < 1e-9);
        // Perfect service burns nothing; no traffic burns nothing.
        assert_eq!(burn_rate(100, 100, 99.0), 0.0);
        assert_eq!(burn_rate(0, 0, 99.0), 0.0);
        // 100% target: finite (clamped) burn, not inf/NaN.
        let b = burn_rate(99, 100, 100.0);
        assert!(b.is_finite() && b > 1e6);
    }

    fn reading(label: &'static str, good: u64, total: u64, p99_us: u64) -> WindowReading {
        WindowReading {
            label,
            secs: 300,
            good,
            total,
            p99_us,
        }
    }

    #[test]
    fn breach_requires_every_window_with_traffic() {
        let spec = SloSpec::parse("avail>99").unwrap();
        // Short window burning hot, long window fine: no breach (blip).
        let r = evaluate(
            &spec,
            &[reading("5m", 50, 100, 0), reading("1h", 999, 1000, 0)],
        );
        assert!(r.windows[0].avail_exceeded);
        assert!(!r.windows[1].avail_exceeded);
        assert!(!r.avail_breach);
        // Both windows burning: breach.
        let r = evaluate(
            &spec,
            &[reading("5m", 50, 100, 0), reading("1h", 500, 1000, 0)],
        );
        assert!(r.avail_breach && r.breached());
        // Empty short window is skipped; hot long window alone breaches.
        let r = evaluate(
            &spec,
            &[reading("5m", 0, 0, 0), reading("1h", 500, 1000, 0)],
        );
        assert!(r.avail_breach);
        // No traffic anywhere: no breach.
        let r = evaluate(&spec, &[reading("5m", 0, 0, 0), reading("1h", 0, 0, 0)]);
        assert!(!r.breached());
    }

    #[test]
    fn latency_breach_and_json_shape() {
        let spec = SloSpec::parse("p99<200,avail>99").unwrap();
        let r = evaluate(
            &spec,
            &[
                reading("5m", 100, 100, 250_000),
                reading("1h", 1000, 1000, 300_000),
            ],
        );
        assert!(r.latency_breach);
        assert!(!r.avail_breach);
        let j = r.to_json();
        assert!(j.contains("\"latency_breach\":true"), "{j}");
        assert!(j.contains("\"breached\":true"), "{j}");
        assert!(j.contains("\"label\":\"5m\""), "{j}");
        // The JSON is parseable by the in-tree parser (used by CI asserts).
        amrviz_json::Json::parse(&j).expect("slo report json parses");
    }
}
