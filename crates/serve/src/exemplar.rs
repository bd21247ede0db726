//! Tail-latency exemplars: a bounded reservoir retaining the slowest K
//! requests with their stage breakdown and trace id.
//!
//! A p99 number says *that* the tail is slow; an exemplar says *why*: it
//! carries the per-stage timing of an actual tail request plus its trace
//! id, so the operator can jump from "p99 is 80 ms" to "that request spent
//! 70 ms in decode — here is its span tree in the journal".
//!
//! The reservoir keeps the top K by a **total order** (duration, then
//! trace id as tiebreak), so its final contents depend only on the *set*
//! of offered requests, never on offer order or thread interleaving —
//! which is what makes it deterministic at any `AMRVIZ_THREADS`.

use crate::telemetry::StageTimes;

/// One retained tail request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Trace id, resolvable against journal `span`/`serve` lines.
    pub trace: u64,
    /// End-to-end server-side duration in microseconds.
    pub total_us: u64,
    /// Free-form label (status name, key, scenario — caller's choice).
    pub label: String,
    /// Stage breakdown.
    pub stages: StageTimes,
}

impl Exemplar {
    /// Single-line JSON object (trace as hex string — the journal's own
    /// convention, since crates/json parses numbers as f64).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trace\":\"{:x}\",\"total_us\":{},\"label\":\"{}\",\"stages_us\":{}}}",
            self.trace,
            self.total_us,
            amrviz_json::escape(&self.label),
            self.stages.to_json()
        )
    }
}

/// Total-order sort key: slower first, then higher trace id. Strict total
/// order over (total_us, trace) pairs makes reservoir contents a pure
/// function of the offered set.
fn key(e: &Exemplar) -> (u64, u64) {
    (e.total_us, e.trace)
}

/// Bounded slowest-K reservoir. Not internally synchronized — wrap in a
/// `Mutex` for concurrent offer paths (the serve telemetry does).
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    /// Sorted descending by [`key`]; never exceeds `cap`.
    items: Vec<Exemplar>,
}

impl Reservoir {
    /// Reservoir retaining the `cap` slowest exemplars (cap clamped ≥ 1).
    pub fn new(cap: usize) -> Self {
        Reservoir {
            cap: cap.max(1),
            items: Vec::new(),
        }
    }

    /// Offers an exemplar; returns whether it was retained. Duplicate
    /// (total_us, trace) keys are rejected so retries of one trace don't
    /// crowd out distinct requests.
    pub fn offer(&mut self, e: Exemplar) -> bool {
        let k = key(&e);
        if self.items.iter().any(|x| key(x) == k) {
            return false;
        }
        if self.items.len() == self.cap {
            // Full: reject anything not strictly slower than the floor.
            if k <= key(self.items.last().unwrap()) {
                return false;
            }
            self.items.pop();
        }
        let pos = self.items.partition_point(|x| key(x) > k);
        self.items.insert(pos, e);
        true
    }

    /// Retained exemplars, slowest first.
    pub fn snapshot(&self) -> &[Exemplar] {
        &self.items
    }

    /// Slowest duration a new offer must beat once the reservoir is full
    /// (0 while it still has room) — cheap pre-filter for hot paths.
    pub fn min_retained_us(&self) -> u64 {
        if self.items.len() < self.cap {
            0
        } else {
            self.items.last().map(|e| e.total_us).unwrap_or(0)
        }
    }

    /// JSON array of the retained exemplars, slowest first.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self.items.iter().map(Exemplar::to_json).collect();
        format!("[{}]", items.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Stage;

    fn ex(trace: u64, total_us: u64) -> Exemplar {
        let mut stages = StageTimes::default();
        stages[Stage::Decode] = Some(total_us / 2);
        stages[Stage::Write] = Some(1);
        Exemplar {
            trace,
            total_us,
            label: "ok".into(),
            stages,
        }
    }

    #[test]
    fn keeps_the_k_slowest() {
        let mut r = Reservoir::new(3);
        for t in 0..10u64 {
            r.offer(ex(t, t * 100));
        }
        let kept: Vec<u64> = r.snapshot().iter().map(|e| e.total_us).collect();
        assert_eq!(kept, vec![900, 800, 700], "slowest first");
        assert_eq!(r.min_retained_us(), 700);
        // A fast request bounces off a full reservoir.
        assert!(!r.offer(ex(99, 50)));
        assert_eq!(r.snapshot().len(), 3);
    }

    #[test]
    fn contents_are_order_independent() {
        let mut offers: Vec<Exemplar> = (0..20u64).map(|t| ex(t, (t * 37) % 1000)).collect();
        let mut fwd = Reservoir::new(4);
        for e in offers.clone() {
            fwd.offer(e);
        }
        offers.reverse();
        let mut rev = Reservoir::new(4);
        for e in offers {
            rev.offer(e);
        }
        assert_eq!(fwd.snapshot(), rev.snapshot(), "pure function of the set");
    }

    #[test]
    fn equal_durations_tiebreak_on_trace() {
        let mut r = Reservoir::new(2);
        r.offer(ex(1, 500));
        r.offer(ex(2, 500));
        r.offer(ex(3, 500));
        let traces: Vec<u64> = r.snapshot().iter().map(|e| e.trace).collect();
        assert_eq!(traces, vec![3, 2], "higher trace wins ties");
        // Exact duplicate key is rejected.
        assert!(!r.offer(ex(3, 500)));
    }

    #[test]
    fn exemplar_and_reservoir_json_parse() {
        let mut stages = StageTimes::default();
        stages[Stage::QueueWait] = Some(10);
        stages[Stage::Decode] = Some(800);
        stages[Stage::Write] = Some(90);
        let e = Exemplar {
            trace: 0xBEEF,
            total_us: 900,
            label: "ok key=42".into(),
            stages,
        };
        let j = e.to_json();
        assert!(j.contains("\"trace\":\"beef\""), "{j}");
        assert!(j.contains("\"decode\":800"), "{j}");
        amrviz_json::Json::parse(&j).expect("exemplar json parses");
        // Reservoir json is an array.
        let mut r = Reservoir::new(2);
        r.offer(e);
        assert!(r.to_json().starts_with('['));
        amrviz_json::Json::parse(&r.to_json()).expect("reservoir json parses");
    }
}
