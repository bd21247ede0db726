//! Request-centric serve telemetry: per-status windowed latency, stage
//! timing breakdowns, tail exemplars, and the in-band STATS snapshot.
//!
//! The server answers `Op::Stats` from this module alone — it is
//! deliberately independent of the global obs recorder's enable state, so
//! an operator gets live telemetry even from a server started without
//! `--journal`. These samples are stored here and nowhere
//! else: STATS is the one place serve latency series are read.
//!
//! Ring geometry: 720 slots × 5 s = one hour of coverage, enough for the
//! 1 h SLO burn window.

use crate::exemplar::{Exemplar, Reservoir};
use crate::proto::{Status, PROTO_VERSION};
use crate::server::StatsSnapshot;
use crate::slo::{evaluate, SloReport, SloSpec, WindowReading};
use crate::window::WindowedHistogram;
use std::sync::Mutex;
use std::time::Instant;

/// STATS snapshot schema identifier.
pub const STATS_SCHEMA: &str = "amrviz-serve-stats-v1";

/// Telemetry ring slot width in seconds.
pub const SLOT_SECS: u64 = 5;

/// Telemetry ring size: one hour of coverage at [`SLOT_SECS`].
pub const SLOTS: usize = 720;

/// Evaluation windows for the SLO burn math: fast/noisy and slow/stable.
pub const WINDOWS: [(&str, u64); 2] = [("5m", 300), ("1h", 3600)];

/// Tail exemplars retained.
pub const EXEMPLAR_CAP: usize = 8;

/// Request stage names, in pipeline order. The taxonomy every aggregated
/// view and journal line shares.
pub const STAGE_NAMES: [&str; 5] = [
    "queue_wait",
    "store_read",
    "structure_validate",
    "decode",
    "write",
];

/// Per-request stage timing breakdown in microseconds. `None` means the
/// stage never ran for this request — a cache hit skips `store_read`,
/// `structure_validate` and `decode` entirely, which is itself signal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Admission queue to worker pickup.
    pub queue_wait_us: Option<u64>,
    /// Blob store read (cache miss only).
    pub store_read_us: Option<u64>,
    /// Artifact structural decode + validation (cache miss only).
    pub structure_validate_us: Option<u64>,
    /// Field decompression into the arena (cache miss only).
    pub decode_us: Option<u64>,
    /// Cumulative gated socket writes.
    pub write_us: Option<u64>,
    /// Not a stage but a milestone on the same clock: request start to the
    /// first `LEVEL` frame written — when the client could first render.
    /// Absent from [`StageTimes::as_pairs`]; stages add up to at most the
    /// request's elapsed time, a milestone overlaps them.
    pub first_level_us: Option<u64>,
}

impl StageTimes {
    /// Present stages as `(name, us)` pairs in [`STAGE_NAMES`] order.
    pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
        [
            self.queue_wait_us,
            self.store_read_us,
            self.structure_validate_us,
            self.decode_us,
            self.write_us,
        ]
        .iter()
        .zip(STAGE_NAMES)
        .filter_map(|(v, name)| v.map(|us| (name, us)))
        .collect()
    }

    /// Compact JSON object of the present stages (for the journal line).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, us)) in self.as_pairs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{us}"));
        }
        out.push('}');
        out
    }

    /// Adds `us` to the cumulative write stage.
    pub fn add_write(&mut self, us: u64) {
        self.write_us = Some(self.write_us.unwrap_or(0) + us);
    }
}

/// The stage a request spent longest in, of `(name, us)` pairs; equal times
/// go to the name that sorts last. The one "what is this slow request bound
/// by" rule, for journal lines (`amrviz stats`) and exemplars (`amrviz top`).
pub fn dominant_stage<'a>(
    stages: impl IntoIterator<Item = (&'a str, u64)>,
) -> Option<(&'a str, u64)> {
    stages.into_iter().max_by_key(|&(name, us)| (us, name))
}

/// The server's request telemetry: windowed per-status latency, windowed
/// per-stage timings, and the tail-exemplar reservoir. One instance per
/// server, shared by all workers.
pub struct ReqTelemetry {
    started: Instant,
    /// Latency histograms indexed by `Status::code()`.
    latency: Mutex<Vec<WindowedHistogram>>,
    /// Stage histograms indexed by [`STAGE_NAMES`] position.
    stages: Mutex<Vec<WindowedHistogram>>,
    /// Request start to first `LEVEL` frame written, over the GETs that
    /// sent one.
    first_level: Mutex<WindowedHistogram>,
    exemplars: Mutex<Reservoir>,
    spec: SloSpec,
}

/// Number of `Status` variants (codes 0..N_STATUS are all valid).
const N_STATUS: usize = 9;

impl ReqTelemetry {
    pub fn new(spec: SloSpec) -> Self {
        ReqTelemetry {
            started: Instant::now(),
            latency: Mutex::new(
                (0..N_STATUS)
                    .map(|_| WindowedHistogram::with_slots(SLOTS))
                    .collect(),
            ),
            stages: Mutex::new(
                (0..STAGE_NAMES.len())
                    .map(|_| WindowedHistogram::with_slots(SLOTS))
                    .collect(),
            ),
            first_level: Mutex::new(WindowedHistogram::with_slots(SLOTS)),
            exemplars: Mutex::new(Reservoir::new(EXEMPLAR_CAP)),
            spec,
        }
    }

    /// Milliseconds since the server started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Current telemetry slot id.
    fn now_slot(&self) -> u64 {
        self.started.elapsed().as_secs() / SLOT_SECS
    }

    /// Records one finished request. `stages` is `None` for ops with no
    /// stage breakdown (ping/list/shed).
    pub fn record(
        &self,
        status: Status,
        total_us: u64,
        stages: Option<&StageTimes>,
        trace: u64,
        key: u64,
    ) {
        self.record_at(self.now_slot(), status, total_us, stages, trace, key);
    }

    /// [`ReqTelemetry::record`] with an explicit slot id — the
    /// deterministic entry point unit tests drive.
    pub fn record_at(
        &self,
        slot: u64,
        status: Status,
        total_us: u64,
        stages: Option<&StageTimes>,
        trace: u64,
        key: u64,
    ) {
        self.latency.lock().unwrap()[status.code() as usize].record(slot, total_us);
        // Only requests that carried a stage breakdown (GETs) are
        // diagnosable, so only they reach the tail reservoir below.
        let Some(st) = stages else { return };
        let pairs = st.as_pairs();
        {
            let mut hs = self.stages.lock().unwrap();
            for (name, us) in &pairs {
                let idx = STAGE_NAMES.iter().position(|n| n == name).unwrap();
                hs[idx].record(slot, *us);
            }
        }
        if let Some(us) = st.first_level_us {
            self.first_level.lock().unwrap().record(slot, us);
        }
        let mut res = self.exemplars.lock().unwrap();
        if total_us > res.min_retained_us() {
            res.offer(Exemplar {
                trace,
                total_us,
                label: format!("{} key={key:016x}", status.name()),
                stages: pairs.iter().map(|(n, us)| (n.to_string(), *us)).collect(),
            });
        }
    }

    /// Multi-window SLO evaluation over the recorded request stream.
    pub fn slo_report(&self) -> SloReport {
        self.slo_report_at(self.now_slot())
    }

    /// [`ReqTelemetry::slo_report`] at an explicit slot (tests).
    pub fn slo_report_at(&self, now_slot: u64) -> SloReport {
        let lat = self.latency.lock().unwrap();
        let mut readings = Vec::new();
        for (label, secs) in WINDOWS {
            let k = (secs / SLOT_SECS).max(1);
            let mut good = 0u64;
            let mut total = 0u64;
            let mut merged = amrviz_obs::hist::Histogram::new();
            for (code, h) in lat.iter().enumerate() {
                let Some(status) = Status::from_code(code as u8) else {
                    continue;
                };
                if !status.counts_toward_slo() {
                    continue;
                }
                let w = h.window_merged(now_slot, k);
                let n = w.count();
                total += n;
                if status.is_good() {
                    good += n;
                }
                merged.merge(&w);
            }
            readings.push(WindowReading::from_histogram(
                label, secs, good, total, &merged,
            ));
        }
        evaluate(&self.spec, &readings)
    }

    /// The versioned STATS snapshot. `snap` and the cache numbers come from
    /// the server (they live outside this module); everything windowed
    /// comes from the telemetry rings.
    pub fn snapshot_json(
        &self,
        snap: &StatsSnapshot,
        queue_depth: usize,
        workers: usize,
        cache_entries: usize,
        cache_bytes: usize,
        cache_budget_bytes: usize,
    ) -> String {
        let now_slot = self.now_slot();
        let slo = self.slo_report_at(now_slot);
        let w5m = (WINDOWS[0].1 / SLOT_SECS).max(1);

        // Health verdict: invariant violations or an SLO breach degrade it.
        let health = if snap.panics > 0 || snap.post_deadline_responses > 0 || slo.breached() {
            "degraded"
        } else {
            "ok"
        };

        let mut out = format!(
            "{{\"schema\":\"{STATS_SCHEMA}\",\"proto_version\":{PROTO_VERSION},\
             \"uptime_ms\":{},\"health\":\"{health}\"",
            self.uptime_ms()
        );
        out.push_str(&format!(",\"requests\":{}", snap.to_json_line()));
        out.push_str(&format!(
            ",\"queue_depth\":{queue_depth},\"workers\":{workers}"
        ));
        out.push_str(&format!(
            ",\"cache\":{{\"entries\":{cache_entries},\"bytes\":{cache_bytes},\
             \"budget_bytes\":{cache_budget_bytes},\"hits\":{},\"misses\":{}}}",
            snap.cache_hits, snap.cache_misses
        ));

        // Every histogram is shown as its lifetime and trailing-5m views.
        let views = |h: &WindowedHistogram| {
            format!(
                "{{\"lifetime\":{},\"w5m\":{}}}",
                h.lifetime.stats_json(),
                h.window_merged(now_slot, w5m).stats_json(),
            )
        };

        // A family of histograms keyed by name, nonzero members only.
        let family = |hists: &mut dyn Iterator<Item = (&str, &WindowedHistogram)>| {
            let body: Vec<String> = hists
                .filter(|(_, h)| h.lifetime.count() > 0)
                .map(|(name, h)| format!("\"{name}\":{}", views(h)))
                .collect();
            format!("{{{}}}", body.join(","))
        };
        {
            let lat = self.latency.lock().unwrap();
            let mut by_status = lat.iter().enumerate().filter_map(|(code, h)| {
                Status::from_code(code as u8).map(|status| (status.name(), h))
            });
            out.push_str(&format!(",\"latency_us\":{}", family(&mut by_status)));
        }
        // Per-stage timing: same shape, keyed by the stage taxonomy.
        {
            let hs = self.stages.lock().unwrap();
            let mut by_stage = STAGE_NAMES.into_iter().zip(hs.iter());
            out.push_str(&format!(",\"stages_us\":{}", family(&mut by_stage)));
        }

        let first_level = views(&self.first_level.lock().unwrap());
        out.push_str(&format!(",\"first_level_us\":{first_level}"));

        out.push_str(&format!(",\"slo\":{}", slo.to_json()));
        out.push_str(&format!(
            ",\"exemplars\":{}}}",
            self.exemplars.lock().unwrap().to_json()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages(decode: u64, write: u64) -> StageTimes {
        StageTimes {
            queue_wait_us: Some(3),
            store_read_us: None,
            structure_validate_us: None,
            decode_us: Some(decode),
            write_us: Some(write),
            first_level_us: Some(decode + 5),
        }
    }

    #[test]
    fn stage_times_pairs_and_json_skip_absent() {
        let st = stages(500, 20);
        let pairs = st.as_pairs();
        assert_eq!(
            pairs,
            vec![("queue_wait", 3), ("decode", 500), ("write", 20)],
            "absent stages are skipped, order follows the taxonomy"
        );
        let j = st.to_json();
        assert_eq!(j, "{\"queue_wait\":3,\"decode\":500,\"write\":20}");
        assert_eq!(StageTimes::default().to_json(), "{}");
        let mut w = StageTimes::default();
        w.add_write(5);
        w.add_write(7);
        assert_eq!(w.write_us, Some(12));
    }

    #[test]
    fn slo_windows_see_only_their_slots() {
        let t = ReqTelemetry::new(SloSpec::parse("avail>99").unwrap());
        // Slot 0: a burst of failures. 700 slots later (past the 5m window,
        // inside the 1h window): all good.
        for _ in 0..50 {
            t.record_at(0, Status::Timeout, 1000, None, 0, 0);
            t.record_at(0, Status::Ok, 100, None, 0, 0);
        }
        for _ in 0..100 {
            t.record_at(119, Status::Ok, 100, None, 0, 0);
        }
        let r = t.slo_report_at(119);
        // 5m window (60 slots ending at 119): only the good burst.
        let w5 = &r.windows[0];
        assert_eq!(w5.total, 100);
        assert_eq!(w5.good, 100);
        assert!(!w5.avail_exceeded);
        // 1h window sees both bursts: 150 good of 200.
        let w1h = &r.windows[1];
        assert_eq!(w1h.total, 200);
        assert_eq!(w1h.good, 150);
        assert!(w1h.avail_exceeded, "25% bad over a 1% budget");
        // AND semantics: short window recovered, so no breach.
        assert!(!r.breached());
    }

    #[test]
    fn snapshot_json_is_valid_and_carries_sections() {
        let t = ReqTelemetry::new(SloSpec::default());
        t.record_at(1, Status::Ok, 1500, Some(&stages(900, 40)), 0xABC, 7);
        t.record_at(
            1,
            Status::Timeout,
            90_000,
            Some(&stages(88_000, 1)),
            0xDEF,
            8,
        );
        let snap = StatsSnapshot {
            requests: 2,
            ok: 1,
            timeout: 1,
            cache_hits: 1,
            cache_misses: 1,
            ..Default::default()
        };
        let j = t.snapshot_json(&snap, 0, 2, 1, 4096, 1 << 20);
        let doc = amrviz_json::Json::parse(&j).expect("snapshot json parses");
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), STATS_SCHEMA);
        assert!(doc.get("health").is_some());
        assert!(doc.get("slo").is_some());
        let lat = doc.get("latency_us").unwrap();
        assert!(lat.get("ok").is_some() && lat.get("timeout").is_some());
        let st = doc.get("stages_us").unwrap();
        assert!(st.get("decode").is_some() && st.get("write").is_some());
        let first = doc.get("first_level_us").unwrap().get("lifetime").unwrap();
        assert_eq!(first.get("count").unwrap().as_u64().unwrap(), 2);
        assert!(
            st.get("decode")
                .unwrap()
                .get("w5m")
                .unwrap()
                .get("p99")
                .is_some(),
            "stage timings carry windowed percentiles"
        );
        // The slow request is retained as an exemplar with its trace id.
        let ex = doc.get("exemplars").unwrap().as_arr().unwrap();
        assert!(!ex.is_empty());
        assert_eq!(ex[0].get("trace").unwrap().as_str().unwrap(), "def");
        assert_eq!(ex[0].get("total_us").unwrap().as_u64().unwrap(), 90_000);
    }

    #[test]
    fn health_degrades_on_invariant_violation() {
        let t = ReqTelemetry::new(SloSpec::default());
        let mut snap = StatsSnapshot::default();
        let j = t.snapshot_json(&snap, 0, 1, 0, 0, 0);
        assert!(j.contains("\"health\":\"ok\""));
        snap.post_deadline_responses = 1;
        let j = t.snapshot_json(&snap, 0, 1, 0, 0, 0);
        assert!(j.contains("\"health\":\"degraded\""));
    }
}
