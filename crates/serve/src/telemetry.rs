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

/// Tail exemplars retained: enough tail context to diagnose, small enough
/// that a STATS snapshot stays a few KB.
pub const EXEMPLAR_CAP: usize = 8;

/// One retained tail request. A p99 says *that* the tail is slow; an
/// exemplar says *why*: the stage breakdown of an actual tail request,
/// with the trace id that resolves it to its journal lines.
struct Exemplar {
    trace: u64,
    /// End-to-end server-side duration in microseconds.
    total_us: u64,
    status: Status,
    key: u64,
    stages: StageTimes,
}

impl Exemplar {
    /// Single-line JSON object; the trace is a hex string, the journal's
    /// own convention, since crates/json parses numbers as f64.
    fn to_json(&self) -> String {
        format!(
            "{{\"trace\":\"{:x}\",\"total_us\":{},\"label\":\"{} key={:016x}\",\"stages_us\":{}}}",
            self.trace,
            self.total_us,
            self.status.name(),
            self.key,
            self.stages.to_json()
        )
    }
}

/// A request stage. Declaration order is pipeline order: it indexes
/// [`StageTimes`] and the telemetry's stage rings, and orders every view of
/// them — journal `stages_us`, the STATS `stages_us` family, exemplars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Admission queue to worker pickup.
    QueueWait,
    /// Blob store read (cache miss only).
    StoreRead,
    /// Artifact structural decode + validation (cache miss only).
    StructureValidate,
    /// Field decompression into the arena (cache miss only).
    Decode,
    /// Cumulative gated socket writes.
    Write,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::QueueWait,
        Stage::StoreRead,
        Stage::StructureValidate,
        Stage::Decode,
        Stage::Write,
    ];

    /// The stage's key in journal lines and the STATS snapshot.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::StoreRead => "store_read",
            Stage::StructureValidate => "structure_validate",
            Stage::Decode => "decode",
            Stage::Write => "write",
        }
    }
}

/// Per-request stage timing breakdown in microseconds, indexed by
/// [`Stage`]. `None` means the stage never ran for this request — a cache
/// hit skips `store_read`, `structure_validate` and `decode` entirely,
/// which is itself signal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    us: [Option<u64>; Stage::ALL.len()],
    /// Not a stage but a milestone on the same clock: request start to the
    /// first `LEVEL` frame written — when the client could first render.
    /// Absent from every stage view; stages add up to at most the
    /// request's elapsed time, a milestone overlaps them.
    pub first_level_us: Option<u64>,
}

impl std::ops::Index<Stage> for StageTimes {
    type Output = Option<u64>;
    fn index(&self, stage: Stage) -> &Option<u64> {
        &self.us[stage as usize]
    }
}

impl std::ops::IndexMut<Stage> for StageTimes {
    fn index_mut(&mut self, stage: Stage) -> &mut Option<u64> {
        &mut self.us[stage as usize]
    }
}

impl StageTimes {
    /// The stages that ran, with their times, in pipeline order.
    pub(crate) fn present(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        Stage::ALL
            .into_iter()
            .filter_map(|stage| self[stage].map(|us| (stage, us)))
    }

    /// Compact JSON object of the present stages (journal lines and
    /// exemplars).
    pub fn to_json(&self) -> String {
        let pairs: Vec<String> = self
            .present()
            .map(|(stage, us)| format!("\"{}\":{us}", stage.name()))
            .collect();
        format!("{{{}}}", pairs.join(","))
    }

    /// Adds `us` to the cumulative write stage.
    pub fn add_write(&mut self, us: u64) {
        self[Stage::Write] = Some(self[Stage::Write].unwrap_or(0) + us);
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
/// per-stage timings, and the tail exemplars. One instance per server,
/// shared by all workers.
pub struct ReqTelemetry {
    started: Instant,
    rings: Mutex<Rings>,
    spec: SloSpec,
}

/// Everything a request records, under one lock so a snapshot never sees
/// a request in one section and not yet in another.
struct Rings {
    /// Latency histograms indexed by `Status::code()`, which numbers
    /// `Status::ALL` from 0.
    latency: Vec<WindowedHistogram>,
    /// Stage histograms indexed by [`Stage`].
    stages: Vec<WindowedHistogram>,
    /// Request start to first `LEVEL` frame written, over the GETs that
    /// sent one.
    first_level: WindowedHistogram,
    /// The [`EXEMPLAR_CAP`] slowest GETs, sorted descending by the total
    /// order `(total_us, trace)`, no two on the same key. Over that order
    /// the retained set is a pure function of the offered set, whatever
    /// the arrival order or thread interleaving.
    exemplars: Vec<Exemplar>,
}

impl ReqTelemetry {
    pub fn new(spec: SloSpec) -> Self {
        let windowed = |n| (0..n).map(|_| WindowedHistogram::default()).collect();
        ReqTelemetry {
            started: Instant::now(),
            rings: Mutex::new(Rings {
                latency: windowed(Status::ALL.len()),
                stages: windowed(Stage::ALL.len()),
                first_level: WindowedHistogram::default(),
                exemplars: Vec::with_capacity(EXEMPLAR_CAP + 1),
            }),
            spec,
        }
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
        let mut rings = self.rings.lock().unwrap();
        rings.latency[status.code() as usize].record(slot, total_us);
        // Only requests that carried a stage breakdown (GETs) are
        // diagnosable, so only they reach the tail below.
        let Some(st) = stages else { return };
        for (stage, us) in st.present() {
            rings.stages[stage as usize].record(slot, us);
        }
        if let Some(us) = st.first_level_us {
            rings.first_level.record(slot, us);
        }
        let offer = Exemplar {
            trace,
            total_us,
            status,
            key,
            stages: *st,
        };
        // The floor and the duplicate check compare the whole order key, so
        // a tie on duration is decided by the trace, never by arrival.
        let rank = (total_us, trace);
        let tail = &mut rings.exemplars;
        let at = tail.partition_point(|e| (e.total_us, e.trace) > rank);
        if at < EXEMPLAR_CAP && tail.get(at).is_none_or(|e| (e.total_us, e.trace) != rank) {
            tail.insert(at, offer);
            tail.truncate(EXEMPLAR_CAP);
        }
    }

    /// Multi-window SLO evaluation over the recorded request stream.
    pub fn slo_report(&self) -> SloReport {
        self.slo_report_at(self.now_slot())
    }

    /// [`ReqTelemetry::slo_report`] at an explicit slot (tests).
    pub fn slo_report_at(&self, now_slot: u64) -> SloReport {
        self.slo_report_of(&self.rings.lock().unwrap().latency, now_slot)
    }

    /// The SLO report of latency rings the caller already holds locked.
    fn slo_report_of(&self, lat: &[WindowedHistogram], now_slot: u64) -> SloReport {
        let mut readings = Vec::new();
        for (label, secs) in WINDOWS {
            let k = (secs / SLOT_SECS).max(1);
            let mut good = 0u64;
            let mut total = 0u64;
            let mut merged = amrviz_obs::hist::Histogram::new();
            for &status in Status::ALL {
                if !status.counts_toward_slo() {
                    continue;
                }
                let w = lat[status.code() as usize].window_merged(now_slot, k);
                let n = w.count();
                total += n;
                if status.is_good() {
                    good += n;
                }
                merged.merge(&w);
            }
            readings.push(WindowReading {
                label,
                secs,
                good,
                total,
                p99_us: merged.percentile(99.0).round() as u64,
            });
        }
        evaluate(&self.spec, &readings)
    }

    /// The versioned STATS snapshot and the SLO report its `slo` section
    /// shows, both read under one lock. `snap` and the cache numbers come
    /// from the server (they live outside this module); everything windowed
    /// comes from the telemetry rings.
    pub fn snapshot_json(
        &self,
        snap: &StatsSnapshot,
        queue_depth: usize,
        workers: usize,
        cache_entries: usize,
        cache_bytes: usize,
        cache_budget_bytes: usize,
    ) -> (String, SloReport) {
        let now_slot = self.now_slot();
        let rings = self.rings.lock().unwrap();
        let slo = self.slo_report_of(&rings.latency, now_slot);
        let w5m = (WINDOWS[0].1 / SLOT_SECS).max(1);

        // Health verdict: invariant violations or an SLO breach degrade it.
        let health = if snap.panics > 0 || snap.post_deadline_responses > 0 || slo.breached() {
            "degraded"
        } else {
            "ok"
        };

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
        let mut by_status = Status::ALL
            .iter()
            .map(|s| (s.name(), &rings.latency[s.code() as usize]));
        // Per-stage timing: same shape, keyed by the stage taxonomy.
        let mut by_stage = Stage::ALL
            .iter()
            .map(|s| (s.name(), &rings.stages[*s as usize]));
        let exemplars: Vec<String> = rings.exemplars.iter().map(Exemplar::to_json).collect();
        let out = format!(
            "{{\"schema\":\"{STATS_SCHEMA}\",\"proto_version\":{PROTO_VERSION},\
             \"uptime_ms\":{},\"health\":\"{health}\",\"requests\":{},\
             \"queue_depth\":{queue_depth},\"workers\":{workers},\
             \"cache\":{{\"entries\":{cache_entries},\"bytes\":{cache_bytes},\
             \"budget_bytes\":{cache_budget_bytes},\"hits\":{},\"misses\":{}}},\
             \"latency_us\":{},\"stages_us\":{},\"first_level_us\":{},\"slo\":{},\
             \"exemplars\":[{}]}}",
            self.started.elapsed().as_millis(),
            snap.to_json_line(),
            snap.cache_hits,
            snap.cache_misses,
            family(&mut by_status),
            family(&mut by_stage),
            views(&rings.first_level),
            slo.to_json(),
            exemplars.join(","),
        );
        (out, slo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The given stages, every other one absent.
    fn times(pairs: &[(Stage, u64)]) -> StageTimes {
        let mut st = StageTimes::default();
        for &(stage, us) in pairs {
            st[stage] = Some(us);
        }
        st
    }

    fn stages(decode: u64, write: u64) -> StageTimes {
        let mut st = times(&[
            (Stage::QueueWait, 3),
            (Stage::Decode, decode),
            (Stage::Write, write),
        ]);
        st.first_level_us = Some(decode + 5);
        st
    }

    #[test]
    fn stage_times_pairs_and_json_skip_absent() {
        let st = stages(500, 20);
        let pairs: Vec<(&str, u64)> = st.present().map(|(s, us)| (s.name(), us)).collect();
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
        assert_eq!(w[Stage::Write], Some(12));
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
        // Each window's p99 is read off the merge of its slots' histograms.
        let p99 = |samples: &[(u64, u64)]| {
            let mut h = amrviz_obs::hist::Histogram::new();
            for &(n, us) in samples {
                (0..n).for_each(|_| h.record(us));
            }
            h.percentile(99.0).round() as u64
        };
        // 5m window (60 slots ending at 119): only the good burst.
        let w5 = &r.windows[0];
        assert_eq!(w5.reading.total, 100);
        assert_eq!(w5.reading.good, 100);
        assert_eq!(w5.reading.p99_us, p99(&[(100, 100)]));
        assert!(!w5.avail_exceeded);
        // 1h window sees both bursts: 150 good of 200.
        let w1h = &r.windows[1];
        assert_eq!(w1h.reading.total, 200);
        assert_eq!(w1h.reading.good, 150);
        assert_eq!(w1h.reading.p99_us, p99(&[(150, 100), (50, 1000)]));
        assert!(
            w1h.reading.p99_us >= 1000,
            "the failure burst is the window's tail"
        );
        assert!(w1h.avail_exceeded, "25% bad over a 1% budget");
        // AND semantics: short window recovered, so no breach.
        assert!(!r.breached());
    }

    /// A cache miss: every stage ran.
    fn cold(us: u64) -> StageTimes {
        times(&Stage::ALL.map(|s| (s, (s as u64 + 1) * us)))
    }

    #[test]
    fn snapshot_json_is_valid_and_carries_sections() {
        let t = ReqTelemetry::new(SloSpec::default());
        t.record_at(0, Status::Ok, 1500, Some(&stages(900, 40)), 0xABC, 7);
        t.record_at(
            0,
            Status::Timeout,
            90_000,
            Some(&stages(88_000, 1)),
            0xDEF,
            8,
        );
        t.record_at(0, Status::Degraded, 2000, Some(&cold(100)), 0x1F, 9);
        let snap = StatsSnapshot {
            requests: 3,
            ok: 1,
            degraded: 1,
            timeout: 1,
            cache_hits: 1,
            cache_misses: 2,
            ..Default::default()
        };
        let (j, _) = t.snapshot_json(&snap, 0, 2, 1, 4096, 1 << 20);
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
        // The stage family and the exemplars, byte for byte.
        let after = |key: &str| &j[j.find(key).unwrap() + key.len()..];
        let stages_us = after(",\"stages_us\":");
        let stages_us = &stages_us[..stages_us.find(",\"first_level_us\":").unwrap()];
        assert_eq!(
            stages_us,
            concat!(
                "{\"queue_wait\":{\"lifetime\":{\"count\":3,\"sum\":106,\"min\":3,\"max\":100,\"mean\":35.333333333333336,\"p50\":4.0,\"p90\":100.0,\"p99\":100.0},",
                "\"w5m\":{\"count\":3,\"sum\":106,\"min\":3,\"max\":100,\"mean\":35.333333333333336,\"p50\":4.0,\"p90\":100.0,\"p99\":100.0}},",
                "\"store_read\":{\"lifetime\":{\"count\":1,\"sum\":200,\"min\":200,\"max\":200,\"mean\":200.0,\"p50\":200.0,\"p90\":200.0,\"p99\":200.0},",
                "\"w5m\":{\"count\":1,\"sum\":200,\"min\":200,\"max\":200,\"mean\":200.0,\"p50\":200.0,\"p90\":200.0,\"p99\":200.0}},",
                "\"structure_validate\":{\"lifetime\":{\"count\":1,\"sum\":300,\"min\":300,\"max\":300,\"mean\":300.0,\"p50\":300.0,\"p90\":300.0,\"p99\":300.0},",
                "\"w5m\":{\"count\":1,\"sum\":300,\"min\":300,\"max\":300,\"mean\":300.0,\"p50\":300.0,\"p90\":300.0,\"p99\":300.0}},",
                "\"decode\":{\"lifetime\":{\"count\":3,\"sum\":89300,\"min\":400,\"max\":88000,\"mean\":29766.666666666668,\"p50\":960.0,\"p90\":88000.0,\"p99\":88000.0},",
                "\"w5m\":{\"count\":3,\"sum\":89300,\"min\":400,\"max\":88000,\"mean\":29766.666666666668,\"p50\":960.0,\"p90\":88000.0,\"p99\":88000.0}},",
                "\"write\":{\"lifetime\":{\"count\":3,\"sum\":541,\"min\":1,\"max\":500,\"mean\":180.33333333333334,\"p50\":44.0,\"p90\":500.0,\"p99\":500.0},",
                "\"w5m\":{\"count\":3,\"sum\":541,\"min\":1,\"max\":500,\"mean\":180.33333333333334,\"p50\":44.0,\"p90\":500.0,\"p99\":500.0}}}",
            )
        );
        assert_eq!(
            after(",\"exemplars\":"),
            concat!(
                "[{\"trace\":\"def\",\"total_us\":90000,\"label\":\"timeout key=0000000000000008\",",
                "\"stages_us\":{\"queue_wait\":3,\"decode\":88000,\"write\":1}},",
                "{\"trace\":\"1f\",\"total_us\":2000,\"label\":\"degraded key=0000000000000009\",",
                "\"stages_us\":{\"queue_wait\":100,\"store_read\":200,\"structure_validate\":300,\"decode\":400,\"write\":500}},",
                "{\"trace\":\"abc\",\"total_us\":1500,\"label\":\"ok key=0000000000000007\",",
                "\"stages_us\":{\"queue_wait\":3,\"decode\":900,\"write\":40}}]}",
            )
        );
        // A journal line's `stages_us`.
        assert_eq!(
            cold(100).to_json(),
            "{\"queue_wait\":100,\"store_read\":200,\"structure_validate\":300,\"decode\":400,\"write\":500}"
        );
    }

    #[test]
    fn every_snapshot_sees_a_request_in_all_sections_or_none() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let t = ReqTelemetry::new(SloSpec::default());
        let (done, start) = (AtomicBool::new(false), std::sync::Barrier::new(3));
        // A family omits a member that has recorded nothing yet.
        let lifetime_count = |doc: &amrviz_json::Json, section: &str, member: &str| {
            let path = [section, member, "lifetime", "count"];
            let count = path.iter().try_fold(doc, |j, key| j.get(key));
            count.map_or(0, |c| c.as_u64().unwrap())
        };
        std::thread::scope(|s| {
            for worker in 0..2u64 {
                let (t, done, start) = (&t, &done, &start);
                s.spawn(move || {
                    start.wait();
                    let mut i = 0;
                    while !done.load(Ordering::Relaxed) {
                        let st = stages(50, 5);
                        t.record_at(0, Status::Ok, 100 + i % 900, Some(&st), worker, i);
                        i += 1;
                    }
                });
            }
            start.wait();
            for _ in 0..2_000 {
                let (j, _) = t.snapshot_json(&StatsSnapshot::default(), 0, 2, 0, 0, 0);
                let doc = amrviz_json::Json::parse(&j).unwrap();
                let ok = lifetime_count(&doc, "latency_us", "ok");
                let queue_wait = lifetime_count(&doc, "stages_us", "queue_wait");
                if ok != queue_wait {
                    done.store(true, Ordering::Relaxed);
                    panic!("a GET counted {ok} times in latency_us but {queue_wait} in stages_us");
                }
            }
            done.store(true, Ordering::Relaxed);
        });
    }

    /// The GETs `(trace, total_us)`, recorded in the given order.
    fn tail_of(gets: impl IntoIterator<Item = (u64, u64)>) -> ReqTelemetry {
        let t = ReqTelemetry::new(SloSpec::default());
        for (trace, total_us) in gets {
            let st = times(&[(Stage::Decode, total_us / 2), (Stage::Write, 1)]);
            t.record_at(0, Status::Ok, total_us, Some(&st), trace, trace);
        }
        t
    }

    /// The snapshot's `exemplars` section, as `(trace, total_us)` pairs.
    fn retained(t: &ReqTelemetry) -> Vec<(u64, u64)> {
        let (j, _) = t.snapshot_json(&StatsSnapshot::default(), 0, 1, 0, 0, 0);
        let doc = amrviz_json::Json::parse(&j).expect("snapshot json parses");
        let exemplars = doc.get("exemplars").unwrap().as_arr().unwrap();
        let pair = |e: &amrviz_json::Json| {
            let trace = e.get("trace").unwrap().as_str().unwrap();
            let total_us = e.get("total_us").unwrap().as_u64().unwrap();
            (u64::from_str_radix(trace, 16).unwrap(), total_us)
        };
        exemplars.iter().map(pair).collect()
    }

    #[test]
    fn tail_keeps_the_k_slowest() {
        let t = tail_of((0..20).map(|trace| (trace, trace * 100)));
        let kept: Vec<u64> = retained(&t).iter().map(|&(_, us)| us).collect();
        assert_eq!(kept, [1900, 1800, 1700, 1600, 1500, 1400, 1300, 1200]);
        // A fast request bounces off a full tail.
        t.record_at(0, Status::Ok, 50, Some(&stages(20, 1)), 99, 99);
        assert_eq!(retained(&t).len(), EXEMPLAR_CAP);
        assert_eq!(retained(&t).last(), Some(&(12, 1200)));
    }

    #[test]
    fn tail_is_order_independent() {
        let gets: Vec<(u64, u64)> = (0..20).map(|t| (t, (t * 37) % 1000)).collect();
        let fwd = tail_of(gets.iter().copied());
        let rev = tail_of(gets.iter().rev().copied());
        assert_eq!(retained(&fwd), retained(&rev), "pure function of the set");
        assert_eq!(retained(&fwd).len(), EXEMPLAR_CAP);
    }

    #[test]
    fn tail_ties_break_on_trace() {
        let t = tail_of((1..=10).map(|trace| (trace, 500)));
        let traces: Vec<u64> = retained(&t).iter().map(|&(trace, _)| trace).collect();
        assert_eq!(traces, [10, 9, 8, 7, 6, 5, 4, 3], "higher trace wins ties");
        // A repeat of a retained (total_us, trace) key is not kept twice.
        t.record_at(0, Status::Ok, 500, Some(&stages(250, 1)), 10, 10);
        assert_eq!(retained(&t).len(), EXEMPLAR_CAP);
        assert_eq!(retained(&t)[..2], [(10, 500), (9, 500)]);
    }

    /// Nine equal GETs: which eight are kept must not depend on whether the
    /// highest trace arrives first or last.
    #[test]
    fn nine_equal_gets_keep_one_tail_in_either_order() {
        let last = tail_of((1..=9).map(|trace| (trace, 100)));
        let first = tail_of([9].into_iter().chain(1..=8).map(|trace| (trace, 100)));
        let expect: Vec<(u64, u64)> = (2..=9).rev().map(|trace| (trace, 100)).collect();
        assert_eq!(retained(&last), expect);
        assert_eq!(retained(&first), expect);
    }

    #[test]
    fn tail_json_parses() {
        let t = ReqTelemetry::new(SloSpec::default());
        let st = times(&[
            (Stage::QueueWait, 10),
            (Stage::Decode, 800),
            (Stage::Write, 90),
        ]);
        t.record_at(0, Status::Ok, 900, Some(&st), 0xBEEF, 42);
        let (j, _) = t.snapshot_json(&StatsSnapshot::default(), 0, 1, 0, 0, 0);
        let tail = &j[j.find(",\"exemplars\":").unwrap()..];
        assert_eq!(
            tail,
            concat!(
                ",\"exemplars\":[{\"trace\":\"beef\",\"total_us\":900,\"label\":\"ok key=000000000000002a\",",
                "\"stages_us\":{\"queue_wait\":10,\"decode\":800,\"write\":90}}]}",
            )
        );
        amrviz_json::Json::parse(&j).expect("snapshot json parses");
    }

    /// The report a poll journals is the one its `slo` section shows.
    #[test]
    fn snapshot_returns_the_slo_report_it_shows() {
        let t = ReqTelemetry::new(SloSpec::parse("p99<1,avail>99").unwrap());
        t.record_at(0, Status::Ok, 1500, Some(&stages(900, 40)), 1, 1);
        t.record_at(0, Status::Timeout, 90_000, None, 2, 2);
        let (j, slo) = t.snapshot_json(&StatsSnapshot::default(), 0, 1, 0, 0, 0);
        let section = &j[j.find(",\"slo\":").unwrap() + ",\"slo\":".len()..];
        let section = &section[..section.find(",\"exemplars\":").unwrap()];
        assert_eq!(section, slo.to_json());
        assert!(slo.breached() && j.contains("\"health\":\"degraded\""));
    }

    #[test]
    fn health_degrades_on_invariant_violation() {
        let t = ReqTelemetry::new(SloSpec::default());
        let mut snap = StatsSnapshot::default();
        let (j, _) = t.snapshot_json(&snap, 0, 1, 0, 0, 0);
        assert!(j.contains("\"health\":\"ok\""));
        snap.post_deadline_responses = 1;
        let (j, _) = t.snapshot_json(&snap, 0, 1, 0, 0, 0);
        assert!(j.contains("\"health\":\"degraded\""));
    }
}
