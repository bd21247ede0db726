//! Cross-crate tests for the request-centric observability stack: windowed
//! telemetry across slot-rotation boundaries under concurrent writers,
//! tail-exemplar determinism at different thread counts, and the SLO
//! burn-rate math the serve STATS endpoint reports.

use amrviz_serve::slo::{evaluate, SloSpec, WindowReading};
use amrviz_serve::telemetry::{ReqTelemetry, Stage, StageTimes, EXEMPLAR_CAP, SLOTS, SLOT_SECS};
use amrviz_serve::window::WindowedHistogram;
use amrviz_serve::Status;
use std::sync::Mutex;

/// Concurrent writers recording on both sides of a slot-rotation boundary:
/// the windowed view must attribute every sample to the correct side, and
/// the lifetime view must see all of them — no samples lost or double
/// counted when a slot is lazily recycled.
#[test]
fn windowed_snapshot_across_rotation_under_concurrent_writers() {
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 500;
    // An "old" and a "new" slot one ring apart, both still alive.
    const OLD: u64 = 4;
    const NEW: u64 = OLD + SLOTS as u64 - 1;
    let h = Mutex::new(WindowedHistogram::default());
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let h = &h;
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    let slot = if (w as u64 + i).is_multiple_of(2) {
                        OLD
                    } else {
                        NEW
                    };
                    h.lock().unwrap().record(slot, 100 + (i % 7));
                }
            });
        }
    });
    let mut h = h.into_inner().unwrap();
    let total = (WRITERS as u64) * PER_WRITER;
    assert_eq!(h.lifetime.count(), total, "lifetime sees every sample");
    // Window of 1 slot ending at NEW: exactly the NEW half.
    assert_eq!(h.window_merged(NEW, 1).count(), total / 2);
    // Window covering slots OLD..=NEW, the whole ring: everything.
    assert_eq!(h.window_merged(NEW, SLOTS as u64).count(), total);
    // A later window that excludes both recording slots is empty.
    assert_eq!(h.window_merged(NEW + 30, 4).count(), 0);
    // One ring past OLD wraps onto its entry, which starts empty.
    h.record(OLD + SLOTS as u64, 1);
    assert_eq!(h.window_merged(OLD + SLOTS as u64, 1).count(), 1);
    let ring = h.window_merged(OLD + SLOTS as u64, SLOTS as u64);
    assert_eq!(ring.count(), total / 2 + 1, "the OLD half aged out");
    assert_eq!(h.lifetime.count(), total + 1);
}

/// The serve telemetry's SLO windows are slot-ring views: a failure burst
/// must age out of the short window while the long window still sees it.
#[test]
fn slo_windows_age_out_across_ring_rotation() {
    let t = ReqTelemetry::new(SloSpec::parse("avail>99").unwrap());
    let w5m_slots = 300 / SLOT_SECS; // 60
    for _ in 0..30 {
        t.record_at(0, Status::Timeout, 5_000, None, 0, 0);
    }
    for _ in 0..70 {
        t.record_at(w5m_slots + 10, Status::Ok, 200, None, 0, 0);
    }
    let r = t.slo_report_at(w5m_slots + 10);
    let (w5m, w1h) = (&r.windows[0], &r.windows[1]);
    assert_eq!(
        w5m.reading.total, 70,
        "failure burst aged out of the 5m window"
    );
    assert_eq!(w5m.reading.good, 70);
    assert_eq!(
        w1h.reading.total, 100,
        "1h window still remembers the burst"
    );
    assert_eq!(w1h.reading.good, 70);
    assert!(w1h.avail_exceeded && !w5m.avail_exceeded);
    assert!(
        !r.breached(),
        "AND-of-windows: recovered short window vetoes"
    );
    // Sanity: the ring is big enough for the 1h window.
    assert!(SLOTS as u64 * SLOT_SECS >= 3600);
}

/// The retained tail is a pure function of the offered *set*, so GETs
/// recorded from a worker pool must leave the same exemplars at any thread
/// count and any interleaving — also when the floor is a tie on duration.
#[test]
fn exemplar_reservoir_is_deterministic_across_thread_counts() {
    // `(total_us, trace)`: ten durations, about twenty GETs each, so the
    // whole tail is a tie at 9 ms that only the trace id can break.
    let offers: Vec<(u64, u64)> = (0..200u64)
        .map(|i| (((i * 7919) % 10) * 1000, i + 1))
        .collect();
    let mut expect = offers.clone();
    expect.sort_unstable_by(|a, b| b.cmp(a));
    expect.truncate(EXEMPLAR_CAP);
    assert!(expect.iter().all(|&(us, _)| us == 9000));

    let fill = |threads: usize| -> Vec<(u64, u64)> {
        amrviz_par::set_threads(threads);
        let t = ReqTelemetry::new(SloSpec::default());
        // amrviz_par::run schedules dynamically, so the order the tail sees
        // genuinely differs between runs and thread counts.
        amrviz_par::run(offers.len(), |i| {
            let (total_us, trace) = offers[i];
            let mut stages = StageTimes::default();
            stages[Stage::Decode] = Some(total_us / 2);
            t.record_at(0, Status::Ok, total_us, Some(&stages), trace, i as u64);
        });
        let (json, _) = t.snapshot_json(&amrviz_serve::StatsSnapshot::default(), 0, 1, 0, 0, 0);
        let doc = amrviz_json::Json::parse(&json).unwrap();
        let exemplars = doc.get("exemplars").unwrap().as_arr().unwrap();
        exemplars
            .iter()
            .map(|e| {
                let trace = e.get("trace").unwrap().as_str().unwrap();
                let total_us = e.get("total_us").unwrap().as_u64().unwrap();
                (total_us, u64::from_str_radix(trace, 16).unwrap())
            })
            .collect()
    };

    assert_eq!(fill(1), expect, "1 thread keeps the highest traces");
    assert_eq!(fill(4), expect, "4 threads keep the highest traces");
}

/// Tail recording through ReqTelemetry keeps the same determinism: the
/// retained exemplars and their stage attribution do not depend on the
/// order concurrent workers finish.
#[test]
fn telemetry_exemplars_are_order_independent() {
    let record_all = |order: &[usize]| -> Vec<String> {
        let t = ReqTelemetry::new(SloSpec::default());
        for &i in order {
            let mut st = StageTimes::default();
            st[Stage::QueueWait] = Some(5);
            st[Stage::Decode] = Some((i as u64) * 90);
            st[Stage::Write] = Some(10);
            t.record_at(
                1,
                Status::Ok,
                (i as u64) * 100 + 7,
                Some(&st),
                i as u64 + 1,
                i as u64,
            );
        }
        let (snap_json, _) =
            t.snapshot_json(&amrviz_serve::StatsSnapshot::default(), 0, 1, 0, 0, 0);
        let doc = amrviz_json::Json::parse(&snap_json).unwrap();
        doc.get("exemplars")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| {
                format!(
                    "{}:{}",
                    e.get("trace").unwrap().as_str().unwrap(),
                    e.get("total_us").unwrap().as_u64().unwrap()
                )
            })
            .collect()
    };
    let fwd: Vec<usize> = (0..50).collect();
    let rev: Vec<usize> = (0..50).rev().collect();
    assert_eq!(record_all(&fwd), record_all(&rev));
}

/// Burn-rate math end to end against hand-computed numbers — the same
/// numbers the golden journal fixture (tests/golden/slo_fixture.jsonl)
/// encodes, so CI's `amrviz stats --slo` greps and this test agree on one
/// ground truth.
#[test]
fn burn_rate_matches_fixture_numbers() {
    // 18 good of 20 at a 99% target: 10% bad over a 1% budget = burn 10.
    let spec = SloSpec::parse("p99<200,avail>99").unwrap();
    let reading = WindowReading {
        label: "journal",
        secs: 0,
        good: 18,
        total: 20,
        p99_us: 250_000,
    };
    let r = evaluate(&spec, &[reading]);
    assert!((r.windows[0].burn - 10.0).abs() < 1e-9);
    assert!(r.avail_breach && r.latency_breach && r.breached());
    let json = r.to_json();
    assert!(json.contains("\"burn\":10.00"), "{json}");
    assert!(json.contains("\"avail_breach\":true"), "{json}");

    // Same traffic against a laxer spec: no breach.
    let lax = SloSpec::parse("p99<500,avail>80").unwrap();
    let r = evaluate(
        &lax,
        &[WindowReading {
            label: "journal",
            secs: 0,
            good: 18,
            total: 20,
            p99_us: 250_000,
        }],
    );
    assert!(!r.breached());
}
