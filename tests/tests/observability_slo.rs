//! Cross-crate tests for the request-centric observability stack: windowed
//! telemetry across slot-rotation boundaries under concurrent writers,
//! exemplar-reservoir determinism at different thread counts, and the SLO
//! burn-rate math the serve STATS endpoint reports.

use amrviz_serve::exemplar::{Exemplar, Reservoir};
use amrviz_serve::slo::{evaluate, SloSpec, WindowReading};
use amrviz_serve::telemetry::{ReqTelemetry, Stage, StageTimes, SLOTS, SLOT_SECS};
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
    // Tiny ring so the recording range (slots 0..=11 below) actually wraps.
    let h = Mutex::new(WindowedHistogram::with_slots(8));
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let h = &h;
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    // Interleave an "old" slot (4) and a "new" slot (11);
                    // 11 - 4 = 7 < 8 keeps both alive in the ring while
                    // forcing every slot in between to rotate.
                    let slot = if (w as u64 + i).is_multiple_of(2) {
                        4
                    } else {
                        11
                    };
                    h.lock().unwrap().record(slot, 100 + (i % 7));
                }
            });
        }
    });
    let h = h.lock().unwrap();
    let total = (WRITERS as u64) * PER_WRITER;
    assert_eq!(h.lifetime.count(), total, "lifetime sees every sample");
    // Window of 1 slot ending at 11: exactly the slot-11 half.
    assert_eq!(h.window_merged(11, 1).count(), total / 2);
    // Window covering slots 4..=11: everything.
    assert_eq!(h.window_merged(11, 8).count(), total);
    // A later window that excludes both recording slots is empty.
    assert_eq!(h.window_merged(30, 4).count(), 0);
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

/// Reservoir contents are a pure function of the offered *set*, so filling
/// it from a worker pool must give identical results at any thread count
/// and any interleaving.
#[test]
fn exemplar_reservoir_is_deterministic_across_thread_counts() {
    let offers: Vec<Exemplar> = (0..200u64)
        .map(|i| {
            let mut stages = StageTimes::default();
            stages[Stage::Decode] = Some(((i * 7919) % 10_000) / 2);
            Exemplar {
                trace: i + 1,
                total_us: (i * 7919) % 10_000, // pseudo-shuffled durations
                label: format!("ok key={i:016x}"),
                stages,
            }
        })
        .collect();

    let fill = |threads: usize| -> Vec<(u64, u64)> {
        amrviz_par::set_threads(threads);
        let res = Mutex::new(Reservoir::new(8));
        // amrviz_par::run schedules dynamically, so the offer order the
        // reservoir sees genuinely differs between runs and thread counts.
        amrviz_par::run(offers.len(), |i| {
            res.lock().unwrap().offer(offers[i].clone());
        });
        res.into_inner()
            .unwrap()
            .snapshot()
            .iter()
            .map(|e| (e.total_us, e.trace))
            .collect()
    };

    let serial = fill(1);
    let parallel = fill(4);
    assert_eq!(serial, parallel, "same retained set at 1 and 4 threads");
    assert_eq!(serial.len(), 8);
    // Slowest first, strictly descending by (total_us, trace).
    assert!(serial.windows(2).all(|w| w[0] > w[1]));
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
        let snap_json = t.snapshot_json(&amrviz_serve::StatsSnapshot::default(), 0, 1, 0, 0, 0);
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
