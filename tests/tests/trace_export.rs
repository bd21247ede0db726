//! Chrome-trace export of a real pipeline run, validated by parsing the
//! JSON back with `amrviz-json`: the trace must be a well-formed
//! trace-event document with internally consistent events (durations fit
//! inside their parents, timestamps are sane, thread ids are present, and
//! no unbalanced B/E pairs exist — the exporter emits complete `X`
//! events precisely so there is nothing to mismatch).

use std::sync::Mutex;

use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, ErrorBound,
};
use amrviz_core::experiment::CompressorKind;
use amrviz_core::prelude::*;
use amrviz_integration_tests::warpx_like;
use amrviz_json::Json;
use amrviz_viz::extract_amr_isosurface;

/// The obs recorder is process-global; tests in this binary serialize.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs a small compress → decompress → extract pipeline with the recorder
/// on and returns the parsed chrome trace.
fn traced_pipeline_doc() -> Json {
    amrviz_obs::reset();
    amrviz_obs::enable();
    let built = warpx_like(42);
    let field = built.spec.eval_field();
    let cfg = AmrCodecConfig::default();
    let comp = CompressorKind::SzLr.instance();
    {
        let _root = amrviz_obs::span!("pipeline");
        let c = compress_hierarchy_field(
            &built.hierarchy,
            field,
            comp.as_ref(),
            ErrorBound::Rel(1e-3),
            &cfg,
        )
        .unwrap();
        let levels = decompress_hierarchy_field(&built.hierarchy, &c, comp.as_ref(), &cfg).unwrap();
        let _ = extract_amr_isosurface(&built.hierarchy, &levels, built.iso, IsoMethod::Resampling);
    }
    amrviz_obs::disable();
    let text = amrviz_obs::chrome::render_chrome_trace(
        &amrviz_obs::events_snapshot(),
        &amrviz_obs::counters_snapshot(),
    );
    amrviz_obs::reset();
    Json::parse(&text).expect("chrome trace must be valid JSON")
}

#[test]
fn pipeline_chrome_trace_is_well_formed() {
    let _g = lock();
    let doc = traced_pipeline_doc();
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(
        !events.is_empty(),
        "an instrumented pipeline must emit events"
    );

    let mut n_begin = 0u32;
    let mut n_end = 0u32;
    let mut n_complete = 0u32;
    let mut tids = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph present");
        match ph {
            "B" => n_begin += 1,
            "E" => n_end += 1,
            "X" => {
                n_complete += 1;
                let ts = ev.get("ts").and_then(Json::as_f64).expect("ts present");
                let dur = ev.get("dur").and_then(Json::as_f64).expect("dur present");
                assert!(ts >= 0.0, "negative timestamp {ts}");
                assert!(dur >= 0.0, "negative duration {dur}");
                assert!(
                    ev.get("name").and_then(Json::as_str).is_some(),
                    "X event without a name"
                );
                let tid = ev.get("tid").and_then(Json::as_f64).expect("tid present");
                tids.insert(tid as u64);
            }
            "M" | "C" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    // Begin/end events must pair up; the exporter uses complete (X) events
    // exclusively, so both counts are zero — but if that ever changes they
    // still have to balance.
    assert_eq!(n_begin, n_end, "unbalanced B/E pairs");
    assert!(n_complete > 0, "no complete events");
    assert!(!tids.is_empty(), "no thread ids recorded");

    // The pipeline root span is in the trace and spans every child: each
    // X event on the root's thread nests inside [root.ts, root.ts+dur].
    let root = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("pipeline"))
        .expect("root span exported");
    let root_ts = root.get("ts").and_then(Json::as_f64).unwrap();
    let root_dur = root.get("dur").and_then(Json::as_f64).unwrap();
    let root_tid = root.get("tid").and_then(Json::as_f64).unwrap();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        if ev.get("tid").and_then(Json::as_f64) != Some(root_tid) {
            continue;
        }
        let ts = ev.get("ts").and_then(Json::as_f64).unwrap();
        let dur = ev.get("dur").and_then(Json::as_f64).unwrap();
        assert!(
            ts >= root_ts && ts + dur <= root_ts + root_dur + 1.0,
            "event at ts={ts} dur={dur} escapes the root span [{root_ts}, {}]",
            root_ts + root_dur
        );
    }
}

#[test]
fn trace_timestamps_are_monotonic_per_thread() {
    let _g = lock();
    let doc = traced_pipeline_doc();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    // Group X events by tid; within a thread, sorted-by-ts events must be
    // non-decreasing (trivially true after sorting) *and* every start must
    // be >= the first event's start — i.e. no timestamp precedes the
    // recorder epoch.
    let mut by_tid: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let tid = ev.get("tid").and_then(Json::as_f64).unwrap() as u64;
        let ts = ev.get("ts").and_then(Json::as_f64).unwrap();
        by_tid.entry(tid).or_default().push(ts);
    }
    for (tid, mut ts) in by_tid {
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(ts[0] >= 0.0, "thread {tid} starts before the epoch");
        for w in ts.windows(2) {
            assert!(w[1] >= w[0], "thread {tid} timestamps not monotonic");
        }
    }

    // The process/thread metadata names are present so the trace renders
    // with labels in chrome://tracing.
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("name").and_then(Json::as_str) == Some("thread_name")
        }),
        "missing thread_name metadata events"
    );
}
