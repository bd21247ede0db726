//! Integration tests for `amrviz-obs`: concurrent recording across threads,
//! nested-span parenting, and chrome-trace export validity.
//!
//! Uses raw `std::thread` fan-out (not `amrviz-par`, which depends on this
//! crate) so the concurrency under test is independent of the worker pool.
//!
//! All tests share the process-global recorder, so each takes `lock()`.

use std::sync::Mutex;

use amrviz_json::Json;
use amrviz_obs::chrome::render_chrome_trace;
use amrviz_obs::{counters_snapshot, events_snapshot};

// Installed for real in this test binary so the span-level memory
// attribution tests measure actual allocations, exactly as the `amrviz`
// binary does.
#[global_allocator]
static ALLOC: amrviz_obs::mem::CountingAlloc = amrviz_obs::mem::CountingAlloc;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f(i)` for every `i in 0..n` across `workers` OS threads (strided
/// assignment) and returns the per-call results in index order.
fn fan_out<T: Send, F: Fn(usize) -> T + Sync>(n: usize, workers: usize, f: F) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let slots: Vec<Mutex<&mut [Option<T>]>> = out.chunks_mut(1).map(Mutex::new).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let f = &f;
            let slots = &slots;
            scope.spawn(move || {
                let mut i = w;
                while i < n {
                    slots[i].lock().unwrap()[0] = Some(f(i));
                    i += workers;
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("every index ran"))
        .collect()
}

#[test]
fn concurrent_spans_lose_nothing() {
    let _g = lock();
    amrviz_obs::reset();
    amrviz_obs::enable();

    const N: usize = 512;
    let sum: u64 = fan_out(N, 8, |i| {
        let mut sp = amrviz_obs::span!("work", level = i % 3);
        sp.add_field("item", i);
        amrviz_obs::counter!("items", 1u64);
        amrviz_obs::counter!("weight", i as u64);
        sp.finish();
        i as u64
    })
    .into_iter()
    .sum();
    amrviz_obs::disable();

    assert_eq!(sum, (N as u64 - 1) * N as u64 / 2);
    let events = amrviz_obs::events_snapshot();
    assert_eq!(events.len(), N, "lost or duplicated span events");

    // No torn events: every event is fully formed and ids are unique.
    let mut ids: Vec<u64> = events.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), N, "duplicate span ids");
    let mut items: Vec<i64> = events
        .iter()
        .map(|e| {
            assert_eq!(e.name, "work");
            e.fields
                .iter()
                .find(|(k, _)| *k == "item")
                .and_then(|(_, v)| v.as_int())
                .expect("item field present")
        })
        .collect();
    items.sort_unstable();
    let want: Vec<i64> = (0..N as i64).collect();
    assert_eq!(items, want, "some items were lost or torn");

    let counters = amrviz_obs::counters_snapshot();
    assert_eq!(counters["items"], N as u64);
    assert_eq!(counters["weight"], sum);
}

#[test]
fn nested_spans_are_parented() {
    let _g = lock();
    amrviz_obs::reset();
    amrviz_obs::enable();
    {
        let _outer = amrviz_obs::span!("outer");
        {
            let _mid = amrviz_obs::span!("mid", level = 0usize);
            let _inner = amrviz_obs::span!("inner");
        }
        let _sibling = amrviz_obs::span!("sibling");
    }
    amrviz_obs::disable();

    let events = amrviz_obs::events_snapshot();
    assert_eq!(events.len(), 4);
    let by_name = |n: &str| events.iter().find(|e| e.name == n).unwrap();
    let outer = by_name("outer");
    let mid = by_name("mid");
    let inner = by_name("inner");
    let sibling = by_name("sibling");
    assert_eq!(outer.parent, 0);
    assert_eq!(mid.parent, outer.id);
    assert_eq!(inner.parent, mid.id);
    assert_eq!(sibling.parent, outer.id);

    // The summary tree mirrors the nesting.
    let summary = amrviz_obs::summary::build(&events);
    assert_eq!(summary.roots.len(), 1);
    assert_eq!(summary.roots[0].key, "outer");
    let keys: Vec<&str> = summary.roots[0]
        .children
        .iter()
        .map(|c| c.key.as_str())
        .collect();
    assert!(keys.contains(&"mid [L0]"), "children: {keys:?}");
    assert!(keys.contains(&"sibling"), "children: {keys:?}");
}

#[test]
fn parenting_survives_thread_fan_out() {
    let _g = lock();
    amrviz_obs::reset();
    amrviz_obs::enable();
    {
        let _outer = amrviz_obs::span!("fan");
        fan_out(64, 4, |i| {
            let _sp = amrviz_obs::span!("leaf", level = i % 2);
        });
    }
    amrviz_obs::disable();
    let events = amrviz_obs::events_snapshot();
    assert_eq!(events.len(), 65);
    // Leaves that happened to run on the spawning thread are parented under
    // `fan`; leaves on worker threads are roots. Either way nothing is lost
    // and the summary accounts for all of them.
    let summary = amrviz_obs::summary::build(&events);
    let leaf_count: usize = count_key(&summary.roots, "leaf");
    assert_eq!(leaf_count, 64);
}

fn count_key(nodes: &[amrviz_obs::summary::SpanAgg], name: &str) -> usize {
    nodes
        .iter()
        .map(|n| {
            let own = if n.key.starts_with(name) { n.count } else { 0 };
            own + count_key(&n.children, name)
        })
        .sum()
}

#[test]
fn chrome_trace_export_is_valid_json_with_matched_events() {
    let _g = lock();
    amrviz_obs::reset();
    amrviz_obs::enable();
    {
        let _outer = amrviz_obs::span!("compress", level = 0usize, eb = 1e-3f64);
        let _inner = amrviz_obs::span!("quantize", codes = 100usize);
        amrviz_obs::counter!("bytes_out", 1234u64);
    }
    {
        let _sp = amrviz_obs::span!("extract", method = "dual-cell");
    }
    amrviz_obs::disable();

    let text = render_chrome_trace(&events_snapshot(), &counters_snapshot());
    let doc = Json::parse(&text).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut n_complete = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph present");
        match ph {
            // Complete events carry their own duration — nothing to match,
            // which is exactly why we emit X instead of B/E pairs.
            "X" => {
                n_complete += 1;
                let get = |k: &str| ev.get(k).cloned().unwrap_or(Json::Null);
                assert!(get("ts").as_f64().is_some(), "X event without ts");
                assert!(get("dur").as_f64().is_some(), "X event without dur");
                assert!(get("name").as_str().is_some());
                assert!(get("tid").as_f64().is_some());
            }
            "M" | "C" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert_eq!(n_complete, 3, "one X event per span");

    // Span fields surface as args...
    let find = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
    };
    let compress = find("compress").expect("compress span exported");
    let args = compress.get("args").expect("args present");
    assert_eq!(args.get("level").and_then(Json::as_i64), Some(0));
    let extract = find("extract").expect("extract span exported");
    assert_eq!(
        extract
            .get("args")
            .and_then(|a| a.get("method"))
            .and_then(Json::as_str),
        Some("dual-cell")
    );
    // ...and counters as C events.
    let counter = events
        .iter()
        .find(|e| {
            e.get("ph").and_then(Json::as_str) == Some("C")
                && e.get("name").and_then(Json::as_str) == Some("bytes_out")
        })
        .expect("counter exported");
    assert_eq!(
        counter
            .get("args")
            .and_then(|a| a.get("value"))
            .and_then(Json::as_i64),
        Some(1234)
    );
}

#[test]
fn reset_clears_everything() {
    let _g = lock();
    amrviz_obs::reset();
    amrviz_obs::enable();
    {
        let _sp = amrviz_obs::span!("temp");
        amrviz_obs::counter!("temp_counter", 1u64);
        amrviz_obs::histogram!("temp_hist", 42u64);
    }
    assert_eq!(amrviz_obs::histograms_snapshot().len(), 1);
    amrviz_obs::reset();
    amrviz_obs::disable();
    assert!(amrviz_obs::events_snapshot().is_empty());
    assert!(amrviz_obs::counters_snapshot().is_empty());
    assert!(amrviz_obs::histograms_snapshot().is_empty());
    // reset() also collapses the allocator's high-water mark: a fresh
    // baseline taken right after sees no residual peak.
    let base = amrviz_obs::mem::alloc_baseline();
    assert_eq!(amrviz_obs::mem::peak_since(base), 0);
}

#[test]
fn histogram_macro_aggregates_across_threads() {
    let _g = lock();
    amrviz_obs::reset();
    amrviz_obs::enable();
    const N: usize = 1000;
    fan_out(N, 8, |i| {
        amrviz_obs::histogram!("lat_us", (i + 1) as u64);
    });
    amrviz_obs::disable();
    let hists = amrviz_obs::histograms_snapshot();
    let h = &hists["lat_us"];
    assert_eq!(h.count(), N as u64);
    assert_eq!(h.sum(), (N as u64) * (N as u64 + 1) / 2);
    assert_eq!(h.min(), 1);
    assert_eq!(h.max(), N as u64);
    // Log-bucketing bounds the relative error of every percentile.
    let p50 = h.percentile(50.0);
    assert!((p50 - 500.0).abs() / 500.0 < 0.15, "p50={p50}");
    let p99 = h.percentile(99.0);
    assert!((p99 - 990.0).abs() / 990.0 < 0.15, "p99={p99}");
    amrviz_obs::reset();
}

#[test]
fn finish_returns_zero_when_disabled_mid_span() {
    let _g = lock();
    amrviz_obs::reset();
    amrviz_obs::enable();
    let sp = amrviz_obs::span!("cut_short");
    std::thread::sleep(std::time::Duration::from_millis(2));
    amrviz_obs::disable();
    assert_eq!(sp.finish(), 0.0, "disabled mid-span must report 0.0");
    assert!(
        amrviz_obs::events_snapshot().is_empty(),
        "disabled span must not be recorded"
    );
    // Counters and histograms are no-ops while disabled.
    amrviz_obs::counter!("ignored", 7u64);
    amrviz_obs::histogram!("ignored_hist", 1u64);
    assert!(amrviz_obs::counters_snapshot().is_empty());
    assert!(amrviz_obs::histograms_snapshot().is_empty());
}

#[test]
fn spans_attribute_peak_and_net_memory() {
    let _g = lock();
    amrviz_obs::reset();
    amrviz_obs::enable();
    assert!(amrviz_obs::mem::counting_alloc_installed());
    const BUF: usize = 4 << 20;
    {
        let _sp = amrviz_obs::span!("transient");
        let v = vec![1u8; BUF];
        assert_eq!(v[BUF - 1], 1);
        drop(v);
    }
    amrviz_obs::disable();
    let events = amrviz_obs::events_snapshot();
    let sp = events.iter().find(|e| e.name == "transient").unwrap();
    // The buffer was allocated *and freed* inside the span: the peak saw
    // it, the net did not.
    assert!(
        sp.mem_peak_bytes >= BUF as u64,
        "peak {} < {BUF}",
        sp.mem_peak_bytes
    );
    assert!(
        sp.mem_net_bytes.unsigned_abs() < BUF as u64 / 2,
        "net {} should not retain the dropped buffer",
        sp.mem_net_bytes
    );
    // The chrome exporter surfaces the same numbers as args.
    let text = render_chrome_trace(&events_snapshot(), &counters_snapshot());
    let doc = Json::parse(&text).unwrap();
    let ev = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("transient"))
        .expect("span exported");
    let peak = ev
        .get("args")
        .and_then(|a| a.get("mem.peak_bytes"))
        .and_then(Json::as_f64)
        .expect("mem.peak_bytes arg");
    assert_eq!(peak as u64, sp.mem_peak_bytes);
    amrviz_obs::reset();
}

#[test]
fn flame_roots_match_summary_and_chrome_trace() {
    let _g = lock();
    amrviz_obs::reset();
    amrviz_obs::enable();
    {
        let _a = amrviz_obs::span!("stage_a");
        {
            let _c = amrviz_obs::span!("child", level = 1usize);
        }
    }
    {
        let _b = amrviz_obs::span!("stage_b");
    }
    amrviz_obs::disable();
    let events = amrviz_obs::events_snapshot();

    // The collapsed stacks' root frames are the summary's roots (flame
    // sorts lexicographically, summary by time).
    let folded = amrviz_obs::flame::collapsed(&events);
    let mut flame_roots: Vec<&str> = folded
        .lines()
        .map(|l| l.rsplit_once(' ').unwrap().0.split(';').next().unwrap())
        .collect();
    flame_roots.dedup();
    let summary = amrviz_obs::summary::build(&events);
    let mut summary_roots: Vec<&str> = summary.roots.iter().map(|r| r.key.as_str()).collect();
    summary_roots.sort_unstable();
    assert_eq!(
        flame_roots, summary_roots,
        "flamegraph roots must mirror the summary tree"
    );

    // Every flame root is a span name present in the chrome trace.
    let text = render_chrome_trace(&events_snapshot(), &counters_snapshot());
    let doc = Json::parse(&text).unwrap();
    let names: Vec<String> = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    for root in &flame_roots {
        assert!(
            names.iter().any(|n| n == root),
            "flame root {root:?} missing from chrome trace names {names:?}"
        );
    }

    // Collapsed-stack output nests child under parent with a self count.
    assert!(folded.contains("stage_a;child [L1] "), "{folded}");
    assert!(
        folded.lines().any(|l| l.starts_with("stage_b ")),
        "{folded}"
    );

    // The HTML is self-contained: no external fetches.
    let html = amrviz_obs::flame::html(&events);
    assert!(html.contains("<html"));
    assert!(!html.contains("http://") && !html.contains("https://"));
    amrviz_obs::reset();
}
