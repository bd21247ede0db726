//! Continuous-telemetry integration: trace trees are structurally
//! invariant under the worker-pool width, journal files parse line by line
//! with `amrviz-json` and stitch back into the same trees.

use std::collections::BTreeMap;
use std::sync::Mutex;

use amrviz_json::Json;

/// The obs recorder is process-global; tests in this binary serialize.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small fan-out workload: `roots` sequential root spans, each running 8
/// parallel tasks through the worker pool, each task recording one `work`
/// span (stitched into the submitting root's trace by `amrviz_par`).
fn fan_out_workload(roots: usize) {
    for r in 0..roots {
        let _root = amrviz_obs::span!("job", index = r);
        let partials = amrviz_par::run(8, |i| {
            let sp = amrviz_obs::span!("work", task = i);
            let mut acc = 0u64;
            for k in 0..2_000u64 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(k ^ i as u64);
            }
            sp.finish();
            acc
        });
        std::hint::black_box(partials);
    }
}

/// Canonical, id-free shape of every recorded trace: for each trace, the
/// sorted multiset of root-to-span name paths; traces themselves sorted.
/// Two runs of the same workload produce equal shapes at any pool width.
fn trace_shapes(events: &[amrviz_obs::SpanEvent]) -> Vec<Vec<String>> {
    let by_id: BTreeMap<u64, &amrviz_obs::SpanEvent> = events.iter().map(|e| (e.id, e)).collect();
    let mut per_trace: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for e in events {
        let mut path = vec![e.name.to_string()];
        let mut cur = e.parent;
        while cur != 0 {
            let Some(p) = by_id.get(&cur) else { break };
            path.push(p.name.to_string());
            cur = p.parent;
        }
        path.reverse();
        per_trace
            .entry(e.trace_id)
            .or_default()
            .push(path.join("/"));
    }
    let mut shapes: Vec<Vec<String>> = per_trace
        .into_values()
        .map(|mut v| {
            v.sort();
            v
        })
        .collect();
    shapes.sort();
    shapes
}

fn record_workload(threads: usize, roots: usize) -> Vec<amrviz_obs::SpanEvent> {
    let prior = amrviz_par::threads();
    amrviz_par::set_threads(threads);
    amrviz_obs::reset();
    amrviz_obs::enable();
    fan_out_workload(roots);
    amrviz_obs::disable();
    let events = amrviz_obs::events_snapshot();
    amrviz_obs::reset();
    amrviz_par::set_threads(prior);
    events
}

#[test]
fn trace_trees_are_invariant_under_pool_width() {
    let _g = lock();
    let one = record_workload(1, 3);
    let four = record_workload(4, 3);

    let s1 = trace_shapes(&one);
    let s4 = trace_shapes(&four);
    assert_eq!(s1.len(), 3, "3 roots -> 3 traces: {s1:?}");
    assert_eq!(
        s1, s4,
        "the same workload must produce structurally identical trace trees \
         at 1 and 4 threads"
    );
    // Each trace holds the root plus its 8 pool tasks, every task stitched
    // *under* the root (path job/work), not floating as its own root.
    for shape in &s1 {
        assert_eq!(shape.len(), 9, "job + 8 work spans: {shape:?}");
        assert_eq!(shape.iter().filter(|p| *p == "job").count(), 1);
        assert_eq!(shape.iter().filter(|p| *p == "job/work").count(), 8);
    }
    // Worker spans must carry the submitting root's trace even though they
    // ran on pool threads.
    for e in four.iter() {
        assert_ne!(e.trace_id, 0, "span {} lost its trace", e.name);
    }
}

#[test]
fn journal_roundtrips_span_trees_through_jsonl() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("amrviz_telemetry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&path);

    let prior = amrviz_par::threads();
    amrviz_par::set_threads(4);
    amrviz_obs::reset();
    amrviz_obs::enable();
    amrviz_obs::journal::start(&path).unwrap();
    fan_out_workload(2);
    let stats = amrviz_obs::journal::stop();
    amrviz_obs::disable();
    amrviz_obs::reset();
    amrviz_par::set_threads(prior);

    assert_eq!(stats.dropped, 0, "tiny workload must not overflow shards");
    let text = std::fs::read_to_string(&path).unwrap();

    // Every line parses (the CI well-formedness contract) and span lines
    // stitch into trees: each trace has exactly one parentless root and
    // every child's parent id exists within the same trace.
    let mut spans: BTreeMap<String, Vec<(u64, u64, String)>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        let kind = v.get("kind").and_then(Json::as_str).expect("kind");
        if kind != "span" {
            continue;
        }
        let trace = v
            .get("trace")
            .and_then(Json::as_str)
            .expect("trace")
            .to_string();
        assert_eq!(trace.len(), 16, "trace ids are 16-hex strings: {trace}");
        spans.entry(trace).or_default().push((
            v.get("span").and_then(Json::as_u64).expect("span id"),
            v.get("parent").and_then(Json::as_u64).expect("parent id"),
            v.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string(),
        ));
    }
    assert_eq!(spans.len(), 2, "2 roots -> 2 traces in the journal");
    for (trace, list) in &spans {
        assert_eq!(list.len(), 9, "trace {trace}: job + 8 work spans");
        let ids: std::collections::BTreeSet<u64> = list.iter().map(|s| s.0).collect();
        let roots: Vec<_> = list.iter().filter(|s| s.1 == 0).collect();
        assert_eq!(roots.len(), 1, "trace {trace}: exactly one root");
        assert_eq!(roots[0].2, "job");
        for (id, parent, name) in list {
            if *parent != 0 {
                assert!(
                    ids.contains(parent),
                    "trace {trace}: span {id} ({name}) has dangling parent {parent}"
                );
            }
        }
    }
    // Bracketing meta lines are present.
    assert!(text.lines().next().unwrap().contains("journal_start"));
    assert!(text.lines().last().unwrap().contains("journal_stop"));
    let _ = std::fs::remove_dir_all(&dir);
}
