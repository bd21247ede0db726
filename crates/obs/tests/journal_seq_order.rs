//! The journal file is in `seq` order while producers race a caller of
//! [`journal::flush`].
//!
//! Several threads emit at once while one more thread drains the queue
//! synchronously in a loop, so the background writer and `flush` keep
//! taking batches mid-stream. Every line's `seq` must be larger than the
//! one before it.
//!
//! This is an integration test (own process) so no other test can race the
//! global journal state.

use std::sync::atomic::{AtomicBool, Ordering};

use amrviz_obs::journal;

/// The `seq` value a journal line opens with.
fn seq_of(line: &str) -> u64 {
    let rest = line
        .strip_prefix("{\"seq\":")
        .unwrap_or_else(|| panic!("line must open with seq: {line}"));
    rest.split(',').next().unwrap().parse().unwrap()
}

#[test]
fn concurrent_emits_and_flushes_keep_the_file_seq_ordered() {
    let dir = std::env::temp_dir().join(format!("amrviz_jso_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("order.jsonl");
    let _ = std::fs::remove_file(&path);

    const PRODUCERS: usize = 6;
    const EMITS: usize = 20_000;
    let dropped_before = journal::dropped();
    journal::start(&path).unwrap();
    let producing = AtomicBool::new(true);
    std::thread::scope(|s| {
        s.spawn(|| {
            while producing.load(Ordering::Relaxed) {
                journal::flush();
            }
        });
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                s.spawn(move || {
                    for i in 0..EMITS {
                        journal::emit("order", &[("p", p.to_string()), ("i", i.to_string())]);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        producing.store(false, Ordering::Relaxed);
    });
    let dropped = journal::stop().dropped - dropped_before;

    let text = std::fs::read_to_string(&path).unwrap();
    let seqs: Vec<u64> = text.lines().map(seq_of).collect();
    // Start meta, every emit and stop meta, less what drop-oldest evicted.
    assert_eq!(seqs.len() as u64, (PRODUCERS * EMITS + 2) as u64 - dropped);
    let inversions = seqs.windows(2).filter(|w| w[1] <= w[0]).count();
    assert_eq!(inversions, 0, "seq must strictly increase down the file");
    let _ = std::fs::remove_dir_all(&dir);
}
