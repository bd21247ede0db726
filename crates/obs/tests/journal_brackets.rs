//! Each journal file is bracketed by its own `journal_start` and
//! `journal_stop` while producers never pause.
//!
//! Producer threads emit continuously while the main thread runs start →
//! stop cycles over fresh files. A line pushed around a `stop` must land
//! before that journal's `journal_stop` or not at all: never after it, and
//! never in the next journal ahead of its `journal_start`.
//!
//! This is an integration test (own process) so no other test can race the
//! global journal state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use amrviz_obs::journal;

#[test]
fn every_file_opens_with_start_and_closes_with_stop() {
    let dir = std::env::temp_dir().join(format!("amrviz_jbr_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    const PRODUCERS: usize = 3;
    const CYCLES: usize = 40;
    let producing = AtomicBool::new(true);
    let paths: Vec<_> = (0..CYCLES)
        .map(|c| dir.join(format!("cycle_{c}.jsonl")))
        .collect();
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let producing = &producing;
            s.spawn(move || {
                let mut i = 0u64;
                while producing.load(Ordering::Relaxed) {
                    if journal::emit("cycle", &[("p", p.to_string()), ("i", i.to_string())])
                        .is_none()
                    {
                        std::thread::yield_now();
                    }
                    i += 1;
                }
            });
        }
        for path in &paths {
            let _ = std::fs::remove_file(path);
            journal::start(path).unwrap();
            std::thread::sleep(Duration::from_millis(5));
            journal::stop();
        }
        producing.store(false, Ordering::Relaxed);
    });

    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let name = path.display();
        assert!(
            lines
                .first()
                .is_some_and(|l| l.contains("\"event\":\"journal_start\"")),
            "{name}: first line is not journal_start: {:?}",
            lines.first()
        );
        assert!(
            lines
                .last()
                .is_some_and(|l| l.contains("\"event\":\"journal_stop\"")),
            "{name}: last line is not journal_stop: {:?}",
            lines.last()
        );
        let brackets = lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"meta\""))
            .count();
        assert_eq!(brackets, 2, "{name}: one start and one stop line");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
