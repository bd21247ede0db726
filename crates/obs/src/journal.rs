//! Streaming event journal: one bounded, drop-oldest queue drained by a
//! background writer thread into a JSONL file.
//!
//! Design constraints, in order:
//!
//! 1. **Bounded memory** — the queue holds at most [`CAP`] lines;
//!    overflow evicts the oldest line and bumps a drop counter that is
//!    itself exported (`obs.dropped_events`). A stalled disk can never
//!    balloon the process.
//! 2. **Crash safety** — lines are pre-serialized at emit time and written
//!    with a single `write_all` per line, so a crash mid-run leaves a
//!    prefix of whole lines (line-atomic appends); `amrviz stats` can
//!    always parse what made it to disk.
//! 3. **Ordering** — a global sequence number is stamped at emit; lines
//!    are formatted outside the queue lock, so two producers can enqueue
//!    out of `seq` order, and the writer sorts each drained batch by `seq`
//!    before writing, so the file is totally ordered.
//!
//! Schema (`amrviz-journal-v1`): one JSON object per line with at least
//! `seq`, `ts_ns` (nanoseconds since recorder epoch), and `kind`. `span`
//! lines carry `name`/`trace`/`span`/`parent`/`thread`/`start_ns`/`dur_ns`
//! plus user fields; `meta` lines bracket the stream (`journal_start` /
//! `journal_stop` with schema + drop totals); other kinds (`fault`, ...)
//! are free-form via [`emit`]. Trace ids are hex *strings* — the journal
//! is consumed by `crates/json`, which parses numbers as f64 and would
//! silently round u64 ids.

use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::lock_clean;

/// Journal schema identifier, written in the `journal_start` meta line.
pub const SCHEMA: &str = "amrviz-journal-v1";

/// Maximum buffered lines before drop-oldest kicks in.
pub const CAP: usize = 65_536;

/// Writer poll interval while the journal is active.
const POLL: Duration = Duration::from_millis(50);

struct JournalState {
    /// Formatted lines waiting for the writer, with their `seq`.
    queue: Mutex<VecDeque<(u64, String)>>,
    writer: Mutex<Option<JoinHandle<()>>>,
    /// The journal file, shared between the background writer and
    /// synchronous [`flush`] callers. Drain-and-write always happens *under*
    /// this lock, which is what keeps the file totally seq-ordered even when
    /// a flush races the writer's poll.
    file: Mutex<Option<std::fs::File>>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STOPPING: AtomicBool = AtomicBool::new(false);
static WRITER_PAUSED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static ENQUEUED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn state() -> &'static JournalState {
    static STATE: OnceLock<JournalState> = OnceLock::new();
    STATE.get_or_init(|| JournalState {
        queue: Mutex::new(VecDeque::new()),
        writer: Mutex::new(None),
        file: Mutex::new(None),
    })
}

/// Cheap probe: is a journal file attached right now? Producers use this
/// to skip serialization entirely when nobody is listening.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Lines accepted into the journal since process start.
pub fn enqueued() -> u64 {
    ENQUEUED.load(Ordering::Relaxed)
}

/// Lines evicted by drop-oldest backpressure since process start.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Summary returned by [`stop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    pub enqueued: u64,
    pub dropped: u64,
}

/// Enqueues a pre-serialized JSON *object body* (the part between `{` and
/// `}`, without braces) under `kind`, stamping `seq`/`ts_ns`/`kind`.
/// No-op (returning `None`) when the journal is inactive.
pub(crate) fn push_raw(kind: &str, body: &str) -> Option<u64> {
    if !is_active() {
        return None;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let ts_ns = crate::epoch_elapsed_ns();
    let line = if body.is_empty() {
        format!("{{\"seq\":{seq},\"ts_ns\":{ts_ns},\"kind\":\"{kind}\"}}")
    } else {
        format!("{{\"seq\":{seq},\"ts_ns\":{ts_ns},\"kind\":\"{kind}\",{body}}}")
    };
    let mut q = lock_clean(&state().queue);
    if q.len() >= CAP {
        q.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    q.push_back((seq, line));
    ENQUEUED.fetch_add(1, Ordering::Relaxed);
    Some(seq)
}

/// Emits a free-form journal event of `kind` with the given pre-rendered
/// JSON fields (e.g. `("target", "\"szlr\"")`). Values must already be
/// valid JSON; keys must be plain identifiers. The event is stamped with
/// the calling thread and the current trace id (if any). Returns the
/// assigned sequence number, or `None` when no journal is attached.
pub fn emit(kind: &str, fields: &[(&str, String)]) -> Option<u64> {
    if !is_active() {
        return None;
    }
    let mut body = String::new();
    let trace = crate::current_trace_id();
    if trace != 0 {
        body.push_str(&format!("\"trace\":\"{trace:016x}\""));
    }
    let thread = crate::thread_id();
    body.push_str(&format!(
        "{}\"thread\":{thread}",
        if body.is_empty() { "" } else { "," }
    ));
    for (k, v) in fields {
        body.push_str(&format!(",\"{k}\":{v}"));
    }
    push_raw(kind, &body)
}

/// Synchronously drains all pending journal lines to the file in `seq`
/// order and flushes it. Safe to call from any thread at any time; a no-op
/// when no journal is attached. The drain and the write both happen under
/// the file lock, so the writer thread and a concurrent caller cannot
/// interleave batches out of seq order. `amrviz serve` calls this during
/// graceful drain, and the CLI teardown path calls it so short runs cannot
/// lose the queued tail between writer polls.
pub fn flush() {
    let mut guard = lock_clean(&state().file);
    if let Some(file) = guard.as_mut() {
        let mut batch = Vec::from(std::mem::take(&mut *lock_clean(&state().queue)));
        batch.sort_by_key(|(seq, _)| *seq);
        for (_, mut line) in batch {
            line.push('\n');
            // One write_all per full line: a crash leaves whole lines only.
            let _ = file.write_all(line.as_bytes());
        }
        let _ = file.flush();
    }
}

/// Test hook: pauses the background writer's polling so queue-overflow
/// behavior can be exercised deterministically. Synchronous [`flush`] and
/// [`stop`] still drain.
#[doc(hidden)]
pub fn set_writer_paused(paused: bool) {
    WRITER_PAUSED.store(paused, Ordering::SeqCst);
}

/// Attaches a journal file (append + create) and starts the background
/// writer. Errors if a journal is already active or the file cannot be
/// opened. Writes a `journal_start` meta line carrying the schema id.
pub fn start(path: &Path) -> Result<(), String> {
    if ACTIVE.swap(true, Ordering::SeqCst) {
        return Err("journal already active".into());
    }
    STOPPING.store(false, Ordering::SeqCst);
    let file = match OpenOptions::new().create(true).append(true).open(path) {
        Ok(f) => f,
        Err(e) => {
            ACTIVE.store(false, Ordering::SeqCst);
            return Err(format!("journal: cannot open {}: {e}", path.display()));
        }
    };
    *lock_clean(&state().file) = Some(file);
    push_raw(
        "meta",
        &format!("\"event\":\"journal_start\",\"schema\":\"{SCHEMA}\""),
    );
    let handle = std::thread::Builder::new()
        .name("amrviz-journal".into())
        .spawn(move || loop {
            if !WRITER_PAUSED.load(Ordering::SeqCst) {
                flush();
            }
            if STOPPING.load(Ordering::SeqCst) {
                // Final drain: everything emitted before stop() flipped
                // ACTIVE off is already queued. Runs even when paused —
                // stop always lands the tail.
                flush();
                return;
            }
            std::thread::sleep(POLL);
        })
        .map_err(|e| format!("journal: cannot spawn writer: {e}"))?;
    *lock_clean(&state().writer) = Some(handle);
    Ok(())
}

/// Stops the journal: emits a `journal_stop` meta line with drop totals,
/// detaches producers, and joins the writer (flushing everything queued).
/// Safe to call when no journal is active (returns current totals).
pub fn stop() -> JournalStats {
    if is_active() {
        push_raw(
            "meta",
            &format!(
                "\"event\":\"journal_stop\",\"enqueued\":{},\"dropped\":{}",
                enqueued(),
                dropped()
            ),
        );
        ACTIVE.store(false, Ordering::SeqCst);
        STOPPING.store(true, Ordering::SeqCst);
        if let Some(h) = lock_clean(&state().writer).take() {
            let _ = h.join();
        }
        // Close the file so a later start() on a new path gets a fresh one.
        *lock_clean(&state().file) = None;
    }
    JournalStats {
        enqueued: enqueued(),
        dropped: dropped(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_journal_is_a_cheap_noop() {
        let _g = crate::tests::guard();
        assert!(!is_active());
        assert_eq!(push_raw("span", "\"name\":\"x\""), None);
        assert_eq!(emit("fault", &[("iter", "1".into())]), None);
    }

    #[test]
    fn journal_roundtrip_writes_ordered_parseable_lines() {
        let _g = crate::tests::guard();
        let dir = std::env::temp_dir().join(format!("amrviz_j_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);

        start(&path).unwrap();
        assert!(is_active());
        assert!(start(&path).is_err(), "double start must fail");
        for i in 0..50u64 {
            push_raw("test", &format!("\"i\":{i}"));
        }
        emit(
            "fault",
            &[("target", "\"szlr\"".into()), ("iter", "3".into())],
        );
        let stats = stop();
        assert!(!is_active());
        assert!(stats.enqueued >= 52, "start meta + 50 + fault + stop meta");
        assert_eq!(stats.dropped, 0);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // start meta, 50 test lines, 1 fault, stop meta.
        assert!(lines.len() >= 53, "got {} lines", lines.len());
        assert!(lines[0].contains("journal_start"));
        assert!(lines[0].contains(SCHEMA));
        assert!(lines.last().unwrap().contains("journal_stop"));
        // Total order by seq.
        let mut prev = -1i64;
        for l in &lines {
            assert!(l.starts_with("{\"seq\":"), "line must open with seq: {l}");
            let seq: i64 = l["{\"seq\":".len()..]
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(seq > prev, "seq must be strictly increasing");
            prev = seq;
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let _g = crate::tests::guard();
        let dir = std::env::temp_dir().join(format!("amrviz_jo_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overflow.jsonl");
        let _ = std::fs::remove_file(&path);

        let dropped_before = dropped();
        // Paused before start: nothing drains until stop, so the queue's
        // contents are fully determined by the pushes below.
        set_writer_paused(true);
        start(&path).unwrap();
        const EXTRA: usize = 64;
        for i in 0..CAP + EXTRA {
            push_raw("flood", &format!("\"i\":{i}"));
        }
        // The start meta line plus the flood overfilled the queue by
        // EXTRA + 1 lines, evicted oldest first.
        assert_eq!(dropped() - dropped_before, (EXTRA + 1) as u64);
        let stats = stop();
        set_writer_paused(false);
        // The stop meta line evicts one more flood line.
        assert_eq!(stats.dropped - dropped_before, (EXTRA + 2) as u64);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), CAP);
        assert!(
            lines[0].ends_with(&format!(",\"i\":{}}}", EXTRA + 1)),
            "the oldest lines went first: {}",
            lines[0]
        );
        assert!(lines[CAP - 1].contains("journal_stop"));
        for l in &lines {
            assert!(
                l.starts_with('{') && l.ends_with('}'),
                "whole lines only: {l}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
