//! Streaming event journal: one bounded, drop-oldest queue drained by a
//! background writer thread into a JSONL file.
//!
//! Design constraints, in order:
//!
//! 1. **Bounded memory** — the queue holds at most [`CAP`] lines;
//!    overflow evicts the oldest line and bumps a drop counter that is
//!    itself exported (`obs.dropped_events`). A stalled disk can never
//!    balloon the process.
//! 2. **Crash safety** — each line is written with a single `write_all`,
//!    so a crash mid-run leaves a prefix of whole lines (line-atomic
//!    appends); `amrviz stats` can always parse what made it to disk.
//! 3. **Ordering** — one lock, the queue's, stamps `seq` as it enqueues
//!    and opens/closes the queue with the `journal_start`/`journal_stop`
//!    lines; each drain writes the whole queue under the file lock. The
//!    writer wakes once the pending lines span 50 ms, or on close.
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
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

use crate::lock_clean;

/// Journal schema identifier, written in the `journal_start` meta line.
pub const SCHEMA: &str = "amrviz-journal-v1";

/// Maximum buffered lines before drop-oldest kicks in.
pub const CAP: usize = 65_536;

/// The time pending lines must span before a push wakes the writer: a
/// wake-up per line cost each instrumented thread a futex syscall per span
/// and broke `repro obs-overhead`'s gate; this keeps a 50 ms poll's cadence.
const LINGER_NS: u64 = 50_000_000;

struct Queue {
    /// `(seq, ts_ns, kind, body)` in `seq` order; the drain renders each
    /// as `{"seq":…,"ts_ns":…,"kind":…,<body>}`.
    lines: VecDeque<(u64, u64, &'static str, String)>,
    /// The next `seq` to stamp; process-wide, never reset.
    next_seq: u64,
    /// Test hook: the writer leaves the queue alone; flush and stop drain.
    paused: bool,
}

/// Open exactly while [`ACTIVE`] is set; `ACTIVE` changes only under it.
static QUEUE: Mutex<Queue> = Mutex::new(Queue {
    lines: VecDeque::new(),
    next_seq: 0,
    paused: false,
});
/// Wakes the writer: a push that makes the queue [`due`], an unpause, a close.
static WAKE: Condvar = Condvar::new();
/// Held by `start` and `stop` throughout, so they never overlap.
static WRITER: Mutex<Option<JoinHandle<()>>> = Mutex::new(None);
/// Every drain takes the queue and writes it under this lock.
static FILE: Mutex<Option<File>> = Mutex::new(None);

/// Lock-free mirror of "the queue is open", for [`is_active`].
static ACTIVE: AtomicBool = AtomicBool::new(false);
static ENQUEUED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

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

/// Stamps and appends one line, evicting the oldest at [`CAP`].
fn push(q: &mut Queue, kind: &'static str, body: String) -> u64 {
    let seq = q.next_seq;
    q.next_seq += 1;
    if q.lines.len() >= CAP {
        q.lines.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    q.lines
        .push_back((seq, crate::epoch_elapsed_ns(), kind, body));
    ENQUEUED.fetch_add(1, Ordering::Relaxed);
    seq
}

/// Enqueues a pre-serialized JSON *object body* (the part between `{` and
/// `}`, without braces) under `kind`. Returns the line's `seq`, or `None`
/// when no journal is attached — also when `stop` closed the queue after
/// the caller's [`is_active`] probe passed.
pub(crate) fn push_raw(kind: &'static str, body: &str) -> Option<u64> {
    let body = body.to_owned();
    let mut q = lock_clean(&QUEUE);
    if !is_active() {
        return None;
    }
    let seq = push(&mut q, kind, body);
    if due(&q) {
        WAKE.notify_one();
    }
    Some(seq)
}

/// Whether the pending lines span [`LINGER_NS`]: the writer's cue to drain.
fn due(q: &Queue) -> bool {
    let span = q.lines.back().zip(q.lines.front()).map(|(b, a)| b.1 - a.1);
    span.is_some_and(|ns| ns >= LINGER_NS)
}

/// Emits a free-form journal event of `kind` with the given pre-rendered
/// JSON fields (e.g. `("target", "\"szlr\"")`). Values must already be
/// valid JSON; keys must be plain identifiers. The event is stamped with
/// the calling thread and the current trace id (if any). Returns the
/// assigned sequence number, or `None` when no journal is attached.
pub fn emit(kind: &'static str, fields: &[(&str, String)]) -> Option<u64> {
    if !is_active() {
        return None;
    }
    let mut body = String::new();
    let trace = crate::current_trace_id();
    if trace != 0 {
        let _ = write!(body, "\"trace\":\"{trace:016x}\",");
    }
    let _ = write!(body, "\"thread\":{}", crate::thread_id());
    for (k, v) in fields {
        let _ = write!(body, ",\"{k}\":{v}");
    }
    push_raw(kind, &body)
}

/// Synchronously drains all pending journal lines to the file and flushes
/// it. Safe to call from any thread at any time; a no-op when no journal
/// is attached. `amrviz serve` calls this during graceful drain.
pub fn flush() {
    let mut file = lock_clean(&FILE);
    let Some(file) = file.as_mut() else { return };
    let batch = std::mem::take(&mut lock_clean(&QUEUE).lines);
    for (seq, ts_ns, kind, body) in batch {
        let sep = if body.is_empty() { "" } else { "," };
        let line = format!("{{\"seq\":{seq},\"ts_ns\":{ts_ns},\"kind\":\"{kind}\"{sep}{body}}}\n");
        // One write_all per full line: a crash leaves whole lines only.
        let _ = file.write_all(line.as_bytes());
    }
    let _ = file.flush();
}

/// Test hook: pauses the background writer so queue overflow can be
/// exercised deterministically; [`flush`] and [`stop`] still drain.
#[doc(hidden)]
pub fn set_writer_paused(paused: bool) {
    lock_clean(&QUEUE).paused = paused;
    WAKE.notify_one();
}

/// Waits until the queue is [`due`] (and not paused) or has closed, then
/// drains; returns after the drain that follows the close.
fn write_loop() {
    let mut open = true;
    while open {
        let idle = |q: &mut Queue| is_active() && (q.paused || !due(q));
        let q = WAKE.wait_while(lock_clean(&QUEUE), idle);
        open = is_active();
        drop(q);
        flush();
    }
}

/// Attaches a journal file (append + create) and starts the background
/// writer. Errors if a journal is already active or the file cannot be
/// opened. Writes a `journal_start` meta line carrying the schema id.
pub fn start(path: &Path) -> Result<(), String> {
    let mut writer = lock_clean(&WRITER);
    if writer.is_some() {
        return Err("journal already active".into());
    }
    let file = File::options().create(true).append(true).open(path);
    let file = file.map_err(|e| format!("journal: cannot open {}: {e}", path.display()))?;
    *lock_clean(&FILE) = Some(file);
    let mut q = lock_clean(&QUEUE);
    // The writer waits for this lock, so it first sees the queue open.
    let handle = std::thread::Builder::new()
        .name("amrviz-journal".into())
        .spawn(write_loop)
        .map_err(|e| format!("journal: cannot spawn writer: {e}"))?;
    *writer = Some(handle);
    ACTIVE.store(true, Ordering::SeqCst);
    let start = format!(r#""event":"journal_start","schema":"{SCHEMA}""#);
    push(&mut q, "meta", start);
    Ok(())
}

/// Stops the journal: pushes `journal_stop` (with the totals before it) and
/// closes the queue in one critical section, then joins the writer, which
/// drains the rest. Safe to call when no journal is active (returns totals).
pub fn stop() -> JournalStats {
    let mut writer = lock_clean(&WRITER);
    if let Some(handle) = writer.take() {
        let mut q = lock_clean(&QUEUE);
        let (enqueued, dropped) = (enqueued(), dropped());
        let stop = format!(r#""event":"journal_stop","enqueued":{enqueued},"dropped":{dropped}"#);
        push(&mut q, "meta", stop);
        ACTIVE.store(false, Ordering::SeqCst);
        drop(q);
        WAKE.notify_one();
        let _ = handle.join();
        // Close the file so a later start() on a new path gets a fresh one.
        *lock_clean(&FILE) = None;
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

        // The drop counter is process-wide: `overflow_drops_oldest_and_counts`
        // may have run first.
        let dropped_before = dropped();
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
        assert_eq!(stats.dropped, dropped_before);

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
        let _ = std::fs::remove_dir_all(&dir);
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
        let _ = std::fs::remove_dir_all(&dir);
    }
}
