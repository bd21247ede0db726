//! Metric exposition: point-in-time snapshots of the recorder as one
//! JSON document, plus a periodic background snapshot writer.
//!
//! The document (`amrviz-metrics-v2`) carries the *lifetime* aggregates
//! (since the last [`crate::reset`]) plus the recorder's `obs.*`
//! self-accounting meta-metrics. Consumed by `amrviz stats`.
//! Rolling-window views are not here: the one process that runs long
//! enough to want them answers them in `serve`'s STATS snapshot.
//!
//! [`write_snapshot`] is crash-safe: the document is written to a sibling
//! temp file and atomically renamed over the target, so a reader polling
//! the file mid-run never sees a torn document.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::hist::Histogram;
use crate::lock_clean;

/// Metrics snapshot schema identifier.
pub const METRICS_SCHEMA: &str = "amrviz-metrics-v2";

/// Formats a float as plain decimal (JSON-safe; integral values render
/// with a trailing `.0`, non-finite values as `0.0`).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    } else {
        "0.0".to_string()
    }
}

/// Renders a histogram's summary stats (count/sum/min/max/mean + p50/p90/
/// p99) as one JSON object. Shared by the metrics snapshot and the serve
/// STATS endpoint so both report identical shapes.
pub fn hist_stats_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
         \"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        fmt_f64(h.mean()),
        fmt_f64(h.percentile(50.0)),
        fmt_f64(h.percentile(90.0)),
        fmt_f64(h.percentile(99.0)),
    )
}

/// Renders the full recorder state as one `amrviz-metrics-v2` JSON
/// document (single line, suitable for atomic replacement).
pub fn snapshot_json() -> String {
    let meta = crate::meta_snapshot();

    let mut out = format!(
        "{{\"schema\":\"{METRICS_SCHEMA}\",\"uptime_ns\":{}",
        crate::epoch_elapsed_ns(),
    );

    // One shape per section: `"<name>":{"<member>":<value>}` for each metric.
    let mut section = |key: &str, member: &str, metrics: Vec<(&str, String)>| {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v)| format!("\"{}\":{{\"{member}\":{v}}}", crate::json_escape(name)))
            .collect();
        out.push_str(&format!(",\"{key}\":{{{}}}", body.join(",")));
    };
    let counters = crate::counters_snapshot();
    let counters = counters.iter().map(|(n, v)| (*n, v.to_string()));
    section("counters", "lifetime", counters.collect());
    let gauges = crate::gauges_snapshot();
    let gauges = gauges.iter().map(|(n, v)| (*n, fmt_f64(*v)));
    section("gauges", "last", gauges.collect());
    let hists = crate::histograms_snapshot();
    let hists = hists.iter().map(|(n, h)| (*n, hist_stats_json(h)));
    section("histograms", "lifetime", hists.collect());

    out.push_str(&format!(
        ",\"meta\":{{\"overhead_us\":{},\"spans_recorded\":{},\
         \"traces_started\":{},\"dropped_events\":{},\"journal_enqueued\":{}}}}}",
        meta.overhead_us,
        meta.spans_recorded,
        meta.traces_started,
        meta.journal_dropped,
        meta.journal_enqueued,
    ));
    out
}

/// Writes the JSON snapshot to `path` via temp-file + atomic rename so
/// concurrent readers never observe a torn document.
pub fn write_snapshot(path: &Path) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(snapshot_json().as_bytes())?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

static WRITER_ACTIVE: AtomicBool = AtomicBool::new(false);
static WRITER_STOP: AtomicBool = AtomicBool::new(false);

fn writer_handle() -> &'static Mutex<Option<JoinHandle<()>>> {
    static H: OnceLock<Mutex<Option<JoinHandle<()>>>> = OnceLock::new();
    H.get_or_init(|| Mutex::new(None))
}

/// Starts the periodic snapshot writer: every `interval` the current
/// recorder state is flushed to `path` via
/// [`write_snapshot`]. Errors if a writer is already running.
pub fn writer_start(path: PathBuf, interval: Duration) -> Result<(), String> {
    if WRITER_ACTIVE.swap(true, Ordering::SeqCst) {
        return Err("metrics writer already active".into());
    }
    WRITER_STOP.store(false, Ordering::SeqCst);
    // Fail fast on an unwritable path before detaching the thread.
    write_snapshot(&path).map_err(|e| {
        WRITER_ACTIVE.store(false, Ordering::SeqCst);
        format!("metrics: cannot write {}: {e}", path.display())
    })?;
    let interval = interval.max(Duration::from_millis(10));
    let handle = std::thread::Builder::new()
        .name("amrviz-metrics".into())
        .spawn(move || {
            // Poll the stop flag at a finer grain than the interval so
            // shutdown never blocks for a full period.
            let tick = Duration::from_millis(25).min(interval);
            let mut elapsed = Duration::ZERO;
            loop {
                if WRITER_STOP.load(Ordering::SeqCst) {
                    let _ = write_snapshot(&path);
                    return;
                }
                std::thread::sleep(tick);
                elapsed += tick;
                if elapsed >= interval {
                    elapsed = Duration::ZERO;
                    let _ = write_snapshot(&path);
                }
            }
        })
        .map_err(|e| {
            WRITER_ACTIVE.store(false, Ordering::SeqCst);
            format!("metrics: cannot spawn writer: {e}")
        })?;
    *lock_clean(writer_handle()) = Some(handle);
    Ok(())
}

/// Stops the periodic writer, flushing one final snapshot. No-op when no
/// writer is running.
pub fn writer_stop() {
    if WRITER_ACTIVE.load(Ordering::SeqCst) {
        WRITER_STOP.store(true, Ordering::SeqCst);
        if let Some(h) = lock_clean(writer_handle()).take() {
            let _ = h.join();
        }
        WRITER_ACTIVE.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_shapes_are_stable() {
        let _g = crate::tests::guard();
        crate::reset();
        crate::enable();
        crate::counter_add("exp.bytes", 10);
        crate::gauge_set("exp.eb", 0.5);
        crate::histogram_record("exp.lat", 100);
        crate::disable();
        let j = snapshot_json();
        assert!(j.starts_with("{\"schema\":\"amrviz-metrics-v2\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        assert!(j.contains("\"exp.bytes\":{\"lifetime\":10}"));
        assert!(j.contains("\"exp.eb\""));
        assert!(j.contains("\"p99\""));
        assert!(j.contains("\"meta\""));
    }

    #[test]
    fn write_snapshot_is_atomic_and_leaves_no_sibling() {
        let _g = crate::tests::guard();
        crate::reset();
        let dir = std::env::temp_dir().join(format!("amrviz_m_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        write_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(METRICS_SCHEMA));
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(
            left.len(),
            1,
            "temp file renamed away, no sibling: {left:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_writer_produces_midrun_snapshots() {
        let _g = crate::tests::guard();
        crate::reset();
        crate::enable();
        let dir = std::env::temp_dir().join(format!("amrviz_mw_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.json");
        writer_start(path.clone(), Duration::from_millis(30)).unwrap();
        assert!(
            writer_start(path.clone(), Duration::from_millis(30)).is_err(),
            "double start must fail"
        );
        crate::counter_add("live.ticks", 1);
        // Wait for at least one periodic flush beyond the initial one.
        std::thread::sleep(Duration::from_millis(120));
        let mid = std::fs::read_to_string(&path).unwrap();
        writer_stop();
        crate::disable();
        assert!(mid.contains(METRICS_SCHEMA), "mid-run snapshot exists");
        let fin = std::fs::read_to_string(&path).unwrap();
        assert!(fin.contains("live.ticks"), "final flush sees the counter");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
