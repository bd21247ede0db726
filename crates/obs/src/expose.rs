//! Metric exposition: point-in-time snapshots of the recorder as JSON and
//! Prometheus-style text, plus a periodic background snapshot writer.
//!
//! Two formats from one snapshot pass:
//!
//! * **JSON** (`amrviz-metrics-v2`) — machine-readable document carrying
//!   the *lifetime* aggregates (since the last [`crate::reset`]) plus the
//!   recorder's `obs.*` self-accounting meta-metrics. Consumed by
//!   `amrviz stats`. Rolling-window views are not here: the one process
//!   that runs long enough to want them answers them in `serve`'s STATS
//!   snapshot.
//! * **Prometheus text exposition** — `amrviz_<name>` families with
//!   counter totals, gauge values, and histogram summaries (quantiles
//!   0.5/0.9/0.99, `_sum`/`_count`), for scraping or eyeballing with
//!   standard tooling.
//!
//! [`write_snapshot`] is crash-safe: the JSON document is written to a
//! sibling temp file and atomically renamed over the target, so a reader
//! polling the file mid-run never sees a torn document. The `.prom`
//! sibling is written the same way.

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

/// Formats a float as plain decimal (Prometheus- and JSON-safe; integral
/// values render with a trailing `.0`, non-finite values as `0.0`).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // Plain decimal keeps Prometheus parsers happy; JSON accepts it too.
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

/// Sanitizes a metric name into a Prometheus identifier
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_';
        let c = if ok { c } else { '_' };
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// Renders the recorder state as Prometheus text exposition: lifetime
/// totals and lifetime quantiles.
pub fn prometheus_text() -> String {
    let mut out = String::new();
    for (name, v) in crate::counters_snapshot() {
        let p = prom_name(name);
        out.push_str(&format!(
            "# TYPE amrviz_{p}_total counter\namrviz_{p}_total {v}\n"
        ));
    }
    for (name, v) in crate::gauges_snapshot() {
        let p = prom_name(name);
        out.push_str(&format!(
            "# TYPE amrviz_{p} gauge\namrviz_{p} {}\n",
            fmt_f64(v)
        ));
    }
    for (name, lifetime) in &crate::histograms_snapshot() {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE amrviz_{p} summary\n"));
        for (label, pct) in [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0)] {
            out.push_str(&format!(
                "amrviz_{p}{{quantile=\"{label}\"}} {}\n",
                fmt_f64(lifetime.percentile(pct))
            ));
        }
        out.push_str(&format!("amrviz_{p}_sum {}\n", lifetime.sum()));
        out.push_str(&format!("amrviz_{p}_count {}\n", lifetime.count()));
        // Full distribution as a native Prometheus histogram: cumulative
        // `_bucket{le=...}` counts straight from the log-bucketed storage.
        // A separate `_hist` family — the summary above predates it and
        // the two TYPEs cannot share a name.
        out.push_str(&format!("# TYPE amrviz_{p}_hist histogram\n"));
        let mut cumulative = 0u64;
        for (_lo, hi, count) in lifetime.nonzero_buckets() {
            cumulative += count;
            // Bucket bounds are inclusive [lo, hi], so `le = hi` is exact.
            out.push_str(&format!(
                "amrviz_{p}_hist_bucket{{le=\"{}\"}} {cumulative}\n",
                fmt_f64(hi as f64)
            ));
        }
        out.push_str(&format!(
            "amrviz_{p}_hist_bucket{{le=\"+Inf\"}} {}\n",
            lifetime.count()
        ));
        out.push_str(&format!("amrviz_{p}_hist_sum {}\n", lifetime.sum()));
        out.push_str(&format!("amrviz_{p}_hist_count {}\n", lifetime.count()));
    }
    let meta = crate::meta_snapshot();
    for (name, v) in [
        ("overhead_us", meta.overhead_us),
        ("dropped_events", meta.journal_dropped),
        ("spans_recorded", meta.spans_recorded),
    ] {
        out.push_str(&format!(
            "# TYPE amrviz_obs_{name} counter\namrviz_obs_{name} {v}\n"
        ));
    }
    out
}

fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Writes the JSON snapshot to `path` and the Prometheus exposition to the
/// sibling `path.with_extension("prom")`, each via temp-file + atomic
/// rename so concurrent readers never observe a torn document.
pub fn write_snapshot(path: &Path) -> std::io::Result<()> {
    write_atomic(path, &snapshot_json())?;
    write_atomic(&path.with_extension("prom"), &prometheus_text())
}

static WRITER_ACTIVE: AtomicBool = AtomicBool::new(false);
static WRITER_STOP: AtomicBool = AtomicBool::new(false);

fn writer_handle() -> &'static Mutex<Option<JoinHandle<()>>> {
    static H: OnceLock<Mutex<Option<JoinHandle<()>>>> = OnceLock::new();
    H.get_or_init(|| Mutex::new(None))
}

/// Starts the periodic snapshot writer: every `interval` the current
/// recorder state is flushed to `path` (+ `.prom` sibling) via
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
    fn prom_names_are_sanitized() {
        assert_eq!(prom_name("compress.blob_bytes"), "compress_blob_bytes");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name("a-b c"), "a_b_c");
    }

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

        let p = prometheus_text();
        assert!(p.contains("amrviz_exp_bytes_total 10"));
        assert!(p.contains("amrviz_exp_eb 0.5"));
        assert!(p.contains("amrviz_exp_lat{quantile=\"0.99\"}"));
        assert!(p.contains("amrviz_obs_overhead_us"));
        assert!(p.contains("amrviz_obs_dropped_events"));
    }

    #[test]
    fn prom_histogram_buckets_are_cumulative_and_parse() {
        let _g = crate::tests::guard();
        crate::reset();
        crate::enable();
        // Samples spread across several octaves so multiple buckets fill.
        for v in [1u64, 3, 3, 17, 170, 170, 170, 4096, 100_000] {
            crate::histogram_record("bkt.lat", v);
        }
        crate::disable();
        let p = prometheus_text();

        // Parse the `_bucket{le=...}` lines back out of the exposition.
        let mut buckets: Vec<(f64, u64)> = Vec::new();
        let mut hist_count = None;
        let mut hist_sum = None;
        for line in p.lines() {
            if let Some(rest) = line.strip_prefix("amrviz_bkt_lat_hist_bucket{le=\"") {
                let (le, count) = rest.split_once("\"} ").expect("bucket line shape");
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>().expect("le bound parses")
                };
                buckets.push((le, count.parse().expect("bucket count parses")));
            } else if let Some(v) = line.strip_prefix("amrviz_bkt_lat_hist_count ") {
                hist_count = Some(v.parse::<u64>().unwrap());
            } else if let Some(v) = line.strip_prefix("amrviz_bkt_lat_hist_sum ") {
                hist_sum = Some(v.parse::<u64>().unwrap());
            }
        }
        assert!(
            buckets.len() >= 6,
            "distinct sample octaves produce distinct buckets: {buckets:?}"
        );
        // le bounds strictly increase and counts are monotone non-decreasing.
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "le bounds must increase: {buckets:?}");
            assert!(w[0].1 <= w[1].1, "cumulative counts must not drop");
        }
        let (last_le, last_count) = *buckets.last().unwrap();
        assert!(last_le.is_infinite(), "terminal bucket is +Inf");
        assert_eq!(last_count, 9, "+Inf bucket equals total count");
        assert_eq!(hist_count, Some(9));
        assert_eq!(hist_sum, Some(1u64 + 3 + 3 + 17 + 170 * 3 + 4096 + 100_000));
        // Every sample is <= its bucket's le (cumulative count at the
        // first bucket whose le >= v must include v).
        for v in [1u64, 3, 17, 170, 4096, 100_000] {
            let covered = buckets
                .iter()
                .find(|(le, _)| *le >= v as f64)
                .map(|(_, c)| *c)
                .unwrap_or(0);
            assert!(covered > 0, "sample {v} falls inside some bucket");
        }
        // The TYPE line declares the family as a histogram.
        assert!(p.contains("# TYPE amrviz_bkt_lat_hist histogram"));
        // The legacy summary family still exists alongside.
        assert!(p.contains("amrviz_bkt_lat{quantile=\"0.99\"}"));
    }

    #[test]
    fn write_snapshot_is_atomic_and_makes_prom_sibling() {
        let _g = crate::tests::guard();
        crate::reset();
        let dir = std::env::temp_dir().join(format!("amrviz_m_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        write_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(METRICS_SCHEMA));
        assert!(path.with_extension("prom").exists());
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file must be renamed away"
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
