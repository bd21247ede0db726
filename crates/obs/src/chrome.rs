//! Chrome-trace (`chrome://tracing` / Perfetto) export.
//!
//! Emits the JSON Object Format: `{"traceEvents": [...]}` with one complete
//! (`"ph": "X"`) event per recorded span, metadata (`"M"`) events naming the
//! threads, and one counter (`"C"`) event per recorded counter so totals
//! show up in the trace viewer. Timestamps are microseconds since the
//! recorder epoch.

use std::collections::BTreeSet;

use crate::{counters_snapshot, events_snapshot, SpanEvent};

/// Renders the given spans and counters as a chrome-trace JSON document.
pub fn render_chrome_trace(
    events: &[SpanEvent],
    counters: &std::collections::BTreeMap<&'static str, u64>,
) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };

    // Thread metadata so Perfetto shows stable lane names.
    let threads: BTreeSet<u64> = events.iter().map(|e| e.thread).collect();
    for t in &threads {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
                 \"args\":{{\"name\":\"amrviz-{t}\"}}}}"
            ),
            &mut out,
            &mut first,
        );
    }

    let mut end_us = 0.0f64;
    for e in events {
        let ts = e.start_ns as f64 / 1e3;
        let dur = e.dur_ns as f64 / 1e3;
        end_us = end_us.max(ts + dur);
        let mut args = String::new();
        for (k, v) in &e.fields {
            if !args.is_empty() {
                args.push(',');
            }
            args.push_str(&format!("\"{}\":{}", amrviz_json::escape(k), v.to_json()));
        }
        if !args.is_empty() {
            args.push(',');
        }
        args.push_str(&format!(
            "\"mem.peak_bytes\":{},\"mem.net_bytes\":{}",
            e.mem_peak_bytes, e.mem_net_bytes
        ));
        if e.trace_id != 0 {
            if !args.is_empty() {
                args.push(',');
            }
            // Hex string: trace ids are full u64s and JSON tooling
            // (including crates/json) rounds large numerics through f64.
            args.push_str(&format!("\"trace\":\"{:016x}\"", e.trace_id));
        }
        push(
            format!(
                "{{\"name\":\"{}\",\"cat\":\"amrviz\",\"ph\":\"X\",\"ts\":{ts:.3},\
                 \"dur\":{dur:.3},\"pid\":1,\"tid\":{},\"args\":{{{args}}}}}",
                amrviz_json::escape(e.name),
                e.thread
            ),
            &mut out,
            &mut first,
        );
    }

    for (name, value) in counters {
        push(
            format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{end_us:.3},\"pid\":1,\
                 \"args\":{{\"value\":{value}}}}}",
                amrviz_json::escape(name)
            ),
            &mut out,
            &mut first,
        );
    }

    out.push_str("]}");
    out
}

/// Chrome-trace JSON for everything recorded so far.
pub fn chrome_trace_json() -> String {
    render_chrome_trace(&events_snapshot(), &counters_snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FieldValue;

    fn ev(id: u64, name: &'static str, thread: u64) -> SpanEvent {
        SpanEvent {
            id,
            parent: 0,
            trace_id: 0xfeed,
            name,
            fields: vec![("level", FieldValue::Int(1))],
            thread,
            start_ns: 1_000 * id,
            dur_ns: 500,
            mem_net_bytes: 64,
            mem_peak_bytes: 128,
        }
    }

    #[test]
    fn render_is_balanced_json() {
        let mut counters = std::collections::BTreeMap::new();
        counters.insert("bytes", 42u64);
        let s = render_chrome_trace(&[ev(1, "compress", 0), ev(2, "extract", 3)], &counters);
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert_eq!(
            s.matches('{').count(),
            s.matches('}').count(),
            "unbalanced braces in {s}"
        );
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"C\""));
        assert!(s.contains("\"ph\":\"M\""));
        assert!(s.contains("\"name\":\"compress\""));
        assert!(s.contains("\"level\":1"));
        assert!(s.contains("\"mem.peak_bytes\":128"));
        assert!(s.contains("\"mem.net_bytes\":64"));
        assert!(s.contains("\"trace\":\"000000000000feed\""));
    }

    #[test]
    fn empty_recording_is_valid() {
        let s = render_chrome_trace(&[], &std::collections::BTreeMap::new());
        assert_eq!(s, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }
}
