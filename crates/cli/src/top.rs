//! `amrviz top` — a live terminal dashboard over the serve STATS endpoint.
//!
//! Polls the server's in-band `Op::Stats` request (same framed protocol,
//! same port as data traffic — no second listener) and redraws an ANSI
//! dashboard: request/outcome rates with sparklines, windowed latency and
//! stage-timing percentiles, SLO burn rates, and the tail-exemplar
//! drill-down that names the stage a slow request actually spent its time
//! in. `--once --json` prints one validated snapshot and exits, which is
//! what scripts and CI consume.

use crate::commands::{bool_of, entries_of, f64_of, str_of, u64_of};
use amrviz_core::args::parse;
use amrviz_json::Json;
use amrviz_serve::telemetry::dominant_stage;
use amrviz_serve::{exchange, ClientConfig, Op, Request};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::time::Duration;

/// Wire attempts per poll. A chaos proxy in front of the server fails a
/// large fraction of individual connections by design; an operator
/// dashboard should see through that, not flicker with it.
const POLL_ATTEMPTS: u32 = 15;

/// Sparkline history length (polls).
const SPARK_LEN: usize = 24;

/// Tail exemplars shown per frame.
const EXEMPLARS: usize = 3;

pub const TOP_FLAGS: crate::commands::Flags = (&["interval"], &["once", "json"]);
pub fn top(argv: &[String]) -> Result<(), String> {
    let p = parse(argv, TOP_FLAGS.0, TOP_FLAGS.1)?;
    let addr: SocketAddr = p
        .positional(0, "server address (HOST:PORT)")?
        .parse()
        .map_err(|e| format!("bad server address: {e}"))?;
    let interval = p.opt_secs("interval")?.unwrap_or(Duration::from_secs(2));
    let once = p.switch("once");
    let as_json = p.switch("json");
    if as_json && !once {
        return Err("--json requires --once (one snapshot per line is for scripts)".into());
    }

    let mut spark: BTreeMap<String, VecDeque<u64>> = BTreeMap::new();
    let mut prev_counts: BTreeMap<String, u64> = BTreeMap::new();
    loop {
        let (raw, doc) = fetch_stats(addr)?;
        if as_json {
            outln!("{raw}");
            return Ok(());
        }
        update_sparklines(&doc, &mut spark, &mut prev_counts);
        if !once {
            // Clear + home; plain ANSI so it works in any terminal and CI logs.
            out!("\x1b[2J\x1b[H");
        }
        // A reader that hung up has seen its last frame.
        if !crate::write_stdout(format_args!("{}", render(addr, &doc, &spark))) || once {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// One STATS poll with retries: chaos-induced connection failures and
/// corrupted payloads are expected, so keep trying until a snapshot of the
/// right schema arrives or patience runs out. Returns the raw snapshot and
/// its parse.
fn fetch_stats(addr: SocketAddr) -> Result<(String, Json), String> {
    let req = Request {
        op: Op::Stats,
        trace: 0,
        key: 0,
        deadline_ms: 5_000,
        max_level: 0,
    };
    let cfg = ClientConfig::default();
    let mut last = String::from("no attempt made");
    for attempt in 0..POLL_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(100));
        }
        let ex = exchange(addr, &req, &cfg);
        let Some(raw) = ex.stats else {
            last = format!("outcome {}", ex.outcome.name());
            continue;
        };
        last = match Json::parse(&raw) {
            Err(e) => format!("STATS is not JSON: {e}"),
            Ok(doc) => match doc.get("schema").and_then(|s| s.as_str()) {
                Some(amrviz_serve::STATS_SCHEMA) => return Ok((raw, doc)),
                schema => format!(
                    "unexpected STATS schema `{}` (want {})",
                    schema.unwrap_or("?"),
                    amrviz_serve::STATS_SCHEMA
                ),
            },
        };
    }
    Err(format!(
        "no usable STATS from {addr} after {POLL_ATTEMPTS} attempts (last: {last}); \
         is the server running?"
    ))
}

/// Feeds the per-outcome sparkline histories from deltas of the lifetime
/// counters between polls (first poll seeds the baseline, drawing nothing).
fn update_sparklines(
    doc: &Json,
    spark: &mut BTreeMap<String, VecDeque<u64>>,
    prev: &mut BTreeMap<String, u64>,
) {
    for (name, h) in entries_of(doc, "latency_us") {
        let count = h.get("lifetime").map(|l| u64_of(l, "count")).unwrap_or(0);
        if let Some(&was) = prev.get(name) {
            let hist = spark.entry(name.clone()).or_default();
            hist.push_back(count.saturating_sub(was));
            while hist.len() > SPARK_LEN {
                hist.pop_front();
            }
        }
        prev.insert(name.clone(), count);
    }
}

/// Renders a delta history as a unicode sparkline, scaled to its own max.
fn sparkline(hist: &VecDeque<u64>) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = hist.iter().copied().max().unwrap_or(0).max(1);
    hist.iter()
        .map(|&v| BARS[((v * 7 + max / 2) / max) as usize % 8])
        .collect()
}

fn ms(us: f64) -> String {
    format!("{:.1}", us / 1e3)
}

/// The full dashboard frame as one string (single write keeps redraw
/// flicker-free).
fn render(addr: SocketAddr, doc: &Json, spark: &BTreeMap<String, VecDeque<u64>>) -> String {
    let mut out = String::new();
    let health = str_of(doc, "health");
    out.push_str(&format!(
        "amrviz top {addr} — health {} — uptime {:.1} s — proto v{}\n",
        if health == "ok" { "OK" } else { "DEGRADED" },
        f64_of(doc, "uptime_ms") / 1e3,
        u64_of(doc, "proto_version"),
    ));
    if let Some(req) = doc.get("requests") {
        out.push_str(&format!(
            "requests {}  ok {}  degraded {}  shed {}  timeout {}  not_found {}  \
             corrupt {}  io_err {}  panics {}  post_deadline {}\n",
            u64_of(req, "requests"),
            u64_of(req, "ok"),
            u64_of(req, "degraded"),
            u64_of(req, "shed"),
            u64_of(req, "timeout"),
            u64_of(req, "not_found"),
            u64_of(req, "corrupt"),
            u64_of(req, "io_errors"),
            u64_of(req, "panics"),
            u64_of(req, "post_deadline_responses"),
        ));
    }
    if let Some(c) = doc.get("cache") {
        let (hits, misses) = (u64_of(c, "hits"), u64_of(c, "misses"));
        let rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "queue {}  workers {}  cache {} entries, {:.1}/{:.1} MB, hit rate {rate:.1}%\n",
            u64_of(doc, "queue_depth"),
            u64_of(doc, "workers"),
            u64_of(c, "entries"),
            f64_of(c, "bytes") / 1e6,
            f64_of(c, "budget_bytes") / 1e6,
        ));
    }

    out.push('\n');
    out.push_str(&format!(
        "{:<14} {:>9} {:>9} {:>9} {:>9}  {}\n",
        "latency (5m)", "count", "p50 ms", "p99 ms", "max ms", "recent"
    ));
    for (name, h) in entries_of(doc, "latency_us") {
        let Some(w) = h.get("w5m") else { continue };
        let line = spark.get(name).map(sparkline).unwrap_or_default();
        out.push_str(&format!(
            "  {:<12} {:>9} {:>9} {:>9} {:>9}  {line}\n",
            name,
            u64_of(w, "count"),
            ms(f64_of(w, "p50")),
            ms(f64_of(w, "p99")),
            ms(f64_of(w, "max")),
        ));
    }

    out.push('\n');
    out.push_str(&format!(
        "{:<20} {:>9} {:>9} {:>9} {:>9}\n",
        "stage (5m)", "count", "p50 ms", "p90 ms", "p99 ms"
    ));
    for (name, h) in entries_of(doc, "stages_us") {
        let Some(w) = h.get("w5m") else { continue };
        out.push_str(&format!(
            "  {:<18} {:>9} {:>9} {:>9} {:>9}\n",
            name,
            u64_of(w, "count"),
            ms(f64_of(w, "p50")),
            ms(f64_of(w, "p90")),
            ms(f64_of(w, "p99")),
        ));
    }

    if let Some(slo) = doc.get("slo") {
        out.push('\n');
        out.push_str(&format!(
            "SLO {}  —  {}\n",
            str_of(slo, "spec"),
            if bool_of(slo, "breached") {
                "BREACHED"
            } else {
                "within objectives"
            }
        ));
        if let Some(windows) = slo.get("windows").and_then(|w| w.as_arr()) {
            for w in windows {
                let mut flags = String::new();
                if bool_of(w, "avail_exceeded") {
                    flags.push_str(" [AVAIL]");
                }
                if bool_of(w, "latency_exceeded") {
                    flags.push_str(" [LATENCY]");
                }
                out.push_str(&format!(
                    "  {:<4} good {}/{}  burn {:.2}  p99 {} ms{flags}\n",
                    str_of(w, "label"),
                    u64_of(w, "good"),
                    u64_of(w, "total"),
                    f64_of(w, "burn"),
                    ms(f64_of(w, "p99_us")),
                ));
            }
        }
    }

    if let Some(exs) = doc.get("exemplars").and_then(|e| e.as_arr()) {
        if !exs.is_empty() {
            out.push('\n');
            out.push_str("tail exemplars (slowest retained requests)\n");
            for e in exs.iter().take(EXEMPLARS) {
                let total = u64_of(e, "total_us");
                let stages = entries_of(e, "stages_us")
                    .iter()
                    .map(|(name, us)| (name.as_str(), us.as_u64().unwrap_or(0)));
                let bound = match dominant_stage(stages) {
                    Some((name, us)) if total > 0 => format!(
                        "{name}-bound ({} ms, {:.0}%)",
                        ms(us as f64),
                        us as f64 / total as f64 * 100.0
                    ),
                    _ => "no stage breakdown".to_string(),
                };
                out.push_str(&format!(
                    "  {:>9} ms  trace {}  {}  {bound}\n",
                    ms(total as f64),
                    str_of(e, "trace"),
                    str_of(e, "label"),
                ));
                if let Some(Json::Obj(stages)) = e.get("stages_us") {
                    let parts: Vec<String> = stages
                        .iter()
                        .map(|(n, us)| format!("{n} {}", ms(us.as_u64().unwrap_or(0) as f64)))
                        .collect();
                    out.push_str(&format!("             stages: {}\n", parts.join("  ")));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_own_max() {
        let d: VecDeque<u64> = vec![0, 1, 7, 14].into();
        let s = sparkline(&d);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'), "{s}");
        assert!(s.ends_with('█'), "{s}");
        // All-zero history renders the floor glyph, not a panic.
        let z: VecDeque<u64> = vec![0, 0].into();
        assert_eq!(sparkline(&z), "▁▁");
    }

    #[test]
    fn render_handles_a_minimal_snapshot() {
        let raw = format!(
            "{{\"schema\":\"{}\",\"proto_version\":1,\"uptime_ms\":1500,\
             \"health\":\"ok\",\"queue_depth\":0,\"workers\":2,\
             \"latency_us\":{{\"ok\":{{\"lifetime\":{{\"count\":3}},\
             \"w5m\":{{\"count\":3,\"p50\":100.0,\"p99\":200.0,\"max\":250.0}}}}}},\
             \"stages_us\":{{}},\
             \"slo\":{{\"spec\":\"avail>99\",\"breached\":false,\"windows\":[]}},\
             \"exemplars\":[{{\"trace\":\"abc\",\"total_us\":900,\"label\":\"ok key=7\",\
             \"stages_us\":{{\"decode\":800,\"write\":90}}}}]}}",
            amrviz_serve::STATS_SCHEMA
        );
        let doc = Json::parse(&raw).unwrap();
        let addr: SocketAddr = "127.0.0.1:9999".parse().unwrap();
        let frame = render(addr, &doc, &BTreeMap::new());
        assert!(frame.contains("health OK"), "{frame}");
        assert!(frame.contains("decode-bound"), "{frame}");
        assert!(frame.contains("trace abc"), "{frame}");
    }

    #[test]
    fn a_poll_retries_a_payload_that_is_not_a_snapshot() {
        use amrviz_serve::proto::{self, EndFrame};
        use amrviz_serve::{RespHeader, Status};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let good = format!("{{\"schema\":\"{}\"}}", amrviz_serve::STATS_SCHEMA);
        let replies = [
            "{\"schema\":\"amrviz-serve-st\u{1}ts-v1\"".to_string(),
            good.clone(),
        ];
        let responder = std::thread::spawn(move || {
            for payload in replies {
                let (mut stream, _) = listener.accept().unwrap();
                proto::read_frame(&mut stream, proto::MAX_REQUEST_FRAME).unwrap();
                let header = RespHeader {
                    status: Status::Ok,
                    flags: 0,
                    retry_after_ms: 0,
                    n_levels: 0,
                    key: 0,
                };
                let end = EndFrame {
                    status: Status::Ok,
                    levels_sent: 0,
                    server_elapsed_us: 1,
                };
                for frame in [
                    header.encode(),
                    proto::encode_stats_frame(&payload),
                    end.encode(),
                ] {
                    proto::write_frame(&mut stream, &frame).unwrap();
                }
            }
        });
        let (raw, doc) = fetch_stats(addr).unwrap();
        responder.join().unwrap();
        assert_eq!(raw, good);
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some(amrviz_serve::STATS_SCHEMA)
        );
    }

    #[test]
    fn bad_interval_is_refused_by_name() {
        for secs in ["-1", "nan", "0"] {
            let argv: Vec<String> = ["127.0.0.1:9", "--interval", secs]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = top(&argv).unwrap_err();
            assert!(err.starts_with("--interval"), "{secs}: {err}");
        }
    }

    #[test]
    fn sparkline_feed_uses_lifetime_deltas() {
        let mk = |count: u64| {
            Json::parse(&format!(
                "{{\"latency_us\":{{\"ok\":{{\"lifetime\":{{\"count\":{count}}}}}}}}}"
            ))
            .unwrap()
        };
        let mut spark = BTreeMap::new();
        let mut prev = BTreeMap::new();
        update_sparklines(&mk(10), &mut spark, &mut prev);
        assert!(spark.is_empty(), "first poll only seeds the baseline");
        update_sparklines(&mk(25), &mut spark, &mut prev);
        assert_eq!(spark["ok"], VecDeque::from(vec![15]));
    }
}
