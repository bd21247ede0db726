//! `amrviz loadgen`: a closed-loop load generator with paced arrivals and
//! jittered exponential backoff.
//!
//! Each client thread issues one logical request at a time: pick a key,
//! send, and on a retryable outcome (shed, timeout, reset, cut stream) back
//! off exponentially with seeded jitter before retrying — the standard
//! thundering-herd countermeasure, made deterministic per seed for CI. Every
//! logical request's end-to-end latency (including retries) lands in a
//! histogram; the report carries p50/p99 and per-outcome counts.

use crate::client::{exchange, ClientConfig, Exchange, Outcome};
use crate::proto::{Op, Request};
use amrviz_obs::hist::{exact_percentile, Histogram};
use amrviz_obs::journal;
use amrviz_rng::Rng;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Load shape and retry policy.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server (or chaos proxy) address.
    pub addr: SocketAddr,
    /// Concurrent client threads.
    pub clients: usize,
    /// Target request rate *per client*, requests/second. 0 = as fast as
    /// the closed loop allows.
    pub rps: f64,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Deadline budget stamped on every request.
    pub deadline_ms: u32,
    /// Determinism seed (forked per client thread).
    pub seed: u64,
}

/// Retries per logical request on retryable outcomes.
const MAX_RETRIES: u32 = 3;

/// Base backoff: attempt k sleeps `BACKOFF_BASE * 2^k * jitter(0.5..1.5)`.
const BACKOFF_BASE: Duration = Duration::from_millis(20);

/// Aggregated run outcome.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Logical requests (retries collapse into their request).
    pub requests: u64,
    /// Wire attempts (>= requests).
    pub attempts: u64,
    pub retries: u64,
    /// Final-outcome counts by name.
    pub outcomes: BTreeMap<&'static str, u64>,
    /// Per-outcome end-to-end latency distributions (log-bucketed, so
    /// per-outcome p50/p99 come from the same machinery the server uses).
    pub outcome_latency: BTreeMap<&'static str, Histogram>,
    /// Frames observed after deadline+grace across the whole run.
    pub late_frames: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    /// Logical requests whose final outcome carried data
    /// ([`Outcome::has_data`]).
    pub good: u64,
    /// `good` over `requests`.
    pub success_rate: f64,
}

impl LoadgenReport {
    /// One-line JSON for the `LOADGEN` stdout marker and CI greps.
    pub fn to_json_line(&self) -> String {
        let mut outcomes = String::new();
        for (i, (name, n)) in self.outcomes.iter().enumerate() {
            if i > 0 {
                outcomes.push(',');
            }
            outcomes.push_str(&format!("\"{name}\":{n}"));
        }
        let mut lat = String::new();
        for (i, (name, h)) in self.outcome_latency.iter().enumerate() {
            if i > 0 {
                lat.push(',');
            }
            lat.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"p50_us\":{},\"p99_us\":{}}}",
                h.count(),
                h.percentile(50.0).round() as u64,
                h.percentile(99.0).round() as u64,
            ));
        }
        format!(
            concat!(
                "{{\"requests\":{},\"attempts\":{},\"retries\":{},",
                "\"late_frames\":{},\"p50_us\":{},\"p99_us\":{},",
                "\"success_rate\":{:.4},\"outcomes\":{{{}}},",
                "\"outcome_latency_us\":{{{}}}}}"
            ),
            self.requests,
            self.attempts,
            self.retries,
            self.late_frames,
            self.p50_us,
            self.p99_us,
            self.success_rate,
            outcomes,
            lat,
        )
    }
}

/// One logical request with retry/backoff. Returns the final exchange, the
/// number of wire attempts made, and total elapsed.
fn logical_request(
    addr: SocketAddr,
    key: u64,
    cfg: &LoadgenConfig,
    rng: &mut Rng,
) -> (Exchange, u32, Duration) {
    let t0 = Instant::now();
    let mut attempt = 0u32;
    loop {
        let req = Request {
            op: Op::Get,
            trace: rng.next_u64() | 1, // nonzero: 0 means "no trace"
            key,
            deadline_ms: cfg.deadline_ms,
            max_level: 0xFF, // every level
        };
        let ex = exchange(addr, &req, &ClientConfig::default());
        // Rendered only for a listener: the fields cost an allocation each.
        if journal::is_active() {
            // Same trace as the request, so `amrviz stats` can stitch this
            // client line to the server's line for the exchange.
            let _scope = amrviz_obs::context_scope(amrviz_obs::TraceContext {
                parent: 0,
                trace: req.trace,
            });
            journal::emit(
                "serve",
                &[
                    ("role", "\"client\"".into()),
                    ("outcome", format!("\"{}\"", ex.outcome.name())),
                    ("attempt", attempt.to_string()),
                    ("elapsed_us", ex.elapsed.as_micros().to_string()),
                    ("late_frames", ex.late_frames.to_string()),
                ],
            );
        }
        attempt += 1;
        if !ex.outcome.is_retryable() || attempt > MAX_RETRIES {
            return (ex, attempt, t0.elapsed());
        }
        // Jittered exponential backoff: 2^k spread, ±50% seeded jitter.
        let scale = (1u64 << attempt.min(10)) as f64 * (0.5 + rng.f64());
        let backoff = BACKOFF_BASE.mul_f64(scale);
        std::thread::sleep(backoff.min(Duration::from_millis(500)));
    }
}

/// Runs the generator against `keys` (requests cycle through them
/// rng-uniformly). Blocks for `cfg.duration` plus stragglers.
pub fn run(cfg: &LoadgenConfig, keys: &[u64]) -> LoadgenReport {
    assert!(!keys.is_empty(), "loadgen needs at least one key");
    let late_total = AtomicU64::new(0);
    let attempts_total = AtomicU64::new(0);
    let base = Rng::seed(cfg.seed);
    let deadline = Instant::now() + cfg.duration;
    let interarrival = if cfg.rps > 0.0 {
        Some(Duration::from_secs_f64(1.0 / cfg.rps))
    } else {
        None
    };

    let per_thread: Vec<(Vec<u64>, Vec<Outcome>)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..cfg.clients.max(1) {
            let late_total = &late_total;
            let attempts_total = &attempts_total;
            let mut rng = base.fork(c as u64 + 1);
            handles.push(s.spawn(move || {
                let mut latencies_us = Vec::new();
                let mut outcomes = Vec::new();
                while Instant::now() < deadline {
                    let key = keys[rng.below(keys.len() as u64) as usize];
                    let (ex, attempts, elapsed) = logical_request(cfg.addr, key, cfg, &mut rng);
                    late_total.fetch_add(ex.late_frames, Ordering::Relaxed);
                    attempts_total.fetch_add(attempts as u64, Ordering::Relaxed);
                    latencies_us.push(elapsed.as_micros() as u64);
                    amrviz_obs::histogram!("loadgen.latency_us", elapsed.as_micros() as f64);
                    outcomes.push(ex.outcome);
                    if let Some(gap) = interarrival {
                        // Jittered pacing (0.5..1.5×) so client fleets don't
                        // phase-lock into synchronized bursts.
                        std::thread::sleep(gap.mul_f64(0.5 + rng.f64()));
                    }
                }
                (latencies_us, outcomes)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut all_latencies = Vec::new();
    let mut outcome_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut outcome_latency: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    let mut good = 0u64;
    let mut requests = 0u64;
    for (lat, outs) in per_thread {
        for (&us, outcome) in lat.iter().zip(outs) {
            outcome_latency
                .entry(outcome.name())
                .or_default()
                .record(us);
            *outcome_counts.entry(outcome.name()).or_insert(0) += 1;
            requests += 1;
            good += u64::from(outcome.has_data());
        }
        all_latencies.extend(lat);
    }
    all_latencies.sort_unstable();
    let attempts = attempts_total.load(Ordering::Relaxed);
    LoadgenReport {
        requests,
        attempts,
        retries: attempts.saturating_sub(requests),
        outcomes: outcome_counts,
        outcome_latency,
        late_frames: late_total.load(Ordering::Relaxed),
        p50_us: exact_percentile(&all_latencies, 0.50),
        p99_us: exact_percentile(&all_latencies, 0.99),
        good,
        success_rate: if requests == 0 {
            0.0
        } else {
            good as f64 / requests as f64
        },
    }
}
