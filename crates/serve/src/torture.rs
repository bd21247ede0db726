//! Chaos torture for the serving stack: a real in-process server, a
//! deterministic chaos proxy in front of it, and a client that asserts the
//! robustness contract after every request.
//!
//! Store population (deterministic per seed):
//! - a **good** artifact (Nyx-tiny snapshot, cleanly compressed);
//! - a **degraded** artifact — one compressed chunk of fabs bit-flipped
//!   *before* the artifact was sealed, so its checksum fails and
//!   `DecodePolicy::Degrade` must repair its fabs (served `FLAG_DEGRADED`);
//! - a **disk-corrupt** blob — valid artifact bytes damaged on disk *after*
//!   `put`, so the store's read-path checksum catches it (quarantine →
//!   `Corrupt`, then `NotFound`);
//! - an **unknown** key that was never stored.
//!
//! Invariants checked (violations are collected, not panicked):
//! 1. the server never panics (worker pool counter stays 0);
//! 2. no data frame is decided at/after its deadline
//!    (`post_deadline_responses == 0` server-side; zero late frames
//!    client-side on the *direct* path);
//! 3. corrupt blobs are served degraded-and-flagged or as a typed error —
//!    never as clean `Ok` (checked on the direct path, where no chaos can
//!    forge a header);
//! 4. peak memory stays bounded while serving (decoded arenas are cached
//!    and reused, not re-allocated per request).

use crate::artifact::encode_artifact;
use crate::chaos::ChaosProxy;
use crate::client::{exchange, ClientConfig, Outcome};
use crate::proto::{Op, Request, FLAG_DEGRADED};
use crate::server::{start, ServeConfig, StatsSnapshot};
use crate::store::BlobStore;
use amrviz_compress::{compress_hierarchy_field, AmrCodecConfig, ErrorBound, SzLr};
use amrviz_obs::mem;
use amrviz_rng::Rng;
use amrviz_sim::{NyxScenario, Scale};
use std::time::Duration;

/// Server worker threads.
const WORKERS: usize = 2;

/// Peak allocated-bytes bound (checked only when the counting allocator is
/// installed, i.e. under the `amrviz` binary).
const MAX_PEAK_BYTES: usize = 1 << 30;

/// Torture run configuration.
#[derive(Debug, Clone)]
pub struct ServeTortureConfig {
    pub iters: u64,
    pub seed: u64,
    /// Store directory (created fresh; contents are overwritten).
    pub store_dir: std::path::PathBuf,
}

impl Default for ServeTortureConfig {
    fn default() -> Self {
        ServeTortureConfig {
            iters: 300,
            seed: 7,
            store_dir: std::env::temp_dir()
                .join(format!("amrviz_serve_torture_{}", std::process::id())),
        }
    }
}

/// Aggregated torture outcome.
#[derive(Debug)]
pub struct ServeTortureReport {
    pub iters: u64,
    /// (outcome name, count) over all requests, sorted by name.
    pub outcomes: Vec<(&'static str, u64)>,
    pub server: StatsSnapshot,
    pub late_frames: u64,
    pub peak_bytes: usize,
    /// Human-readable invariant violations (empty = pass). Capped at 32.
    pub violations: Vec<String>,
}

impl ServeTortureReport {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line JSON for the `SERVE_TORTURE` stdout marker.
    pub fn to_json_line(&self) -> String {
        let mut outcomes = String::new();
        for (i, (name, n)) in self.outcomes.iter().enumerate() {
            if i > 0 {
                outcomes.push(',');
            }
            outcomes.push_str(&format!("\"{name}\":{n}"));
        }
        format!(
            concat!(
                "{{\"iters\":{},\"violations\":{},\"late_frames\":{},",
                "\"panics\":{},\"post_deadline_responses\":{},",
                "\"deadline_aborts\":{},\"shed\":{},\"peak_bytes\":{},",
                "\"passed\":{},\"outcomes\":{{{}}}}}"
            ),
            self.iters,
            self.violations.len(),
            self.late_frames,
            self.server.panics,
            self.server.post_deadline_responses,
            self.server.deadline_aborts,
            self.server.shed,
            self.peak_bytes,
            self.passed(),
            outcomes,
        )
    }
}

/// The four stored-state classes a request can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TargetClass {
    Good,
    Degraded,
    DiskCorrupt,
    Unknown,
}

struct StoreSetup {
    good: u64,
    degraded: u64,
    disk_corrupt: u64,
    unknown: u64,
}

/// Builds the store fixtures. Deterministic per seed.
fn populate(dir: &std::path::Path, seed: u64) -> StoreSetup {
    let _ = std::fs::remove_dir_all(dir);
    let store = BlobStore::open(dir).expect("torture store");
    let cfg = AmrCodecConfig::default();
    let compressor = SzLr::default();

    let hier = NyxScenario::new(Scale::Tiny, seed).generate();
    let clean = compress_hierarchy_field(
        &hier,
        "baryon_density",
        &compressor,
        ErrorBound::Rel(1e-3),
        &cfg,
    )
    .expect("compress good");
    let good = store
        .put(&encode_artifact(&hier, "baryon_density", "szlr", &clean))
        .expect("put good");

    // Degraded: flip one bit in the first fine-level chunk before sealing,
    // so the chunk's checksum fails and Degrade must prolong its fabs from
    // the coarse level.
    let mut damaged = clean.clone();
    let lev = damaged.blobs.len() - 1;
    assert!(
        !damaged.blobs[lev].is_empty(),
        "fine level must have blobs to damage"
    );
    let blob = &mut damaged.blobs[lev][0];
    let mid = blob.len() / 2;
    blob[mid] ^= 0x10;
    let degraded = store
        .put(&encode_artifact(&hier, "baryon_density", "szlr", &damaged))
        .expect("put degraded");

    // Disk-corrupt: a *second* clean artifact (different seed ⇒ different
    // bytes/key), damaged on disk after the fact.
    let hier2 = NyxScenario::new(Scale::Tiny, seed ^ 0x5EED).generate();
    let clean2 = compress_hierarchy_field(
        &hier2,
        "baryon_density",
        &compressor,
        ErrorBound::Rel(1e-3),
        &cfg,
    )
    .expect("compress second");
    let disk_corrupt = store
        .put(&encode_artifact(&hier2, "baryon_density", "szlr", &clean2))
        .expect("put disk-corrupt fixture");
    let path = store.path_of(disk_corrupt);
    let mut bytes = std::fs::read(&path).expect("read back");
    let at = bytes.len() / 3;
    bytes[at] ^= 0x40;
    std::fs::write(&path, &bytes).expect("damage on disk");

    StoreSetup {
        good,
        degraded,
        disk_corrupt,
        unknown: 0xDEAD_BEEF_0BAD_F00D,
    }
}

/// Runs the full chaos torture. Never panics on invariant failure — the
/// report carries the violations.
pub fn run(cfg: &ServeTortureConfig) -> ServeTortureReport {
    let setup = populate(&cfg.store_dir, cfg.seed);
    let server = start(ServeConfig {
        store_dir: cfg.store_dir.clone(),
        workers: WORKERS,
        queue_depth: 8,
        cache_bytes: 64 << 20,
        ..ServeConfig::default()
    })
    .expect("server start");
    let direct_addr = server.addr();
    let proxy = ChaosProxy::start(direct_addr, cfg.seed).expect("chaos proxy start");
    let chaos_addr = proxy.addr();

    let mem_baseline = mem::alloc_baseline();
    let mut rng = Rng::seed(cfg.seed).fork(0xC11A05);
    let mut violations: Vec<String> = Vec::new();
    let mut late_frames = 0u64;
    let mut outcome_counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    let violate = |violations: &mut Vec<String>, msg: String| {
        if violations.len() < 32 {
            violations.push(msg);
        }
    };

    let client_cfg = ClientConfig {
        // Grace must absorb the proxy's worst-case injected delay (100 ms
        // per chunk) plus scheduling noise.
        grace: Duration::from_millis(800),
    };
    for i in 0..cfg.iters {
        let class = match rng.below(8) {
            0..=3 => TargetClass::Good,
            4..=5 => TargetClass::Degraded,
            6 => TargetClass::DiskCorrupt,
            _ => TargetClass::Unknown,
        };
        let key = match class {
            TargetClass::Good => setup.good,
            TargetClass::Degraded => setup.degraded,
            TargetClass::DiskCorrupt => setup.disk_corrupt,
            TargetClass::Unknown => setup.unknown,
        };
        // Mixed deadline budgets: some immediately-expired, some tight
        // enough to cut mid-stream, some roomy.
        let deadline_ms = [0u32, 1, 5, 50, 200, 1000][rng.below(6) as usize];
        // Every 4th request goes direct (no chaos): that's where semantic
        // invariants are checked, since chaos can forge/destroy frames.
        let direct = i % 4 == 0;
        let req = Request {
            op: Op::Get,
            trace: rng.next_u64() | 1,
            key,
            deadline_ms,
            max_level: 0xFF,
        };
        let addr = if direct { direct_addr } else { chaos_addr };
        let ex = exchange(addr, &req, &client_cfg);
        *outcome_counts.entry(ex.outcome.name()).or_insert(0) += 1;
        late_frames += ex.late_frames;
        if ex.late_frames > 0 && direct {
            violate(
                &mut violations,
                format!(
                    "iter {i}: {} frame(s) after deadline+grace on direct path \
                     (deadline {deadline_ms}ms, outcome {})",
                    ex.late_frames,
                    ex.outcome.name()
                ),
            );
        }
        if direct {
            // Semantic invariants, immune to chaos interference.
            match class {
                TargetClass::Good => {
                    if matches!(
                        ex.outcome,
                        Outcome::Corrupt | Outcome::NotFound | Outcome::ProtocolError
                    ) {
                        violate(
                            &mut violations,
                            format!("iter {i}: good blob served as {}", ex.outcome.name()),
                        );
                    }
                }
                TargetClass::Degraded => {
                    // Must be flagged degraded or a typed transient error —
                    // never clean Ok.
                    if ex.outcome == Outcome::Ok {
                        violate(
                            &mut violations,
                            format!("iter {i}: damaged blob served as clean ok"),
                        );
                    }
                    if let Some(h) = ex.header {
                        if h.status.is_good() && h.flags & FLAG_DEGRADED == 0 {
                            violate(
                                &mut violations,
                                format!("iter {i}: damaged blob streamed without FLAG_DEGRADED"),
                            );
                        }
                    }
                }
                TargetClass::DiskCorrupt => {
                    // First hit quarantines (Corrupt); later hits NotFound.
                    if ex.outcome.has_data() {
                        violate(
                            &mut violations,
                            format!(
                                "iter {i}: disk-corrupt blob produced data ({})",
                                ex.outcome.name()
                            ),
                        );
                    }
                }
                TargetClass::Unknown => {
                    if ex.outcome.has_data() {
                        violate(
                            &mut violations,
                            format!("iter {i}: unknown key produced data"),
                        );
                    }
                }
            }
            if deadline_ms == 0 && ex.outcome.has_data() {
                violate(
                    &mut violations,
                    format!("iter {i}: zero deadline budget still produced data"),
                );
            }
        }
    }

    proxy.stop();
    server.shutdown();
    let server_stats = server.join();
    let peak_bytes = if mem::counting_alloc_installed() {
        mem::peak_since(mem_baseline)
    } else {
        0
    };

    if server_stats.panics > 0 {
        violate(
            &mut violations,
            format!("{} worker panic(s)", server_stats.panics),
        );
    }
    if server_stats.post_deadline_responses > 0 {
        violate(
            &mut violations,
            format!(
                "{} data frame(s) decided after deadline",
                server_stats.post_deadline_responses
            ),
        );
    }
    if mem::counting_alloc_installed() && peak_bytes > MAX_PEAK_BYTES {
        violate(
            &mut violations,
            format!("peak allocation {peak_bytes} exceeds bound {MAX_PEAK_BYTES}"),
        );
    }

    let _ = std::fs::remove_dir_all(&cfg.store_dir);
    ServeTortureReport {
        iters: cfg.iters,
        outcomes: outcome_counts.into_iter().collect(),
        server: server_stats,
        late_frames,
        peak_bytes,
        violations,
    }
}
