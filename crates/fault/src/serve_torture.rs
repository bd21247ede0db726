//! The serve torture: a real in-process server, a deterministic chaos proxy
//! in front of it, and a client that asserts the robustness contract after
//! every request. Its two loops and the decoder torture's stay apart; they
//! share only [`Verdict`], the exit path of `amrviz torture`.
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
//!
//! Unlike the decoder torture, a run does not replay exactly: the
//! outcome split and `peak_bytes` move with thread timing. The
//! violations, `panics`, `post_deadline_responses` and `passed` must hold
//! on every run.

use amrviz_amr::AmrHierarchy;
use amrviz_compress::{
    compress_hierarchy_field, AmrCodecConfig, CompressedHierarchyField, ErrorBound, SzLr,
};
use amrviz_obs::mem;
use amrviz_rng::Rng;
use amrviz_serve::proto::{Op, Request, FLAG_DEGRADED};
use amrviz_serve::{
    encode_artifact, exchange, start, BlobStore, ChaosProxy, ClientConfig, Outcome, ServeConfig,
    StatsSnapshot,
};
use amrviz_sim::{NyxScenario, Scale};
use std::time::Duration;

use crate::{Mutation, Verdict};

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
    pub seed: u64,
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

    /// The `SERVE_TORTURE` line and, on a violation, the failure message.
    pub fn verdict(&self) -> Verdict {
        let outcomes: Vec<String> = self
            .outcomes
            .iter()
            .map(|(name, n)| format!("\"{name}\":{n}"))
            .collect();
        let json = format!(
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
            outcomes.join(","),
        );
        let n = self.violations.len();
        Verdict::new(
            format!("SERVE_TORTURE {json}"),
            (!self.passed()).then(|| format!("serve torture failed: {n} violation(s)")),
            &self.violations,
            format!("--serve --seed {} --iters {}", self.seed, self.iters),
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

/// A key that is never stored.
const UNKNOWN_KEY: u64 = 0xDEAD_BEEF_0BAD_F00D;

/// Builds the store fixtures and returns the good, degraded and
/// disk-corrupt keys. Deterministic per seed.
fn populate(dir: &std::path::Path, seed: u64) -> [u64; 3] {
    let _ = std::fs::remove_dir_all(dir);
    let store = BlobStore::open(dir).expect("torture store");
    let field = "baryon_density";
    let compress = |seed| {
        let (hier, cfg) = (
            NyxScenario::new(Scale::Tiny, seed).generate(),
            AmrCodecConfig::default(),
        );
        let c =
            compress_hierarchy_field(&hier, field, &SzLr::default(), ErrorBound::Rel(1e-3), &cfg);
        (c.expect("torture fixture compresses"), hier)
    };
    let put = |c: &CompressedHierarchyField, hier: &AmrHierarchy| {
        store
            .put(&encode_artifact(hier, field, "szlr", c))
            .expect("put fixture")
    };

    let (mut c, hier) = compress(seed);
    let good = put(&c, &hier);
    // Degraded: flip one bit in the first fine-level chunk before sealing,
    // so the chunk's checksum fails and Degrade must prolong its fabs from
    // the coarse level.
    let blob = c.blobs.last_mut().and_then(|lev| lev.first_mut());
    let blob = blob.expect("fine level must have blobs to damage");
    *blob = Mutation::BitFlip {
        offset: blob.len() / 2,
        bit: 4,
    }
    .apply(blob);
    let degraded = put(&c, &hier);

    // Disk-corrupt: a *second* clean artifact (different seed ⇒ different
    // bytes/key), damaged on disk after the fact.
    let (c, hier) = compress(seed ^ 0x5EED);
    let disk_corrupt = put(&c, &hier);
    let path = store.path_of(disk_corrupt);
    let bytes = std::fs::read(&path).expect("read back");
    let bytes = Mutation::BitFlip {
        offset: bytes.len() / 3,
        bit: 6,
    }
    .apply(&bytes);
    std::fs::write(&path, bytes).expect("damage on disk");
    [good, degraded, disk_corrupt]
}

/// Runs the full chaos torture. Never panics on invariant failure — the
/// report carries the violations.
pub fn run(cfg: &ServeTortureConfig) -> ServeTortureReport {
    use TargetClass::{Degraded, DiskCorrupt, Good, Unknown};
    let [good, degraded, disk_corrupt] = populate(&cfg.store_dir, cfg.seed);
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
    let mut violate = |msg: String| {
        if violations.len() < 32 {
            violations.push(msg);
        }
    };
    let mut late_frames = 0u64;
    let mut outcome_counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();

    let client_cfg = ClientConfig {
        // Grace must absorb the proxy's worst-case injected delay (100 ms
        // per chunk) plus scheduling noise.
        grace: Duration::from_millis(800),
    };
    for i in 0..cfg.iters {
        let (class, key) = match rng.below(8) {
            0..=3 => (Good, good),
            4..=5 => (Degraded, degraded),
            6 => (DiskCorrupt, disk_corrupt),
            _ => (Unknown, UNKNOWN_KEY),
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
        let name = ex.outcome.name();
        *outcome_counts.entry(name).or_insert(0) += 1;
        late_frames += ex.late_frames;
        if !direct {
            continue;
        }
        // Semantic invariants, immune to chaos interference. A damaged blob
        // must be flagged degraded or a typed transient error, never clean
        // `Ok`; a disk-corrupt one quarantines (Corrupt), then NotFound.
        let data = ex.outcome.has_data();
        let unflagged = ex
            .header
            .is_some_and(|h| h.status.is_good() && h.flags & FLAG_DEGRADED == 0);
        let refused = matches!(
            ex.outcome,
            Outcome::Corrupt | Outcome::NotFound | Outcome::ProtocolError
        );
        let n = ex.late_frames;
        let late = format!(
            "{n} frame(s) after deadline+grace on direct path \
             (deadline {deadline_ms}ms, outcome {name})"
        );
        let is = |c| class == c;
        let broken = [
            (n > 0, late),
            (is(Good) && refused, format!("good blob served as {name}")),
            (
                is(Degraded) && ex.outcome == Outcome::Ok,
                "damaged blob served as clean ok".into(),
            ),
            (
                is(Degraded) && unflagged,
                "damaged blob streamed without FLAG_DEGRADED".into(),
            ),
            (
                is(DiskCorrupt) && data,
                format!("disk-corrupt blob produced data ({name})"),
            ),
            (is(Unknown) && data, "unknown key produced data".into()),
            (
                deadline_ms == 0 && data,
                "zero deadline budget still produced data".into(),
            ),
        ];
        for (_, what) in broken.into_iter().filter(|(b, _)| *b) {
            violate(format!("iter {i}: {what}"));
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
        violate(format!("{} worker panic(s)", server_stats.panics));
    }
    if server_stats.post_deadline_responses > 0 {
        let n = server_stats.post_deadline_responses;
        violate(format!("{n} data frame(s) decided after deadline"));
    }
    if mem::counting_alloc_installed() && peak_bytes > MAX_PEAK_BYTES {
        violate(format!(
            "peak allocation {peak_bytes} exceeds bound {MAX_PEAK_BYTES}"
        ));
    }

    let _ = std::fs::remove_dir_all(&cfg.store_dir);
    ServeTortureReport {
        seed: cfg.seed,
        iters: cfg.iters,
        outcomes: outcome_counts.into_iter().collect(),
        server: server_stats,
        late_frames,
        peak_bytes,
        violations,
    }
}
