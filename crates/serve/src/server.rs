//! The `amrviz serve` TCP server: blocking worker pool, bounded admission
//! queue, per-request deadline budgets, graceful drain.
//!
//! Robustness contract (chaos-tested by `amrviz-fault`'s serve torture):
//!
//! - **No panic escapes.** Each connection runs under `catch_unwind`; a
//!   panicking request is counted and the connection dropped, the pool
//!   keeps serving.
//! - **No data frame is decided at/after its deadline.** Every data-frame
//!   write goes through one gated choke point that samples the clock
//!   *before* writing; an expired deadline aborts the stream (counted in
//!   `deadline_aborts`) instead. The stream then lacks its `END` frame —
//!   the client's received prefix is still a valid progressive result.
//!   `post_deadline_responses` measures violations of this invariant and
//!   must stay 0.
//! - **Overload sheds, never queues unboundedly.** The accept thread keeps
//!   the work queue bounded; beyond it, connections get a typed
//!   `RetryLater` + retry-after hint (drop-newest) rather than waiting.
//! - **Corruption degrades or errors, never lies.** A quarantined blob is
//!   `Corrupt`; a blob whose fabs partially fail decodes under
//!   `DecodePolicy::Degrade` and is served flagged `FLAG_DEGRADED` (failed
//!   checksums, known before the header) or closed `Status::Degraded`
//!   (damage only decoding a later level finds).

use crate::artifact::decode_artifact;
use crate::cache::{ArenaCache, DecodedEntry};
use crate::proto::{
    self, EndFrame, Op, Request, RespHeader, Status, FLAG_COARSE_ONLY, FLAG_DEGRADED,
    MAX_REQUEST_FRAME,
};
use crate::slo::SloSpec;
use crate::store::{BlobStore, StoreError};
use crate::telemetry::{ReqTelemetry, Stage, StageTimes};
use amrviz_amr::MultiFab;
use amrviz_codec::DecodeBudget;
use amrviz_compress::{CompressError, DecodePolicy};
use amrviz_obs::{context_scope, journal, TraceContext};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server configuration. `Default` is sized for tests and smoke runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Blob store directory.
    pub store_dir: PathBuf,
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Bounded admission queue depth; beyond this, shed with `RetryLater`.
    pub queue_depth: usize,
    /// Decoded-arena cache budget in bytes.
    pub cache_bytes: usize,
    /// Declared service-level objectives, evaluated over 5 m/1 h burn
    /// windows and surfaced in STATS snapshots + `slo` journal events.
    pub slo: SloSpec,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: PathBuf::from("serve_store"),
            workers: 2,
            queue_depth: 32,
            cache_bytes: 256 << 20,
            slo: SloSpec::default(),
        }
    }
}

/// Per-socket read/write timeout: a stalled or chaos-delayed peer can hold
/// a worker at most this long per syscall.
const IO_TIMEOUT: Duration = Duration::from_millis(2_000);

/// Cap on client-requested deadlines.
const MAX_DEADLINE_MS: u32 = 10_000;

/// When a request received at `t0` with a budget of `deadline_ms` must be
/// done: the client's budget, capped at [`MAX_DEADLINE_MS`].
fn request_deadline(t0: Instant, deadline_ms: u32) -> Instant {
    t0 + Duration::from_millis(deadline_ms.min(MAX_DEADLINE_MS) as u64)
}

/// Retry-after hint handed to shed clients.
const RETRY_AFTER_MS: u32 = 50;

/// When less than this fraction of a GET's deadline budget remains as its
/// stream is planned, only the coarse level is served.
const COARSE_ONLY_FRAC: f64 = 0.25;

/// How long an accept loop backs off after a failed `accept`, so that a
/// persistent error (out of file descriptors) does not spin the thread.
pub(crate) const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Wakes the accept loop blocked on `addr` (over loopback when it is
/// unspecified) with one connection. A failed connect means the listener is
/// gone, or that pending connections will show the loop its stop flag.
pub(crate) fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(Ipv4Addr::LOCALHOST.into());
    }
    let _ = TcpStream::connect_timeout(&addr, IO_TIMEOUT);
}

/// Declares the serve counters once. The list generates the shared atomics
/// ([`ServeStats`]), their point-in-time copy ([`StatsSnapshot`]),
/// `snapshot()` and `counters()`; the `SERVE_STATS` marker, the STATS
/// `requests` object and the drain journal event are all rendered from
/// `counters()`, so list order *is* the JSON key order CI greps.
macro_rules! serve_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Monotonic counters shared by all server threads.
        #[derive(Debug, Default)]
        pub struct ServeStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// Point-in-time copy of [`ServeStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ServeStats {
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        impl StatsSnapshot {
            /// Every counter as `(name, value)`, in declaration order.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }
    };
}

serve_counters! {
    requests,
    ok,
    degraded,
    shed,
    not_found,
    corrupt,
    timeout,
    bad_request,
    io_errors,
    panics,
    /// Data frames written at/after their deadline — the invariant counter;
    /// must be 0.
    post_deadline_responses,
    /// Streams cut (no END) because the deadline expired mid-response.
    deadline_aborts,
    coarse_only,
    cache_hits,
    cache_misses,
}

impl ServeStats {
    /// The one place a request's outcome is counted: the shed reply, the
    /// undecodable request and every finished request all come through here,
    /// each exactly once. `Internal` is a failed socket write or store read.
    fn count_outcome(&self, status: Status) {
        let counter = match status {
            Status::Ok => &self.ok,
            Status::Degraded => &self.degraded,
            Status::RetryLater => &self.shed,
            Status::NotFound => &self.not_found,
            Status::Corrupt => &self.corrupt,
            Status::Timeout => &self.timeout,
            Status::BadRequest => &self.bad_request,
            Status::Internal => &self.io_errors,
            Status::ShuttingDown => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// One-line JSON for the `SERVE_STATS` stdout marker and CI greps.
    pub fn to_json_line(&self) -> String {
        let pairs: Vec<String> = self
            .counters()
            .iter()
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect();
        format!("{{{}}}", pairs.join(","))
    }
}

struct Inner {
    cfg: ServeConfig,
    store: BlobStore,
    cache: ArenaCache,
    stats: ServeStats,
    telemetry: ReqTelemetry,
    stop: AtomicBool,
    /// Connections admitted and not yet taken by a worker (STATS
    /// `queue_depth`).
    queued: AtomicUsize,
}

/// An admitted connection with its admission timestamp, so queue-wait is
/// attributable per request.
type Admitted = (TcpStream, Instant);

impl Inner {
    fn new(cfg: ServeConfig, store: BlobStore) -> Inner {
        Inner {
            cache: ArenaCache::new(cfg.cache_bytes),
            stats: ServeStats::default(),
            telemetry: ReqTelemetry::new(cfg.slo.clone()),
            stop: AtomicBool::new(false),
            queued: AtomicUsize::new(0),
            store,
            cfg,
        }
    }
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live stats (threads may still be mutating them).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Begins graceful drain: stop accepting, finish queued work.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
    }

    /// Waits for drain to complete, flushes the journal, and returns the
    /// final stats. Call [`ServerHandle::shutdown`] first.
    pub fn join(mut self) -> StatsSnapshot {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // The accept thread's exit dropped the queue's sender: each worker
        // returns once the queue is empty.
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        let snap = self.inner.stats.snapshot();
        // Final SLO verdict as typed journal events, so a run's breach
        // state is on record even if nobody ever polled STATS.
        crate::slo::emit_journal(&self.inner.telemetry.slo_report());
        let mut fields = vec![
            ("role", "\"server\"".to_string()),
            ("event", "\"drain\"".to_string()),
        ];
        fields.extend(
            snap.counters()
                .iter()
                .map(|(name, v)| (*name, v.to_string())),
        );
        journal::emit("serve", &fields);
        journal::flush();
        snap
    }
}

/// Binds, spawns the accept thread and worker pool, and returns.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let store = BlobStore::open(&cfg.store_dir)
        .map_err(|e| std::io::Error::other(format!("store: {e}")))?;
    let (admit_tx, admit_rx) = sync_channel(cfg.queue_depth.max(1));
    let admitted = Arc::new(Mutex::new(admit_rx));
    let inner = Arc::new(Inner::new(cfg, store));

    let mut workers = Vec::new();
    for w in 0..inner.cfg.workers.max(1) {
        let (inner, admitted) = (Arc::clone(&inner), Arc::clone(&admitted));
        workers.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{w}"))
                .spawn(move || worker_loop(&inner, &admitted))?,
        );
    }
    let accept = {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_connections(&inner, &listener, &admit_tx))?
    };
    Ok(ServerHandle {
        addr,
        inner,
        accept: Some(accept),
        workers,
    })
}

/// Accepts until [`ServerHandle::shutdown`] sets the stop flag and wakes
/// it; the connection that woke it is dropped unserved.
fn accept_connections(inner: &Inner, listener: &TcpListener, queue: &SyncSender<Admitted>) {
    for stream in listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => admit(inner, queue, stream),
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Admission control: bounded queue, drop-newest with a typed shed reply.
fn admit(inner: &Inner, queue: &SyncSender<Admitted>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // Counted before the send, so a worker's decrement never precedes it.
    inner.queued.fetch_add(1, Ordering::Relaxed);
    if let Err(TrySendError::Full((mut stream, _)) | TrySendError::Disconnected((mut stream, _))) =
        queue.try_send((stream, Instant::now()))
    {
        inner.queued.fetch_sub(1, Ordering::Relaxed);
        inner.stats.count_outcome(Status::RetryLater);
        if journal::is_active() {
            journal::emit(
                "serve",
                &[
                    ("role", "\"server\"".into()),
                    ("event", "\"shed\"".into()),
                    ("retry_after_ms", RETRY_AFTER_MS.to_string()),
                ],
            );
        }
        // Shed requests count against availability in the SLO windows.
        inner.telemetry.record(Status::RetryLater, 0, None, 0, 0);
        // Best-effort typed reply from the accept thread (bounded by the
        // socket write timeout). The request frame is never read — shedding
        // must not depend on a possibly-slow client.
        write_notification(&mut stream, Status::RetryLater, 0);
    }
}

fn worker_loop(inner: &Inner, admitted: &Mutex<Receiver<Admitted>>) {
    loop {
        // Blocks until a connection is admitted; `Err` once the accept
        // thread has exited and the queue is drained.
        let next = admitted.lock().expect("no worker panics holding it").recv();
        let Ok((stream, admitted_at)) = next else {
            return;
        };
        inner.queued.fetch_sub(1, Ordering::Relaxed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(inner, stream, admitted_at)
        }));
        if result.is_err() {
            inner.stats.panics.fetch_add(1, Ordering::Relaxed);
            if journal::is_active() {
                journal::emit(
                    "serve",
                    &[("role", "\"server\"".into()), ("event", "\"panic\"".into())],
                );
            }
        }
    }
}

/// The single choke point for data-bearing frames: sample the clock, refuse
/// to write at/after the deadline. A refused write is counted here
/// (`deadline_aborts`); refused or failed, it comes back as the status that
/// ends the response, and that status is what `handle_connection` counts.
/// `post_deadline_responses` re-checks the *decision* timestamp after the
/// write — it can only increment if a write was started despite an expired
/// deadline, i.e. if this gate is broken.
fn write_gated(
    stream: &mut TcpStream,
    deadline: Instant,
    stats: &ServeStats,
    write: impl FnOnce(&mut TcpStream) -> std::io::Result<()>,
) -> Result<(), Status> {
    let decided_at = gate(deadline, stats)?;
    let written = write(stream);
    if decided_at >= deadline {
        stats
            .post_deadline_responses
            .fetch_add(1, Ordering::Relaxed);
    }
    // A socket error, or a frame that does not fit the wire (`InvalidInput`).
    written.map_err(|_| Status::Internal)
}

/// The gate's decision alone, for [`write_gated`] and a GET's END: the
/// decision time, or `Timeout` (counted in `deadline_aborts`) at or after
/// `deadline`.
fn gate(deadline: Instant, stats: &ServeStats) -> Result<Instant, Status> {
    let decided_at = Instant::now();
    if decided_at >= deadline {
        stats.deadline_aborts.fetch_add(1, Ordering::Relaxed);
        return Err(Status::Timeout);
    }
    Ok(decided_at)
}

/// What a handler leaves to [`respond`]: the status, levels sent and flags
/// it counts, and how the response ends once it is counted.
type Reply = (Status, u8, u8, End);

/// The END frame that closes a response, written after the request is
/// counted.
enum End {
    /// None: the stream was cut, and the prefix the client holds is the
    /// whole response.
    Cut,
    /// A notification's END: no levels, no elapsed time.
    Bare,
    /// The levels sent and the server-side elapsed time.
    Timed,
}

/// A header that announces no levels: every reply but a GET's data stream.
fn bare_header(status: Status, retry_after_ms: u32, key: u64) -> Vec<u8> {
    let (flags, n_levels) = (0, 0);
    RespHeader {
        status,
        flags,
        retry_after_ms,
        n_levels,
        key,
    }
    .encode()
}

fn end_frame(status: Status, levels_sent: u8, server_elapsed_us: u64) -> Vec<u8> {
    EndFrame {
        status,
        levels_sent,
        server_elapsed_us,
    }
    .encode()
}

fn us_since(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

/// Writes an error/notification header, with the retry-after hint on the
/// statuses a retry can help; its bare END follows once the request is
/// counted. Exempt from the deadline gate: a `Timeout` reply *is* the
/// deadline signal, and shed/corrupt/not-found replies carry no hierarchy
/// data.
fn notify(stream: &mut TcpStream, status: Status, key: u64) -> Reply {
    let retry = match status.is_retryable() {
        true => RETRY_AFTER_MS,
        false => 0,
    };
    let _ = proto::write_frame(stream, &bare_header(status, retry, key));
    (status, 0, 0, End::Bare)
}

/// A notification header and its END at once, for the replies counted
/// before they are written (a shed connection, a request that does not
/// decode).
fn write_notification(stream: &mut TcpStream, status: Status, key: u64) {
    notify(stream, status, key);
    let _ = proto::write_frame(stream, &end_frame(status, 0, 0));
}

fn handle_connection(inner: &Inner, mut stream: TcpStream, admitted_at: Instant) {
    let queue_wait_us = us_since(admitted_at);
    let payload = match proto::read_frame(&mut stream, MAX_REQUEST_FRAME) {
        Ok(Some(p)) => p,
        Ok(None) => return, // peer connected and left
        Err(_) => {
            inner.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let req = match Request::decode(&payload) {
        Ok(r) => r,
        Err(_) => {
            inner.stats.requests.fetch_add(1, Ordering::Relaxed);
            inner.stats.count_outcome(Status::BadRequest);
            write_notification(&mut stream, Status::BadRequest, 0);
            return;
        }
    };
    // Adopt the client's trace so journal lines from both halves stitch.
    let _scope = context_scope(TraceContext {
        parent: 0,
        trace: req.trace,
    });
    inner.stats.requests.fetch_add(1, Ordering::Relaxed);
    respond(inner, &mut stream, &req, Instant::now(), queue_wait_us);
}

/// Answers one request that started at `t0`: runs its handler, counts it,
/// writes END and journals it. Returns the counted status, levels sent and
/// flags.
fn respond(
    inner: &Inner,
    stream: &mut TcpStream,
    req: &Request,
    t0: Instant,
    queue_wait_us: u64,
) -> (Status, u8, u8) {
    let mut stages = None;
    let (status, levels_sent, flags, end) = match req.op {
        Op::Ping => notify(stream, Status::Ok, 0),
        Op::List => serve_list(inner, stream, req, t0),
        Op::Stats => serve_stats(inner, stream),
        Op::Get => {
            let st = stages.insert(StageTimes::default());
            st[Stage::QueueWait] = Some(queue_wait_us);
            serve_get(inner, stream, req, t0, st)
        }
    };
    let elapsed_us = us_since(t0);
    // The one accounting site, ahead of END: a client that holds END finds
    // its request in the next STATS poll. STATS polls are monitoring
    // traffic: answered, counted in `requests`, but excluded from the SLO
    // latency/availability windows so watching the server never moves its
    // own objectives.
    inner.stats.count_outcome(status);
    if req.op != Op::Stats {
        inner
            .telemetry
            .record(status, elapsed_us, stages.as_ref(), req.trace, req.key);
    }
    let end = match end {
        End::Cut => None,
        End::Bare => Some(end_frame(status, 0, 0)),
        End::Timed => Some(end_frame(status, levels_sent, elapsed_us)),
    };
    if let Some(end) = end {
        let _ = proto::write_frame(stream, &end);
    }
    // The line is rendered only for a listener: a request served with no
    // journal attached must not pay for ten `String`s nobody reads.
    if !journal::is_active() {
        return (status, levels_sent, flags);
    }
    let mut fields = vec![
        ("role", "\"server\"".into()),
        ("op", format!("\"{}\"", req.op.name())),
        ("status", format!("\"{}\"", status.name())),
        ("key", format!("\"{:016x}\"", req.key)),
        ("levels", levels_sent.to_string()),
        ("elapsed_us", elapsed_us.to_string()),
        ("degraded", ((flags & FLAG_DEGRADED) != 0).to_string()),
        ("coarse_only", ((flags & FLAG_COARSE_ONLY) != 0).to_string()),
    ];
    if let Some(st) = &stages {
        fields.push(("stages_us", st.to_json()));
        if let Some(us) = st.first_level_us {
            fields.push(("first_level_us", us.to_string()));
        }
    }
    journal::emit("serve", &fields);
    (status, levels_sent, flags)
}

/// Answers `Op::Stats`: one header, one STATS frame carrying the snapshot
/// JSON; END follows. Exempt from the deadline gate like other
/// notifications — the snapshot carries no hierarchy data, and an operator
/// polling a saturated server wants the answer, not a timeout.
fn serve_stats(inner: &Inner, stream: &mut TcpStream) -> Reply {
    let (cache_entries, cache_bytes) = inner.cache.stats();
    let queue_depth = inner.queued.load(Ordering::Relaxed);
    let snap = inner.stats.snapshot();
    let (json, slo) = inner.telemetry.snapshot_json(
        &snap,
        queue_depth,
        inner.cfg.workers.max(1),
        cache_entries,
        cache_bytes,
        inner.cfg.cache_bytes,
    );
    // Every poll also journals the SLO state as typed events, so burn-rate
    // history is reconstructible offline from the journal alone. It is the
    // report the snapshot's `slo` section shows, journaled outside the lock.
    crate::slo::emit_journal(&slo);
    let sent = [
        bare_header(Status::Ok, 0, 0),
        proto::encode_stats_frame(&json),
    ]
    .iter()
    .try_for_each(|payload| proto::write_frame(stream, payload));
    match sent {
        Ok(()) => (Status::Ok, 0, 0, End::Timed),
        Err(_) => (Status::Internal, 0, 0, End::Cut),
    }
}

fn serve_list(inner: &Inner, stream: &mut TcpStream, req: &Request, t0: Instant) -> Reply {
    let deadline = request_deadline(t0, req.deadline_ms);
    let Ok(keys) = inner.store.list() else {
        return notify(stream, Status::Internal, 0);
    };
    let sent = [
        bare_header(Status::Ok, 0, 0),
        proto::encode_keys_frame(&keys),
    ]
    .iter()
    .try_for_each(|payload| {
        let frame = |s: &mut TcpStream| proto::write_frame(s, payload);
        write_gated(stream, deadline, &inner.stats, frame)
    });
    match sent {
        Ok(()) => (Status::Ok, 0, 0, End::Timed),
        Err(status) => (status, 0, 0, End::Cut),
    }
}

/// One GET's response: the header when level 0 is ready, gated `LEVEL`
/// frames, then `END` once the request is counted. A cache hit and a
/// decoding miss feed it the same way — one level at a time, each the
/// moment it is final.
struct GetStream<'a> {
    inner: &'a Inner,
    stream: &'a mut TcpStream,
    req: &'a Request,
    st: &'a mut StageTimes,
    t0: Instant,
    deadline: Instant,
    /// Levels the source holds; set before the first level arrives.
    available: usize,
    /// `FLAG_DEGRADED` once repaired fabs are known of (failed checksums or
    /// the cached entry up front, each level's count after), `FLAG_COARSE_ONLY`.
    flags: u8,
    /// Levels the header announced, and the levels sent since.
    n_levels: usize,
    sent: u8,
    /// Whether the header is out.
    opened: bool,
    /// Why the stream ended early (no `END` follows), once it has.
    cut: Option<Status>,
}

impl GetStream<'_> {
    /// A gated write, timed; `false` means the stream is over — cut WITHOUT
    /// the END frame: the prefix the client holds is a valid progressive result.
    fn write(&mut self, frame: impl FnOnce(&mut TcpStream) -> std::io::Result<()>) -> bool {
        let write_t = Instant::now();
        self.cut = write_gated(self.stream, self.deadline, &self.inner.stats, frame).err();
        self.st.add_write(us_since(write_t));
        self.cut.is_none()
    }

    fn status(&self) -> Status {
        match self.flags & FLAG_DEGRADED {
            0 => Status::Ok,
            _ => Status::Degraded,
        }
    }

    /// Plans the stream now that level 0 is ready — cap at the client's max
    /// level, drop to coarse-only when the remaining budget is thin — and
    /// sends the header. Its flags are what is known now; `END`'s status
    /// adds what decoding the finer levels finds.
    fn open(&mut self) -> bool {
        let want = (self.req.max_level as usize + 1).min(self.available);
        self.n_levels = want.min(u8::MAX as usize);
        let thin = (self.deadline - self.t0).mul_f64(COARSE_ONLY_FRAC);
        if self.deadline.saturating_duration_since(Instant::now()) < thin {
            self.flags |= FLAG_COARSE_ONLY;
            self.inner.stats.coarse_only.fetch_add(1, Ordering::Relaxed);
            self.n_levels = 1;
        }
        let header = RespHeader {
            status: self.status(),
            flags: self.flags,
            retry_after_ms: 0,
            n_levels: self.n_levels as u8,
            key: self.req.key,
        };
        self.opened = self.write(|s| proto::write_frame(s, &header.encode()));
        self.opened
    }

    /// Takes one final level; `Break` once nothing more is to be sent.
    fn level(&mut self, lev: usize, mf: &MultiFab, degraded_fabs: u32) -> ControlFlow<()> {
        self.flags |= FLAG_DEGRADED * u8::from(degraded_fabs > 0);
        if (lev == 0 && !self.open())
            || !self.write(|s| proto::write_level_frame(s, lev, degraded_fabs, mf))
        {
            return ControlFlow::Break(());
        }
        self.sent += 1;
        let t0 = self.t0;
        self.st.first_level_us.get_or_insert_with(|| us_since(t0));
        match (self.sent as usize) < self.n_levels {
            true => ControlFlow::Continue(()),
            false => ControlFlow::Break(()),
        }
    }

    /// The authoritative status. `END` passes the deadline gate here, like
    /// every frame before it, and is written once the request is counted.
    fn finish(mut self) -> Reply {
        if self.cut.is_none() {
            self.cut = gate(self.deadline, &self.inner.stats).err();
        }
        let (status, end) = match self.cut {
            // Nothing sent yet: a typed Timeout is still possible.
            Some(Status::Timeout) if !self.opened => {
                notify(self.stream, Status::Timeout, self.req.key);
                (Status::Timeout, End::Bare)
            }
            Some(cut) => (cut, End::Cut),
            None => (self.status(), End::Timed),
        };
        (status, self.sent, self.flags, end)
    }
}

fn decode_failure(e: &CompressError) -> Status {
    match e.is_deadline() {
        true => Status::Timeout,
        false => Status::Corrupt,
    }
}

/// A cache miss: read and validate the artifact, then decode it coarse →
/// fine into `out`, each level leaving as soon as it is final (the decode
/// loops carry the deadline and bail cooperatively). `Err` is a failure
/// before the header, which a typed notification can still report; later
/// ones cut the stream. The cache entry is complete or absent.
fn decode_into_stream(out: &mut GetStream<'_>) -> Result<(), Status> {
    let (inner, key) = (out.inner, out.req.key);
    inner.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
    let stage_t = Instant::now();
    let bytes = match inner.store.get(key) {
        Ok(b) => b,
        Err(StoreError::NotFound) => return Err(Status::NotFound),
        Err(StoreError::Corrupt { .. }) => return Err(Status::Corrupt),
        Err(StoreError::Io(_)) => return Err(Status::Internal),
    };
    out.st[Stage::StoreRead] = Some(us_since(stage_t));
    let budget = DecodeBudget::permissive().with_deadline(out.deadline);
    let stage_t = Instant::now();
    let art = decode_artifact(&bytes, &budget).map_err(|e| decode_failure(&e))?;
    // Failed checksums are known before the header and announced in it;
    // damage only decoding finds shows in its LEVEL frame and in END.
    out.flags = FLAG_DEGRADED * u8::from(art.container.checksum_failures() > 0);
    out.available = art.hier.num_levels();
    out.st[Stage::StructureValidate] = Some(us_since(stage_t));
    let mut levels = inner.cache.take_arena();
    let mut degraded_fabs = Vec::new();
    let (stage_t, written_us) = (Instant::now(), out.st[Stage::Write].unwrap_or(0));
    let policy = DecodePolicy::Degrade;
    let walked = art.decode_levels(policy, &budget, &mut levels, |lev, mf, degraded| {
        degraded_fabs.push(degraded);
        out.level(lev, mf, degraded)
    });
    // Frame writes ran inside the walk; they are the write stage's time.
    let written_us = out.st[Stage::Write].unwrap_or(0) - written_us;
    out.st[Stage::Decode] = Some(us_since(stage_t).saturating_sub(written_us));
    match walked.map_err(|e| decode_failure(&e)) {
        Err(status) if degraded_fabs.is_empty() => return Err(status),
        // The header is out: cut the stream, as an expired write would.
        Err(status) => {
            if status == Status::Timeout {
                inner.stats.deadline_aborts.fetch_add(1, Ordering::Relaxed);
            }
            out.cut = Some(status);
        }
        Ok(_) if degraded_fabs.len() == out.available => {
            let entry = DecodedEntry {
                levels,
                degraded_fabs,
            };
            inner.cache.insert(key, entry);
        }
        Ok(_) => {}
    }
    Ok(())
}

fn serve_get(
    inner: &Inner,
    stream: &mut TcpStream,
    req: &Request,
    t0: Instant,
    st: &mut StageTimes,
) -> Reply {
    let deadline = request_deadline(t0, req.deadline_ms);
    if Instant::now() >= deadline {
        return notify(stream, Status::Timeout, req.key);
    }
    let mut out = GetStream {
        inner,
        stream,
        req,
        st,
        t0,
        deadline,
        available: 0,
        flags: 0,
        n_levels: 0,
        sent: 0,
        opened: false,
        cut: None,
    };
    if let Some(entry) = inner.cache.get(req.key) {
        // Cache hit: the read/validate/decode stages never ran; their
        // absence in the breakdown is the "warm cache" signal.
        inner.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        out.available = entry.levels.len();
        out.flags = FLAG_DEGRADED * u8::from(entry.is_degraded());
        let levels = entry.levels.iter().zip(&entry.degraded_fabs);
        let _ = levels
            .enumerate()
            .try_for_each(|(lev, (mf, &degraded))| out.level(lev, mf, degraded));
    } else if let Err(status) = decode_into_stream(&mut out) {
        return notify(out.stream, status, req.key);
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every counter set to its 1-based position in the declared order.
    fn numbered() -> StatsSnapshot {
        let stats = ServeStats::default();
        let atomics = [
            &stats.requests,
            &stats.ok,
            &stats.degraded,
            &stats.shed,
            &stats.not_found,
            &stats.corrupt,
            &stats.timeout,
            &stats.bad_request,
            &stats.io_errors,
            &stats.panics,
            &stats.post_deadline_responses,
            &stats.deadline_aborts,
            &stats.coarse_only,
            &stats.cache_hits,
            &stats.cache_misses,
        ];
        for (i, a) in atomics.iter().enumerate() {
            a.store(i as u64 + 1, Ordering::Relaxed);
        }
        stats.snapshot()
    }

    #[test]
    fn snapshot_round_trips_every_counter() {
        let snap = numbered();
        let values: Vec<u64> = snap.counters().iter().map(|(_, v)| *v).collect();
        assert_eq!(values, (1..=15).collect::<Vec<u64>>());
        assert_eq!(
            (snap.requests, snap.io_errors, snap.cache_misses),
            (1, 9, 15)
        );
    }

    #[test]
    fn json_line_key_order_is_pinned() {
        // CI greps substrings of this line (`"cache_hits":0,`, `"panics":0`),
        // so the key order is a contract, not a rendering detail.
        assert_eq!(
            numbered().to_json_line(),
            "{\"requests\":1,\"ok\":2,\"degraded\":3,\"shed\":4,\"not_found\":5,\
             \"corrupt\":6,\"timeout\":7,\"bad_request\":8,\"io_errors\":9,\"panics\":10,\
             \"post_deadline_responses\":11,\"deadline_aborts\":12,\"coarse_only\":13,\
             \"cache_hits\":14,\"cache_misses\":15}"
        );
    }

    #[test]
    fn each_outcome_bumps_exactly_its_own_counter() {
        let stats = ServeStats::default();
        for code in 0..=u8::MAX {
            if let Some(status) = Status::from_code(code) {
                stats.count_outcome(status);
            }
        }
        let snap = stats.snapshot();
        let expect = StatsSnapshot {
            ok: 1,
            degraded: 1,
            shed: 1,
            not_found: 1,
            corrupt: 1,
            timeout: 1,
            bad_request: 1,
            io_errors: 1,
            ..Default::default()
        };
        assert_eq!(snap, expect, "ShuttingDown counts nowhere");
    }

    /// An idle server's accept thread is blocked in `accept`, so `shutdown`
    /// must wake it or `join` never returns; the watchdog turns a missed
    /// wake into a failure. The unspecified bind address is woken over
    /// loopback, and the waking connection is never served.
    #[test]
    fn idle_server_shutdown_and_join_return() {
        let dir = std::env::temp_dir().join(format!("amrviz_idle_join_{}", std::process::id()));
        let server = start(ServeConfig {
            addr: "0.0.0.0:0".into(),
            store_dir: dir.clone(),
            ..ServeConfig::default()
        })
        .unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = done_tx.send(server.join());
        });
        let stats = done_rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(stats.expect("join returned").requests, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// LIST and GET share one deadline rule: the client's budget, capped.
    #[test]
    fn client_deadlines_are_capped_at_ten_seconds() {
        let t0 = Instant::now();
        for (asked, granted) in [(0, 0), (10_000, 10_000), (u32::MAX, 10_000)] {
            let budget = request_deadline(t0, asked) - t0;
            assert_eq!(budget, Duration::from_millis(granted), "asked {asked} ms");
        }
    }

    /// A GET whose budget is thin when its stream is planned gets only the
    /// coarse level, and a decode stopped there leaves nothing to cache. The
    /// request's start is backdated so that 80 % of its budget is spent.
    #[test]
    fn coarse_only_miss_sends_one_level_and_caches_nothing() {
        use amrviz_compress::{compress_hierarchy_field, AmrCodecConfig, ErrorBound, SzLr};
        use amrviz_sim::{NyxScenario, Scale};
        let dir = std::env::temp_dir().join(format!("amrviz_coarse_only_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = BlobStore::open(&dir).unwrap();
        let hier = NyxScenario::new(Scale::Tiny, 11).generate();
        let (field, cfg) = ("baryon_density", AmrCodecConfig::default());
        let bound = ErrorBound::Rel(1e-3);
        let container = compress_hierarchy_field(&hier, field, &SzLr::default(), bound, &cfg);
        let artifact = crate::encode_artifact(&hier, field, "szlr", &container.unwrap());
        let key = store.put(&artifact).unwrap();
        let cfg = ServeConfig {
            store_dir: dir.clone(),
            ..ServeConfig::default()
        };
        let inner = Inner::new(cfg, store);
        let req = Request {
            op: Op::Get,
            trace: 0,
            key,
            deadline_ms: 10_000,
            max_level: 0xFF,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        for round in 1..=2 {
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (mut conn, _) = listener.accept().unwrap();
            conn.set_write_timeout(Some(IO_TIMEOUT)).unwrap();
            let t0 = Instant::now() - Duration::from_secs(8);
            let served = std::thread::scope(|s| {
                let server = s.spawn(|| respond(&inner, &mut conn, &req, t0, 0));
                let mut frame = || {
                    proto::read_frame(&mut client, proto::MAX_RESPONSE_FRAME)
                        .unwrap()
                        .unwrap()
                };
                let header = RespHeader::decode(&frame()).unwrap();
                assert_eq!((header.n_levels, header.flags), (1, FLAG_COARSE_ONLY));
                proto::decode_level_frame(&frame(), &DecodeBudget::permissive()).unwrap();
                let end = EndFrame::decode(&frame()).unwrap();
                assert_eq!((end.status, end.levels_sent), (Status::Ok, 1));
                server.join().unwrap()
            });
            assert_eq!(served, (Status::Ok, 1, FLAG_COARSE_ONLY));
            drop(conn);
            let rest = proto::read_frame(&mut client, proto::MAX_RESPONSE_FRAME);
            assert!(rest.unwrap().is_none(), "END is the last frame");
            let stats = inner.stats.snapshot();
            let counts = (stats.cache_misses, stats.cache_hits, stats.coarse_only);
            assert_eq!(counts, (round, 0, round));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
