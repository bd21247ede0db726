//! The request clock: an in-process `amrviz serve` over a store of eight
//! artifacts, driven by the benchmark's own measuring client — the
//! program's `client::exchange` does not timestamp the first LEVEL frame.
//! `serve_cold` runs with a one-byte cache so every request decodes;
//! `serve_hot` with the default cache so none does.

use crate::input::{build_input, shuffle, Input};
use crate::load::{closed_loop, open_loop, Shot};
use crate::probe::{self, timed};
use crate::run::{ms, peak_rss_mib, write_spans, Outcome, RunOpts, Tally, SETUP_REPEATS};
use crate::spec::{Metrics, Spec};
use crate::stats::{best_window_rate, mean_of_fastest, p50, percentile};
use crate::trace::{per_op_seconds, Span, Tracer};
use amrviz_codec::{fnv1a_64, DecodeBudget};
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, decompress_hierarchy_field_into,
    AmrCodecConfig, DecodePolicy, ErrorBound,
};
use amrviz_core::prelude::*;
use amrviz_json::Json;
use amrviz_rng::Rng;
use amrviz_serve::proto::{
    decode_level_frame, encode_level_frame, read_frame, write_frame, EndFrame, MAX_RESPONSE_FRAME,
};
use amrviz_serve::{
    compressor_for, decode_artifact, encode_artifact, exchange, BlobStore, ClientConfig, Op,
    Request, RespHeader, ServeConfig, ServerHandle, StatsSnapshot, Status,
};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const DEADLINE_MS: u32 = 2000;
/// Allowance past the deadline before an arriving frame counts as late
/// (the program's own client uses the same).
const LATE_GRACE: Duration = Duration::from_millis(500);
const IO_TIMEOUT: Duration = Duration::from_secs(3);
/// Latency limit of the capacity measurement: a phase-B request counts
/// only if it ended `Ok`, delivered every level, and took at most this.
const CAPACITY_LIMIT_S: f64 = 0.200;
/// Window of the capacity measurement: `serve.capacity_rps` is the rate
/// of the best such stretch of phase B.
const CAPACITY_WINDOW_S: f64 = 1.0;
/// Share of `--seconds` spent in the open loop, whose latencies are the
/// end-to-end times; the rest is the closed loop.
const OPEN_LOOP_SHARE: f64 = 0.75;
/// Open-loop sender threads (`nproc` is 2).
const SENDERS: usize = 2;
/// Closed-loop clients. Two do not saturate the two workers: each waits
/// out the accept thread's 5 ms poll, and the rate they reach wanders
/// between 150 and 200 req/s on the hot workload from run to run. Four
/// keep a connection queued behind every worker (about 225 req/s).
const CLIENTS: usize = 4;
const REL_EB: f64 = 1e-3;

/// One stored artifact and what a correct response to it looks like.
struct Artifact {
    bytes: Vec<u8>,
    algo: &'static str,
    nyx: bool,
    raw_mb: f64,
    cr: f64,
    /// Per level: cells, fabs, and the FNV-1a of the exact LEVEL payload
    /// (`proto::encode_level_frame` of a local strict decode).
    levels: Vec<(u64, u64, u64)>,
}

/// Compresses `input` with `algo`, checks the error bound against the
/// original, and packs the artifact.
fn make_artifact(input: &Input, algo: &'static str, tally: &mut Tally) -> Artifact {
    let comp = compressor_for(algo).expect("known algorithm");
    let cfg = AmrCodecConfig::default();
    let c = compress_hierarchy_field(
        &input.hier,
        input.field,
        comp.as_ref(),
        ErrorBound::Rel(REL_EB),
        &cfg,
    )
    .expect("the evaluation field exists");
    let decoded = decompress_hierarchy_field(&input.hier, &c, comp.as_ref(), &cfg)
        .expect("own stream decodes");
    let original = &input.hier.field(input.field).expect("field exists").levels;
    let mut problems = Vec::new();
    let mut levels = Vec::new();
    for (lev, (mf, orig)) in decoded.iter().zip(original).enumerate() {
        let err = orig
            .to_flat()
            .iter()
            .zip(&mf.to_flat())
            .fold(0.0f64, |m, (o, d)| m.max((o - d).abs()));
        // `!(a <= b)` so that a NaN error fails the check too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(err <= c.abs_eb * (1.0 + 1e-12)) {
            problems.push(format!(
                "level {lev}: max error {err:e} exceeds {:e}",
                c.abs_eb
            ));
        }
        let frame = encode_level_frame(lev, 0, mf);
        levels.push((mf.num_cells() as u64, mf.len() as u64, fnv1a_64(&frame)));
    }
    tally.record(
        || format!("artifact {} {algo}", input.app.label()),
        &problems,
    );
    Artifact {
        bytes: encode_artifact(&input.hier, input.field, algo, &c),
        algo,
        nyx: input.app == Application::Nyx,
        raw_mb: input.raw_mb(),
        cr: (c.n_values * 8) as f64 / c.compressed_bytes() as f64,
        levels,
    }
}

/// The eight artifacts: three Nyx realisations and one WarpX, each with
/// SZ-L/R and SZ-Interp, made one input at a time so that making them
/// does not set the process's peak memory. A traced run keeps the first
/// Nyx input for the codec probe.
fn make_artifacts(opts: &RunOpts, tally: &mut Tally) -> (Vec<Artifact>, Option<Input>) {
    let mut rng = Rng::seed(opts.seed);
    let mut artifacts = Vec::new();
    let mut probe_input = None;
    for (app, index) in [
        (Application::Nyx, 0),
        (Application::Nyx, 1),
        (Application::Nyx, 2),
        (Application::Warpx, 0),
    ] {
        let input = build_input(app, opts.scale, index, &mut rng);
        for algo in ["szlr", "szinterp"] {
            artifacts.push(make_artifact(&input, algo, tally));
        }
        if opts.trace && probe_input.is_none() {
            probe_input = Some(input);
        }
    }
    (artifacts, probe_input)
}

/// A running server over a freshly populated store.
struct Server {
    handle: ServerHandle,
    dir: PathBuf,
    /// Store key per artifact.
    keys: Vec<u64>,
}

impl Server {
    fn stop(self) -> (StatsSnapshot, PathBuf) {
        self.handle.shutdown();
        (self.handle.join(), self.dir)
    }
}

/// Store population, server start and one checked warm GET per key in
/// ring order: everything `setup_s` times on the serve workloads.
fn setup(
    name: &str,
    nth: usize,
    artifacts: &[Artifact],
    ring: &[usize],
    opts: &RunOpts,
    tally: &mut Tally,
) -> Server {
    let dir = opts
        .out_dir
        .join(format!("store_{name}_{}_{nth}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = BlobStore::open(&dir).expect("store directory is writable");
    let keys: Vec<u64> = artifacts
        .iter()
        .map(|a| store.put(&a.bytes).expect("store accepts the artifact"))
        .collect();
    let mut cfg = ServeConfig {
        store_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    };
    if name == "serve_cold" {
        // Working set ≫ cache: nothing decoded is ever kept.
        cfg.cache_bytes = 1;
    }
    let handle = amrviz_serve::start(cfg).expect("server binds a loopback port");
    let mut idle = Tracer::new(Instant::now());
    for &i in ring {
        let reply = request(handle.addr(), keys[i], &artifacts[i], true, &mut idle);
        tally.record(|| format!("warm GET {:016x}", keys[i]), &reply.problems);
    }
    Server { handle, dir, keys }
}

/// What the measuring client saw of one request.
struct Reply {
    problems: Vec<String>,
    start: Instant,
    /// First LEVEL frame parsed.
    first: Option<Instant>,
    end: Instant,
    /// Payload bytes received.
    bytes: u64,
    /// Seconds from the header to END.
    stream_s: f64,
    server_elapsed_s: f64,
    late_frames: u64,
    nyx: bool,
    spans: Vec<Span>,
}

/// One GET on a fresh connection, every frame parsed and checked against
/// `art`. With `deep`, every LEVEL payload must also hash to the expected
/// bytes. Never panics on a bad response: what went wrong is named in
/// `problems`.
fn request(addr: SocketAddr, key: u64, art: &Artifact, deep: bool, tr: &mut Tracer) -> Reply {
    let start = Instant::now();
    let late_after = start + Duration::from_millis(DEADLINE_MS as u64) + LATE_GRACE;
    let mut r = Reply {
        problems: Vec::new(),
        start,
        first: None,
        end: start,
        bytes: 0,
        stream_s: 0.0,
        server_elapsed_s: 0.0,
        late_frames: 0,
        nyx: art.nyx,
        spans: Vec::new(),
    };
    let root = tr.begin("request");
    if let Err(what) = converse(addr, key, art, deep, late_after, tr, &mut r) {
        r.problems.push(what);
    }
    r.end = Instant::now();
    tr.end(root);
    r
}

fn converse(
    addr: SocketAddr,
    key: u64,
    art: &Artifact,
    deep: bool,
    late_after: Instant,
    tr: &mut Tracer,
    r: &mut Reply,
) -> Result<(), String> {
    let open = tr.begin("serve.connect");
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT);
    tr.end(open);
    let mut stream = stream.map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));

    let next_frame = |stream: &mut TcpStream, r: &mut Reply| -> Result<Vec<u8>, String> {
        let payload = read_frame(stream, MAX_RESPONSE_FRAME)
            .map_err(|e| format!("read: {e}"))?
            .ok_or("stream closed before END")?;
        r.bytes += payload.len() as u64;
        r.late_frames += u64::from(Instant::now() > late_after);
        Ok(payload)
    };

    let open = tr.begin("serve.header_wait");
    let req = Request {
        op: Op::Get,
        trace: key ^ r.start.elapsed().as_nanos() as u64,
        key,
        deadline_ms: DEADLINE_MS,
        max_level: 0xFF,
    };
    let header = write_frame(&mut stream, &req.encode())
        .map_err(|e| format!("write: {e}"))
        .and_then(|()| next_frame(&mut stream, r));
    tr.end(open);
    let header = RespHeader::decode(&header?).map_err(|e| format!("header: {e}"))?;
    if header.status != Status::Ok || header.flags != 0 || header.key != key {
        return Err(format!("header {header:?}"));
    }
    if header.n_levels as usize != art.levels.len() {
        return Err(format!(
            "{} levels announced, {} expected",
            header.n_levels,
            art.levels.len()
        ));
    }

    let open = tr.begin("serve.stream");
    let streamed = Instant::now();
    let budget = DecodeBudget::permissive();
    let mut outcome = Ok(());
    for (lev, &(cells, fabs, hash)) in art.levels.iter().enumerate() {
        let payload = match next_frame(&mut stream, r) {
            Ok(p) => p,
            Err(e) => {
                outcome = Err(e);
                break;
            }
        };
        let parsed = tr.span("serve.frame_parse", || {
            decode_level_frame(&payload, &budget)
        });
        match parsed {
            Ok(s)
                if (s.level as usize, s.cells, s.fabs, s.degraded_fabs)
                    == (lev, cells, fabs, 0) => {}
            other => {
                outcome = Err(format!("level {lev}: {other:?}"));
                break;
            }
        }
        r.first.get_or_insert_with(Instant::now);
        if deep && tr.span("check.frame", || fnv1a_64(&payload)) != hash {
            r.problems
                .push(format!("level {lev}: payload differs from a local decode"));
        }
    }
    if outcome.is_ok() {
        outcome = next_frame(&mut stream, r).and_then(|p| {
            let end = EndFrame::decode(&p).map_err(|e| format!("end: {e}"))?;
            r.server_elapsed_s = end.server_elapsed_us as f64 * 1e-6;
            if end.status != Status::Ok || end.levels_sent as usize != art.levels.len() {
                return Err(format!("end {end:?}"));
            }
            Ok(())
        });
    }
    r.stream_s = streamed.elapsed().as_secs_f64();
    tr.end(open);
    outcome
}

/// Whether a traced run records the spans of the request at `index` of the
/// ring walk.
fn recorded(index: usize, ring_len: usize) -> bool {
    (index / ring_len).is_multiple_of(2)
}

/// A request's two latencies in seconds from `from`: to the first level
/// and to END. A failed request is charged at least the deadline, so it
/// misses any latency limit.
fn latencies(r: &Reply, from: Instant) -> (f64, f64) {
    let tte = (r.end - from).as_secs_f64();
    let ttfl = r.first.map_or(tte, |t| (t - from).as_secs_f64());
    if r.problems.is_empty() {
        (ttfl, tte)
    } else {
        let floor = f64::from(DEADLINE_MS) * 1e-3;
        (ttfl.max(floor), tte.max(floor))
    }
}

/// The in-band `Op::Stats` snapshot: per stage, `(count, p50 µs)`.
fn stage_stats(addr: SocketAddr) -> Vec<(String, f64, f64)> {
    let req = Request {
        op: Op::Stats,
        trace: 0,
        key: 0,
        deadline_ms: DEADLINE_MS,
        max_level: 0,
    };
    let ex = exchange(addr, &req, &ClientConfig::default());
    let doc = ex.stats.as_deref().and_then(|s| Json::parse(s).ok());
    let Some(Json::Obj(stages)) = doc.as_ref().and_then(|d| d.get("stages_us")).cloned() else {
        return Vec::new();
    };
    stages
        .into_iter()
        .filter_map(|(name, views)| {
            let life = views.get("lifetime")?;
            Some((
                name,
                life.get("count")?.as_f64()?,
                life.get("p50")?.as_f64()?,
            ))
        })
        .collect()
}

/// Probe: the miss path replayed one request at a time through the same
/// public functions the server calls, each key three times in ring order.
/// Returns the seconds of the five stages (store read, validate, decode,
/// frame encode, frame parse) and the decode MB/s per algorithm (szlr,
/// szinterp).
fn miss_path_probe(
    dir: &Path,
    keys: &[u64],
    artifacts: &[Artifact],
    ring: &[usize],
    tally: &mut Tally,
) -> ([Vec<f64>; 5], [Vec<f64>; 2]) {
    let store = BlobStore::open(dir).expect("store directory still exists");
    let cfg = AmrCodecConfig::default();
    let mut stage_s: [Vec<f64>; 5] = Default::default();
    let mut dec_mbs: [Vec<f64>; 2] = Default::default();
    let mut levels = Vec::new();
    for _ in 0..3 {
        for &i in ring {
            let budget = DecodeBudget::permissive()
                .with_deadline(Instant::now() + Duration::from_millis(DEADLINE_MS as u64));
            let (bytes, read_s) = timed(|| store.get(keys[i]).expect("blob is in the store"));
            let (art, validate_s) =
                timed(|| decode_artifact(&bytes, &budget).expect("artifact parses"));
            let comp = compressor_for(&art.algo).expect("known algorithm");
            let (report, decode_s) = timed(|| {
                decompress_hierarchy_field_into(
                    &art.hier,
                    &art.container,
                    comp.as_ref(),
                    &cfg,
                    DecodePolicy::Degrade,
                    &budget,
                    &mut levels,
                )
            });
            let mut problems = Vec::new();
            if !report.is_ok_and(|r| r.is_clean()) {
                problems.push("decode was not clean".to_string());
            }
            tally.record(|| format!("probe decode {:016x}", keys[i]), &problems);
            let (frames, encode_s) = timed(|| {
                levels
                    .iter()
                    .enumerate()
                    .map(|(lev, mf)| encode_level_frame(lev, 0, mf))
                    .collect::<Vec<_>>()
            });
            let ((), parse_s) = timed(|| {
                for f in &frames {
                    std::hint::black_box(decode_level_frame(f, &budget).expect("own frame parses"));
                }
            });
            for (samples, s) in stage_s
                .iter_mut()
                .zip([read_s, validate_s, decode_s, encode_s, parse_s])
            {
                samples.push(s);
            }
            dec_mbs[usize::from(artifacts[i].algo == "szinterp")]
                .push(artifacts[i].raw_mb / decode_s);
        }
    }
    (stage_s, dec_mbs)
}

/// Runs one serve workload.
pub fn run<'a>(name: &str, opts: &RunOpts, spec: &'a Spec) -> Outcome<'a> {
    let cold = name == "serve_cold";
    // Fixed rates, about a third of what the closed loop reaches today:
    // light enough that a request rarely meets the one before it, so the
    // latencies read the request path and the capacity reads the load.
    let rate_hz = if cold { 20.0 } else { 60.0 };
    let mut tally = Tally::default();
    let mut warnings = Vec::new();
    let (artifacts, probe_input) = make_artifacts(opts, &mut tally);
    // Keys in seeded ring order. Warm-up, open loop and closed loop walk
    // the one ring without a break, so a key is never asked for again
    // before the seven others were (the cold cache keeps its last entry).
    let mut ring: Vec<usize> = (0..artifacts.len()).collect();
    shuffle(&mut ring, &mut Rng::seed(opts.seed).fork(1));

    let repeats = if opts.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut server: Option<Server> = None;
    for nth in 0..repeats {
        if let Some(old) = server.take() {
            let (_, dir) = old.stop();
            let _ = std::fs::remove_dir_all(dir);
        }
        let t = Instant::now();
        server = Some(setup(name, nth, &artifacts, &ring, opts, &mut tally));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let addr = server.handle.addr();

    let epoch = Instant::now();
    let call = |op: u64, index: usize| {
        let mut tr = Tracer::new(epoch);
        // Whole rounds of the ring alternate between recorded and not, so
        // both halves see the same key mix.
        tr.start_op(op, opts.trace && recorded(index, ring.len()));
        let art = &artifacts[ring[index % ring.len()]];
        let mut reply = request(
            addr,
            server.keys[ring[index % ring.len()]],
            art,
            false,
            &mut tr,
        );
        reply.spans = tr.into_spans();
        reply
    };

    let before = server.handle.stats();
    let stages_before = if opts.trace {
        stage_stats(addr)
    } else {
        Vec::new()
    };

    // Phase A: open loop at the fixed rate.
    let slots = ((rate_hz * opts.seconds * OPEN_LOOP_SHARE).round() as usize).max(2 * ring.len());
    let phase_a: Vec<Shot<Reply>> = open_loop(rate_hz, slots, SENDERS, |slot, _due| {
        call(slot as u64, slot)
    });
    // Phase B: closed loop. Every client takes the next key of the one
    // ring, so the mix is the ring's at any seed.
    let phase_b_s = (opts.seconds * (1.0 - OPEN_LOOP_SHARE)).max(0.05);
    let next = AtomicU64::new(slots as u64);
    let (phase_b, start_b) = closed_loop(CLIENTS, Duration::from_secs_f64(phase_b_s), |_, _| {
        let i = next.fetch_add(1, Ordering::Relaxed);
        call((1 << 40) | i, i as usize)
    });

    let after = server.handle.stats();
    let stages_after = if opts.trace {
        stage_stats(addr)
    } else {
        Vec::new()
    };
    let peak_rss = peak_rss_mib();

    // One more GET per key with the payload hashed: on the hot workload
    // this is what checks the bytes the cache serves.
    let mut idle = Tracer::new(epoch);
    for (key, art) in server.keys.iter().zip(&artifacts) {
        let reply = request(addr, *key, art, true, &mut idle);
        tally.record(|| format!("closing GET {key:016x}"), &reply.problems);
    }
    let keys = server.keys.clone();
    let (last, dir) = server.stop();
    let mut invariants = Vec::new();
    if last.panics != 0 {
        invariants.push(format!("{} worker panics", last.panics));
    }
    if last.post_deadline_responses != 0 {
        invariants.push(format!(
            "{} frames written after their deadline",
            last.post_deadline_responses
        ));
    }
    tally.record(|| "server invariants at shutdown".into(), &invariants);

    for (phase, shots) in [("A", &phase_a), ("B", &phase_b)] {
        for s in shots.iter() {
            tally.record(
                || format!("phase {phase} request {:#x}", s.slot),
                &s.out.problems,
            );
        }
    }
    let (mut ttfl, mut tte, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    for s in &phase_a {
        let (f, e) = latencies(&s.out, s.due);
        ttfl.push(f);
        tte.push(e);
        lag.push(s.lag_s());
    }
    // When each phase-B request that met the limit completed.
    let good_at: Vec<f64> = phase_b
        .iter()
        .filter(|s| latencies(&s.out, s.out.start).1 <= CAPACITY_LIMIT_S)
        .map(|s| (s.end - start_b).as_secs_f64())
        .collect();
    let capacity = best_window_rate(&good_at, phase_b_s, CAPACITY_WINDOW_S);
    let lookups =
        (after.cache_hits - before.cache_hits) + (after.cache_misses - before.cache_misses);
    let hit_ratio = (after.cache_hits - before.cache_hits) as f64 / lookups.max(1) as f64;
    let want_ratio = if cold { 0.0 } else { 1.0 };
    if hit_ratio != want_ratio {
        warnings.push(format!(
            "cache hit ratio is {hit_ratio}, not {want_ratio}: this is no longer the {name} workload"
        ));
    }
    println!(
        "{name}: {} artifacts ({:.1} MB decoded), phase A {} requests at {rate_hz}/s: to first \
         level p50 {:.2} ms, to END p50 {:.2} ms, p90 {:.2} ms; phase B {} requests in \
         {phase_b_s:.2} s ({} within {} ms, best {CAPACITY_WINDOW_S} s window {capacity:.1}/s); \
         set-up samples {setup_s:?}",
        artifacts.len(),
        artifacts.iter().map(|a| a.raw_mb).sum::<f64>(),
        phase_a.len(),
        ms(p50(&ttfl)),
        ms(p50(&tte)),
        ms(percentile(&tte, 90.0)),
        phase_b.len(),
        good_at.len(),
        ms(CAPACITY_LIMIT_S),
    );

    if !opts.trace {
        let _ = std::fs::remove_dir_all(dir);
        let mut m = Metrics::required(&spec.end_to_end);
        m.set("setup_s", p50(&setup_s));
        // Per key the fastest request of phase A, averaged over the keys.
        let key_of = |s: &Shot<Reply>| ring[s.slot % ring.len()];
        let per_key =
            |lat: &[f64]| mean_of_fastest(phase_a.iter().map(key_of).zip(lat.iter().copied()));
        m.set("first_min_ms", ms(per_key(&ttfl)));
        m.set("op_min_ms", ms(per_key(&tte)));
        m.set("peak_rss_mb", peak_rss);
        let n = artifacts.len() as f64;
        m.set(
            "cr",
            (artifacts.iter().map(|a| a.cr.ln()).sum::<f64>() / n).exp(),
        );
        return Outcome {
            metrics: m,
            tally,
            warnings,
            spans: Vec::new(),
        };
    }

    let mut m = Metrics::zeroed(&spec.per_layer);
    let replies = || phase_a.iter().chain(&phase_b).map(|s| &s.out);
    let a_replies = || phase_a.iter().map(|s| &s.out);
    let spans: Vec<Span> = replies().flat_map(|r| r.spans.iter().cloned()).collect();
    // Client spans of the open loop only (its operations are numbered
    // below 2⁴⁰): in the closed loop a request queues behind three others
    // by design.
    let med_ms = |prefix: &str| {
        let open_loop = spans.iter().filter(|s| s.op < 1 << 40);
        ms(p50(&per_op_seconds(open_loop, prefix)))
    };
    m.set("serve.connect_ms", med_ms("serve.connect"));
    m.set("serve.header_wait_ms", med_ms("serve.header_wait"));
    m.set("serve.stream_ms", med_ms("serve.stream"));
    m.set(
        "serve.server_elapsed_p50_ms",
        ms(p50(&a_replies()
            .map(|r| r.server_elapsed_s)
            .collect::<Vec<_>>())),
    );
    m.set(
        "serve.client_overhead_p50_ms",
        ms(p50(&a_replies()
            .map(|r| (r.end - r.start).as_secs_f64() - r.server_elapsed_s)
            .collect::<Vec<_>>())),
    );
    m.set("first.p50_ms", ms(p50(&ttfl)));
    m.set("op.p50_ms", ms(p50(&tte)));
    m.set("op.p90_ms", ms(percentile(&tte, 90.0)));
    m.set("serve.capacity_rps", capacity);
    m.set("serve.ttfl_over_tte", p50(&ttfl) / p50(&tte));
    m.set("serve.ttfl_p90_ms", ms(percentile(&ttfl, 90.0)));
    m.set("serve.ttfl_p99_ms", ms(percentile(&ttfl, 99.0)));
    m.set("serve.tte_p99_ms", ms(percentile(&tte, 99.0)));
    for (metric, nyx) in [
        ("serve.tte_nyx_p50_ms", true),
        ("serve.tte_warpx_p50_ms", false),
    ] {
        let of_kind: Vec<f64> = phase_a
            .iter()
            .zip(&tte)
            .filter(|(s, _)| s.out.nyx == nyx)
            .map(|(_, &t)| t)
            .collect();
        m.set(metric, ms(p50(&of_kind)));
    }
    m.set(
        "serve.wire_mbs",
        p50(&a_replies()
            .map(|r| r.bytes as f64 / 1e6 / r.stream_s.max(1e-9))
            .collect::<Vec<_>>()),
    );
    m.set("serve.cache_hit_ratio", hit_ratio);
    m.set("serve.shed", (after.shed - before.shed) as f64);
    m.set("serve.timeouts", (after.timeout - before.timeout) as f64);
    m.set(
        "serve.deadline_aborts",
        (after.deadline_aborts - before.deadline_aborts) as f64,
    );
    m.set(
        "serve.late_frames",
        replies().map(|r| r.late_frames).sum::<u64>() as f64,
    );
    // Program-reported: copied from the server's own STATS snapshot. A
    // stage that did not run during the measured phases reads 0.
    for (stage, count, p50_us) in &stages_after {
        let earlier = stages_before
            .iter()
            .find(|(s, ..)| s == stage)
            .map_or(0.0, |(_, c, _)| *c);
        if *count > earlier {
            m.set(&format!("serve.stage.{stage}_p50_us"), *p50_us);
        }
    }
    m.set("gen.lag_p50_ms", ms(p50(&lag)));
    m.set("gen.lag_p99_ms", ms(percentile(&lag, 99.0)));
    m.set("gen.sent", phase_a.len() as f64);
    let pick = |recorded: bool| -> Vec<f64> {
        phase_a
            .iter()
            .zip(&tte)
            .filter(|(s, _)| self::recorded(s.slot, ring.len()) == recorded)
            .map(|(_, &t)| t)
            .collect()
    };
    m.set(
        "trace.overhead_frac",
        p50(&pick(true)) / p50(&pick(false)) - 1.0,
    );

    let (stage_s, dec_mbs) = miss_path_probe(&dir, &keys, &artifacts, &ring, &mut tally);
    let miss_path = [
        "serve.store_read_ms",
        "serve.validate_ms",
        "serve.decode_ms",
    ];
    let always = ["serve.frame_encode_ms", "serve.frame_parse_ms"];
    for (metric, samples) in miss_path.iter().chain(&always).zip(&stage_s) {
        if cold || always.contains(metric) {
            m.set(metric, ms(p50(samples)));
        }
    }
    if cold {
        // The decode half of `compress` is this workload's main cost.
        m.set("compress.dec_s", p50(&stage_s[2]));
        m.set("compress.szlr.dec_mbs", p50(&dec_mbs[0]));
        m.set("compress.interp.dec_mbs", p50(&dec_mbs[1]));
        let input = probe_input.expect("a traced run keeps the probe input");
        probe::codec_streams(&input, REL_EB, &mut m);
    }
    let _ = std::fs::remove_dir_all(dir);
    write_spans(name, opts, &spans);
    Outcome {
        metrics: m,
        tally,
        warnings,
        spans,
    }
}
