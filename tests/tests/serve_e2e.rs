//! End-to-end coverage of the serving stack: real sockets, real store,
//! real worker pool — the full `amrviz serve` path minus the CLI veneer.

use amrviz_amr::{AmrHierarchy, Box3, BoxArray, Geometry, IntVect};
use amrviz_codec::fnv1a_64;
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, ErrorBound, SzLr,
};
use amrviz_fault::ServeTortureConfig;
use amrviz_serve::proto::{
    encode_level_frame, read_frame, write_frame, EndFrame, Op, Request, FLAG_DEGRADED,
    MAX_RESPONSE_FRAME, TAG_END,
};
use amrviz_serve::{
    encode_artifact, exchange, start, BlobStore, ClientConfig, Outcome, RespHeader, ServeConfig,
    Status,
};
use amrviz_sim::{NyxScenario, Scale};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("amrviz_serve_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Stores one good Nyx-tiny artifact, returns (dir, key, total fab count).
fn populate(tag: &str) -> (std::path::PathBuf, u64, usize) {
    let dir = temp_dir(tag);
    let store = BlobStore::open(&dir).unwrap();
    let hier = NyxScenario::new(Scale::Tiny, 11).generate();
    let container = compress_hierarchy_field(
        &hier,
        "baryon_density",
        &SzLr::default(),
        ErrorBound::Rel(1e-3),
        &AmrCodecConfig::default(),
    )
    .unwrap();
    let key = store
        .put(&encode_artifact(
            &hier,
            "baryon_density",
            "szlr",
            &container,
        ))
        .unwrap();
    let fabs = (0..hier.num_levels())
        .map(|l| hier.box_array(l).len())
        .sum();
    (dir, key, fabs)
}

fn get(key: u64, deadline_ms: u32) -> Request {
    Request {
        op: Op::Get,
        trace: 0xE2E,
        key,
        deadline_ms,
        max_level: 0xFF,
    }
}

#[test]
fn serve_roundtrip_cache_and_deadline_statuses() {
    let (dir, key, fabs) = populate("rt");
    let server = start(ServeConfig {
        store_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let cfg = ClientConfig::default();

    // 1. Full fetch: every level arrives, END frame present, fab count
    //    matches the hierarchy.
    let ex = exchange(addr, &get(key, 5_000), &cfg);
    assert_eq!(ex.outcome, Outcome::Ok, "exchange: {ex:?}");
    assert_eq!(ex.header.unwrap().status, Status::Ok);
    assert_eq!(ex.levels.len(), 2, "Nyx-tiny has two levels");
    let got_fabs: u64 = ex.levels.iter().map(|l| l.fabs).sum();
    assert_eq!(got_fabs as usize, fabs);
    assert!(ex.end.is_some(), "completed stream carries END");
    assert!(
        ex.levels[0].level < ex.levels[1].level,
        "coarse level first"
    );

    // 2. Repeat fetch hits the decoded-arena cache.
    let before = server.stats();
    let ex = exchange(addr, &get(key, 5_000), &cfg);
    assert_eq!(ex.outcome, Outcome::Ok);
    let after = server.stats();
    assert_eq!(
        after.cache_hits,
        before.cache_hits + 1,
        "second fetch must be a cache hit"
    );

    // 3. Zero deadline budget: typed Timeout, no data frames.
    let ex = exchange(addr, &get(key, 0), &cfg);
    assert_eq!(ex.outcome, Outcome::Timeout);
    assert!(ex.levels.is_empty());

    // 4. Unknown key: typed NotFound.
    let ex = exchange(addr, &get(0xBAD_C0FFEE, 5_000), &cfg);
    assert_eq!(ex.outcome, Outcome::NotFound);

    // 5. List: the key is enumerable.
    let ex = exchange(
        addr,
        &Request {
            op: Op::List,
            trace: 1,
            key: 0,
            deadline_ms: 5_000,
            max_level: 0,
        },
        &cfg,
    );
    assert_eq!(ex.outcome, Outcome::Ok);
    assert_eq!(ex.keys.unwrap(), vec![key]);

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.post_deadline_responses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 16³ root under one 128³ patch under a 16³ one: level 1 is a 16 MiB
/// frame, more than loopback socket buffers hold, so a server writing it to
/// a peer that has gone must see the write fail — with level 2 still to do.
fn big_middle_level() -> AmrHierarchy {
    let geom = Geometry::unit(Box3::from_dims(16, 16, 16));
    let middle = Box3::new(IntVect::new(0, 0, 0), IntVect::new(127, 127, 127));
    let mut h = AmrHierarchy::new(
        geom,
        vec![8, 2],
        vec![
            BoxArray::single(geom.domain),
            BoxArray::single(middle),
            BoxArray::single(geom.domain),
        ],
    )
    .unwrap();
    h.add_field_from_fn("rho", |lev, iv| {
        let s = [1.0, 0.125, 0.0625][lev];
        (iv[0] as f64 * s * 0.4).sin() + iv[1] as f64 * s * 0.05 - (iv[2] as f64 * s * 0.3).cos()
    })
    .unwrap();
    h
}

/// Stores `hier`'s `rho` and returns the key plus the payload hash of every
/// LEVEL frame a clean local decode produces.
fn store_rho(store: &BlobStore, hier: &AmrHierarchy) -> (u64, Vec<u64>) {
    let (comp, cfg) = (SzLr::default(), AmrCodecConfig::default());
    let clean = compress_hierarchy_field(hier, "rho", &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
    let hashes = decompress_hierarchy_field(hier, &clean, &comp, &cfg)
        .unwrap()
        .iter()
        .enumerate()
        .map(|(lev, mf)| fnv1a_64(&encode_level_frame(lev, 0, mf)))
        .collect();
    let key = store
        .put(&encode_artifact(hier, "rho", "szlr", &clean))
        .unwrap();
    (key, hashes)
}

/// Sends a GET and reads frames off the raw socket until `frames` have
/// arrived or the stream closes.
fn raw_get(addr: SocketAddr, key: u64, frames: usize) -> (TcpStream, Vec<Vec<u8>>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, &get(key, 8_000).encode()).unwrap();
    let mut got = Vec::new();
    while got.len() < frames {
        match read_frame(&mut stream, MAX_RESPONSE_FRAME).unwrap() {
            Some(frame) => got.push(frame),
            None => break,
        }
    }
    (stream, got)
}

#[test]
fn damage_only_decoding_finds_is_in_its_level_frame_and_in_end() {
    let dir = temp_dir("late_damage");
    let store = BlobStore::open(&dir).unwrap();
    let hier = NyxScenario::new(Scale::Tiny, 11).generate();
    let container = compress_hierarchy_field(
        &hier,
        "baryon_density",
        &SzLr::default(),
        ErrorBound::Rel(1e-3),
        &AmrCodecConfig::default(),
    )
    .unwrap();
    // The first fine chunk — 65 of level 1's 103 fabs — replaced by bytes
    // no compressor decodes, then sealed: the checksum is recomputed over
    // the garbage, so it matches.
    const CHUNK_0_FABS: u64 = 65;
    let mut sealed = container.clone();
    sealed.blobs[1][0] = vec![0xEE; 40];
    sealed.checksums[1][0] = fnv1a_64(&sealed.blobs[1][0]);
    assert_eq!(sealed.checksum_failures(), 0);
    let key = store
        .put(&encode_artifact(&hier, "baryon_density", "szlr", &sealed))
        .unwrap();
    // The other kind of damage: a bit flipped under a stored checksum.
    let mut flipped = container.clone();
    flipped.blobs[1][0][3] ^= 0x10;
    assert_eq!(flipped.checksum_failures(), 1);
    let flipped_key = store
        .put(&encode_artifact(&hier, "baryon_density", "szlr", &flipped))
        .unwrap();
    let server = start(ServeConfig {
        store_dir: dir.clone(),
        ..ServeConfig::default()
    })
    .unwrap();

    // Miss: when the header leaves, level 1 has not been looked at.
    let ex = exchange(server.addr(), &get(key, 5_000), &ClientConfig::default());
    let header = ex.header.unwrap();
    assert_eq!((header.status, header.flags), (Status::Ok, 0), "{ex:?}");
    let per_level: Vec<u64> = ex.levels.iter().map(|l| l.degraded_fabs).collect();
    assert_eq!(per_level, [0, CHUNK_0_FABS]);
    assert_eq!(ex.end.unwrap().status, Status::Degraded);
    assert_eq!(ex.outcome, Outcome::Degraded);
    // Hit: the cached entry knows, so the header says so.
    let ex = exchange(server.addr(), &get(key, 5_000), &ClientConfig::default());
    let header = ex.header.unwrap();
    assert_eq!(
        (header.status, header.flags),
        (Status::Degraded, FLAG_DEGRADED)
    );
    assert_eq!(ex.outcome, Outcome::Degraded);

    // A failed checksum is known before anything decodes: even the miss
    // announces it up front.
    let ex = exchange(
        server.addr(),
        &get(flipped_key, 5_000),
        &ClientConfig::default(),
    );
    let header = ex.header.unwrap();
    assert_eq!(
        (header.status, header.flags),
        (Status::Degraded, FLAG_DEGRADED)
    );
    assert_eq!(ex.levels[1].degraded_fabs, CHUNK_0_FABS);
    assert_eq!(ex.end.unwrap().status, Status::Degraded);

    server.shutdown();
    let stats = server.join();
    assert_eq!((stats.degraded, stats.ok, stats.panics), (3, 0, 0));
    assert_eq!((stats.cache_misses, stats.cache_hits), (2, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A skip-redundant artifact is served the way `amrviz decompress` reads
/// it, next to a keep artifact in the same store: both `Ok`, and every
/// LEVEL payload equals a local decode with the skipped coarse cells
/// restored from the finer level.
#[test]
fn skip_redundant_artifacts_are_served_with_the_coarse_cells_restored() {
    let dir = temp_dir("skip");
    let store = BlobStore::open(&dir).unwrap();
    let hier = NyxScenario::new(Scale::Tiny, 11).generate();
    let skip = AmrCodecConfig {
        skip_redundant: true,
        restore_redundant: true,
    };
    let mut stored = Vec::new();
    for cfg in [AmrCodecConfig::default(), skip] {
        let comp = SzLr::default();
        let field = "baryon_density";
        let c = compress_hierarchy_field(&hier, field, &comp, ErrorBound::Rel(1e-3), &cfg).unwrap();
        assert_eq!(c.skip_redundant, cfg.skip_redundant);
        let frames: Vec<Vec<u8>> = decompress_hierarchy_field(&hier, &c, &comp, &cfg)
            .unwrap()
            .iter()
            .enumerate()
            .map(|(lev, mf)| encode_level_frame(lev, 0, mf))
            .collect();
        let key = store
            .put(&encode_artifact(&hier, field, "szlr", &c))
            .unwrap();
        stored.push((key, frames));
    }
    let server = start(ServeConfig {
        store_dir: dir.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    for (key, frames) in &stored {
        // The miss decodes the artifact; the hit replays what it kept.
        let ex = exchange(server.addr(), &get(*key, 8_000), &ClientConfig::default());
        assert_eq!(ex.outcome, Outcome::Ok, "{ex:?}");
        assert_eq!(ex.levels.len(), 2);
        let (_stream, got) = raw_get(server.addr(), *key, 2 + frames.len());
        assert_eq!(&got[1..=frames.len()], &frames[..]);
    }
    server.shutdown();
    let stats = server.join();
    assert_eq!((stats.ok, stats.cache_misses, stats.panics), (4, 2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An artifact whose algorithm names no compressor is `Corrupt` before the
/// header: no LEVEL frame, and of the miss path's stages only the store
/// read is timed.
#[test]
fn an_artifact_naming_no_compressor_is_served_corrupt() {
    let (dir, good, _) = populate("algo");
    let store = BlobStore::open(&dir).unwrap();
    let mut bytes = store.get(good).unwrap();
    assert_eq!(&bytes[5..10], b"\x04szlr");
    bytes[9] = b'q';
    let key = store.put(&bytes).unwrap();
    let server = start(ServeConfig {
        store_dir: dir.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let cfg = ClientConfig::default();
    let ex = exchange(server.addr(), &get(key, 5_000), &cfg);
    assert_eq!(ex.outcome, Outcome::Corrupt, "{ex:?}");
    assert_eq!(ex.header.unwrap().status, Status::Corrupt);
    assert!(ex.levels.is_empty(), "{ex:?}");
    let stats = Request {
        op: Op::Stats,
        trace: 0,
        key: 0,
        deadline_ms: 5_000,
        max_level: 0,
    };
    let doc = amrviz_json::Json::parse(&exchange(server.addr(), &stats, &cfg).stats.unwrap());
    let doc = doc.unwrap();
    let timed = |stage: &str| {
        let stage = doc.get("stages_us").and_then(|s| s.get(stage));
        stage.and_then(|s| s.get("lifetime")?.get("count")?.as_u64())
    };
    assert_eq!(timed("store_read"), Some(1));
    for stage in ["structure_validate", "decode", "write"] {
        let n = timed(stage);
        assert!(n.is_none_or(|n| n == 0), "{stage}: {n:?}");
    }
    server.shutdown();
    let stats = server.join();
    assert_eq!((stats.corrupt, stats.panics), (1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hang_up_after_level_0_leaves_no_partial_cache_entry() {
    let dir = temp_dir("hangup");
    let store = BlobStore::open(&dir).unwrap();
    let (key, hashes) = store_rho(&store, &big_middle_level());
    let server = start(ServeConfig {
        store_dir: dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();

    // Header and level 0 arrive while level 1 is still decoding; then the
    // client is gone, and the write of level 1 fails with level 2 undecoded.
    let (stream, got) = raw_get(server.addr(), key, 2);
    assert_eq!(RespHeader::decode(&got[0]).unwrap().n_levels, 3);
    assert_eq!(fnv1a_64(&got[1]), hashes[0]);
    drop(stream);

    // The one worker takes the next GET only after the first has failed.
    // It must decode again (the two levels it had were not kept) and be
    // complete.
    let (_stream, got) = raw_get(server.addr(), key, 5);
    let stats = server.stats();
    assert_eq!((stats.cache_misses, stats.cache_hits), (2, 0));
    assert_eq!(
        stats.io_errors, 1,
        "the hang-up was seen as one failed write, counted once"
    );
    assert_eq!(got.len(), 5, "header, three levels, END");
    for (lev, hash) in hashes.iter().enumerate() {
        assert_eq!(
            fnv1a_64(&got[1 + lev]),
            *hash,
            "level {lev} equals a local decode"
        );
    }
    let end = EndFrame::decode(&got[4]).unwrap();
    assert_eq!((end.status, end.levels_sent), (Status::Ok, 3));
    // Now it is cached, whole.
    let ex = exchange(server.addr(), &get(key, 8_000), &ClientConfig::default());
    assert_eq!((ex.outcome, ex.levels.len()), (Outcome::Ok, 3));
    assert_eq!(server.stats().cache_hits, 1);

    server.shutdown();
    assert_eq!(server.join().panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_with_typed_retry_later() {
    let (dir, key, _) = populate("shed");
    // One worker, queue depth 1: a parked connection occupies the worker,
    // one more waits in queue, the third must shed.
    let server = start(ServeConfig {
        store_dir: dir.clone(),
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Park a connection: connect, never send. The worker blocks in
    // read_frame until its socket timeout.
    let parked = std::net::TcpStream::connect(addr).unwrap();
    // Wait until the worker has taken it (queue drains to empty).
    std::thread::sleep(Duration::from_millis(200));
    let parked2 = std::net::TcpStream::connect(addr).unwrap(); // fills queue
    std::thread::sleep(Duration::from_millis(100));

    let ex = exchange(addr, &get(key, 2_000), &ClientConfig::default());
    assert_eq!(
        ex.outcome,
        Outcome::Shed,
        "third connection must shed: {ex:?}"
    );
    let h = ex.header.unwrap();
    assert_eq!(h.status, Status::RetryLater);
    assert!(h.retry_after_ms > 0, "shed reply carries a retry hint");

    drop(parked);
    drop(parked2);
    // Once the worker has seen both hang-ups the queue is empty and a STATS
    // exchange is admitted; its gauge must be back at 0 after the shed.
    let stats_req = Request {
        op: Op::Stats,
        trace: 0,
        key: 0,
        deadline_ms: 2_000,
        max_level: 0,
    };
    let snapshot = (0..100)
        .find_map(|_| {
            let ex = exchange(addr, &stats_req, &ClientConfig::default());
            if ex.outcome == Outcome::Shed {
                std::thread::sleep(Duration::from_millis(20));
            }
            ex.stats
        })
        .expect("a STATS exchange is admitted once the queue drains");
    assert!(snapshot.contains("\"queue_depth\":0,"), "{snapshot}");
    server.shutdown();
    let stats = server.join();
    assert!(stats.shed >= 1);
    assert_eq!(stats.panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_endpoint_reports_stages_slo_and_exemplars() {
    let (dir, key, _) = populate("stats");
    let server = start(ServeConfig {
        store_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let cfg = ClientConfig::default();

    // Drive a little traffic first: one cold GET (full stage breakdown),
    // one warm GET (cache hit), one NotFound.
    assert_eq!(exchange(addr, &get(key, 5_000), &cfg).outcome, Outcome::Ok);
    assert_eq!(exchange(addr, &get(key, 5_000), &cfg).outcome, Outcome::Ok);
    assert_eq!(
        exchange(addr, &get(0xBAD_C0FFEE, 5_000), &cfg).outcome,
        Outcome::NotFound
    );

    let ex = exchange(
        addr,
        &Request {
            op: Op::Stats,
            trace: 0,
            key: 0,
            deadline_ms: 5_000,
            max_level: 0,
        },
        &cfg,
    );
    assert_eq!(ex.outcome, Outcome::Ok, "stats exchange: {ex:?}");
    let raw = ex.stats.expect("stats frame carries the snapshot");
    let doc = amrviz_json::Json::parse(&raw).expect("snapshot is valid JSON");
    assert_eq!(
        doc.get("schema").unwrap().as_str().unwrap(),
        amrviz_serve::STATS_SCHEMA
    );
    assert_eq!(doc.get("health").unwrap().as_str().unwrap(), "ok");

    // Stage-timing percentiles for the decode pipeline are present.
    let stages = doc.get("stages_us").unwrap();
    for stage in ["queue_wait", "store_read", "decode", "write"] {
        let s = stages
            .get(stage)
            .unwrap_or_else(|| panic!("stage {stage} missing: {raw}"));
        assert!(s.get("lifetime").unwrap().get("p99").is_some());
        assert!(s.get("w5m").unwrap().get("count").is_some());
    }
    // Cache hits skip store/decode: those stage counts reflect misses only.
    let decode_count = stages
        .get("decode")
        .unwrap()
        .get("lifetime")
        .unwrap()
        .get("count")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(decode_count, 1, "only the cold GET decoded");

    // Per-status latency, SLO report, and at least one exemplar whose
    // trace id resolves back to the requests we just made.
    assert!(doc.get("latency_us").unwrap().get("ok").is_some());
    let slo = doc.get("slo").unwrap();
    assert_eq!(slo.get("breached").unwrap().as_bool(), Some(false));
    assert_eq!(
        slo.get("windows").unwrap().as_arr().unwrap().len(),
        2,
        "5m and 1h burn windows"
    );
    let exemplars = doc.get("exemplars").unwrap().as_arr().unwrap();
    assert!(!exemplars.is_empty(), "tail reservoir retained a request");
    for e in exemplars {
        assert_eq!(
            e.get("trace").unwrap().as_str().unwrap(),
            "e2e",
            "exemplar trace resolves to the driving request"
        );
        assert!(e.get("stages_us").unwrap().get("queue_wait").is_some());
        // Frame writes happen inside the level-at-a-time decode but are
        // charged to `write` alone: the stages a request runs through after
        // it is picked up still fit in its elapsed time.
        let stages = e.get("stages_us").unwrap();
        let in_request: u64 = ["store_read", "structure_validate", "decode", "write"]
            .iter()
            .filter_map(|s| stages.get(s)?.as_u64())
            .sum();
        assert!(in_request <= e.get("total_us").unwrap().as_u64().unwrap());
    }
    // Time to the first LEVEL frame: one sample per GET that sent data.
    let first = doc.get("first_level_us").unwrap();
    let first_count = first.get("lifetime").unwrap().get("count").unwrap();
    assert_eq!(first_count.as_u64(), Some(2));
    assert!(first.get("w5m").unwrap().get("p99").is_some());

    // STATS polls are monitoring traffic and NotFound is a client error:
    // neither moves the SLO windows' totals.
    let total_before: u64 = slo.get("windows").unwrap().as_arr().unwrap()[0]
        .get("total")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(
        total_before, 2,
        "two good GETs; not_found and stats polls excluded"
    );

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_request_is_counted_before_its_end_frame() {
    let (dir, key, _) = populate("counted");
    let server = start(ServeConfig {
        store_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let stats_req = Request {
        op: Op::Stats,
        trace: 0,
        key: 0,
        deadline_ms: 5_000,
        max_level: 0,
    };
    for i in 1..=50u64 {
        // A raw reader that stops at END and does not wait for the close.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut stream, &get(key, 8_000).encode()).unwrap();
        let end = std::iter::from_fn(|| read_frame(&mut stream, MAX_RESPONSE_FRAME).unwrap())
            .find(|frame| frame.first() == Some(&TAG_END));
        assert!(end.is_some(), "GET {i} ended without END");
        // The outcome counters (`i` GETs and the `i - 1` STATS polls before
        // this one) and the SLO windows, polled at once.
        let ok = server.stats().ok;
        assert_eq!(ok, 2 * i - 1, "GET {i} not counted at its END");
        let ex = exchange(addr, &stats_req, &ClientConfig::default());
        let doc = amrviz_json::Json::parse(&ex.stats.expect("stats frame")).unwrap();
        let ok = doc
            .get("latency_us")
            .and_then(|l| l.get("ok")?.get("lifetime")?.get("count")?.as_u64());
        assert_eq!(ok, Some(i), "GET {i} not in latency_us at its END");
    }
    server.shutdown();
    assert_eq!(server.join().panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_torture_smoke_zero_violations() {
    // A short chaos run as a tier-1 regression net; the CI torture job runs
    // the full 300 iterations.
    let report = amrviz_fault::serve_torture::run(&ServeTortureConfig {
        iters: 40,
        seed: 9,
        store_dir: temp_dir("torture_smoke"),
    });
    assert!(
        report.passed(),
        "torture violations: {:#?}",
        report.violations
    );
    assert_eq!(report.server.panics, 0);
    assert_eq!(report.server.post_deadline_responses, 0);
    assert!(report.server.requests > 0);
}
