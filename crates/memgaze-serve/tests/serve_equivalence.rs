//! Wire-level equivalence and failure injection for `memgaze serve`.
//!
//! The central contract: a sealed serve session's report is
//! bit-identical to a resident `StreamingAnalyzer` pass over the same
//! shards, for every upload split, HTTP chunking, and concurrency level
//! tested — proved over real sockets through the real parser. Around
//! it, the failure matrix: every admission-control refusal is a typed
//! status (never a panic, never a hang), torn clients don't wedge the
//! server, and drain seals what it holds.

use memgaze_analysis::{
    AnomalyMark, PartialReport, StreamingAnalyzer, WindowRing, WindowStats, ANOMALY_THRESHOLD,
};
use memgaze_model::{Access, AuxAnnotations, Sample, ShardReader, ShardWriter, SymbolTable};
use memgaze_obs::json::{self, Value};
use memgaze_serve::harness::{
    base_meta, container, drive_session, resident_report, synthetic_samples,
};
use memgaze_serve::{client, Client, Registry, ServeConfig, ServeError, Server};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One planned session for the equivalence property: workload name,
/// shard groups, shards-per-upload split, HTTP chunk size.
type SessionPlan = (String, Vec<Vec<Sample>>, usize, Option<usize>);

/// One server with default config, shared by the equivalence property
/// (booting a listener per proptest case would dominate the runtime).
/// Never drained: the process exit tears it down.
fn shared_server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        Server::bind("127.0.0.1:0", ServeConfig::default(), 6).expect("bind shared server")
    })
}

#[test]
fn smoke_matrix_is_bit_identical_and_drains_clean() {
    let summary = memgaze_serve::harness::smoke(4).expect("smoke");
    assert!(summary.contains("bit-identical"), "unexpected: {summary}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// N concurrent sessions, each with its own trace, upload split,
    /// and HTTP chunking; every sealed report must equal its resident
    /// pass bit for bit.
    #[test]
    fn concurrent_sessions_match_resident(
        specs in prop::collection::vec((2usize..6, 1usize..4, 0usize..3usize, 0usize..3usize), 1..5)
    ) {
        let server = shared_server();
        let client = Client::new(server.addr());
        let cfg = ServeConfig::default();

        // Per session: samples, shard grouping, upload split, chunking.
        let sessions: Vec<SessionPlan> = specs
            .iter()
            .enumerate()
            .map(|(i, &(scale, group, split_idx, chunk_idx))| {
                let samples = synthetic_samples(scale * 2, 48, i as u64 + 1);
                let groups: Vec<Vec<Sample>> =
                    samples.chunks(group).map(|c| c.to_vec()).collect();
                let split = [1usize, 2, usize::MAX][split_idx];
                let chunk = [None, Some(256), Some(9)][chunk_idx];
                (format!("prop-{i}"), groups, split, chunk)
            })
            .collect();

        let outcomes: Vec<Result<(), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = sessions
                .iter()
                .map(|(workload, groups, split, chunk)| {
                    let (client, cfg) = (client, &cfg);
                    scope.spawn(move || {
                        let uploads: Vec<&[Vec<Sample>]> =
                            groups.chunks((*split).min(groups.len().max(1))).collect();
                        let served = drive_session(&client, workload, &uploads, *chunk)?;
                        let resident = resident_report(workload, groups, cfg);
                        if served == resident {
                            Ok(())
                        } else {
                            Err(format!("{workload}: served report != resident"))
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("session thread panicked".into())))
                .collect()
        });
        for o in outcomes {
            prop_assert!(o.is_ok(), "{}", o.unwrap_err());
        }
    }
}

#[test]
fn session_limit_is_a_typed_503_with_retry_after() {
    let cfg = ServeConfig {
        max_sessions: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, 2).expect("bind");
    let client = Client::new(server.addr());

    let a = client.create_session().expect("first");
    let _b = client.create_session().expect("second");
    let refused = client
        .request("POST", "/sessions", &[], None)
        .expect("request");
    assert_eq!(refused.status, 503);
    assert_eq!(refused.header("retry-after"), Some("2"));
    assert!(
        refused.text().contains("session_limit"),
        "{}",
        refused.text()
    );

    // Capacity frees up when a session is deleted.
    let del = client
        .request("DELETE", &format!("/sessions/{a}"), &[], None)
        .expect("delete");
    assert_eq!(del.status, 200);
    client.create_session().expect("slot reopened");
    server.drain();
}

#[test]
fn byte_budget_is_a_typed_413_and_session_survives() {
    let samples = synthetic_samples(4, 64, 7);
    let upload = container("budget", &[&samples]);
    let cfg = ServeConfig {
        // Big enough for exactly one upload, not two.
        session_bytes: (upload.len() as u64 * 3) / 2,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, 2).expect("bind");
    let client = Client::new(server.addr());
    let id = client.create_session().expect("create");

    let first = client.feed(&id, &upload, None).expect("feed");
    assert_eq!(first.status, 202);
    let refused = client.feed(&id, &upload, None).expect("feed over budget");
    assert_eq!(refused.status, 413);
    assert!(refused.text().contains("byte_budget"), "{}", refused.text());
    assert_eq!(refused.header("retry-after"), None);

    // The refusal poisons nothing: the session still seals to the
    // report of what was admitted.
    let sealed = client.seal(&id).expect("seal");
    assert_eq!(sealed.shards, 1);
    server.drain();
}

#[test]
fn queue_full_is_a_typed_429_at_the_admission_layer() {
    let cfg = ServeConfig {
        queue_depth: 2,
        ..ServeConfig::default()
    };
    let registry = Registry::new(cfg.clone());
    let session = registry.create().expect("create");
    let samples = synthetic_samples(2, 32, 3);
    let upload = container("queue", &[&samples]);

    assert!(session.try_enqueue(upload.clone(), &cfg).is_ok());
    assert!(session.try_enqueue(upload.clone(), &cfg).is_ok());
    let refused = session.try_enqueue(upload, &cfg).unwrap_err();
    match &refused {
        ServeError::QueueFull { depth, .. } => assert_eq!(*depth, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(refused.status(), 429);
    assert_eq!(refused.retry_after(), Some(1));
}

#[test]
fn mid_upload_disconnect_leaves_the_server_serving() {
    let cfg = ServeConfig {
        read_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg.clone(), 2).expect("bind");
    let client = Client::new(server.addr());
    let id = client.create_session().expect("create");

    // Promise 4096 body bytes, send 10, vanish.
    let mut torn = TcpStream::connect(server.addr()).expect("connect");
    write!(
        torn,
        "POST /sessions/{id}/shards HTTP/1.1\r\nHost: x\r\nContent-Length: 4096\r\n\r\n"
    )
    .expect("head");
    torn.write_all(b"0123456789").expect("partial body");
    drop(torn);

    // The worker pool must shed the torn connection and keep serving:
    // a full session afterwards still matches the resident pass.
    let samples = synthetic_samples(6, 64, 11);
    let groups: Vec<Vec<Sample>> = samples.chunks(2).map(|c| c.to_vec()).collect();
    let served = drive_session(&client, "after-torn", &[&groups[..]], Some(64)).expect("drive");
    let resident = resident_report("after-torn", &groups, &cfg);
    assert_eq!(served, resident);
    server.drain();
}

#[test]
fn drain_seals_open_sessions_and_refuses_new_work() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), 2).expect("bind");
    let client = Client::new(server.addr());
    let id = client.create_session().expect("create");
    let samples = synthetic_samples(4, 48, 5);
    let upload = container("drainee", &[&samples]);
    assert_eq!(client.feed(&id, &upload, None).expect("feed").status, 202);

    let report = server.drain();
    assert_eq!(report.seal_failures, 0);
    assert_eq!(report.sessions_sealed, 1);
}

#[test]
fn draining_registry_refuses_creates_and_feeds_with_typed_errors() {
    let cfg = ServeConfig::default();
    let registry = Registry::new(cfg.clone());
    let session = registry.create().expect("create");
    let samples = synthetic_samples(3, 32, 9);
    let upload = container("drain-feed", &[&samples]);
    session
        .feed(upload.clone(), &cfg)
        .expect("feed before drain");

    let (sealed, failures) = registry.seal_all();
    assert_eq!((sealed, failures), (1, 0));
    assert!(registry.is_draining());

    match registry.create() {
        Err(ServeError::Draining) => {}
        Err(other) => panic!("expected Draining, got {other:?}"),
        Ok(_) => panic!("expected Draining, got a session"),
    }
    // The sealed session refuses further shards with a conflict, and
    // seal_all is idempotent on already-sealed sessions.
    match session.feed(upload, &cfg) {
        Err(ServeError::Sealed { .. }) => {}
        other => panic!("expected Sealed, got {other:?}"),
    }
    assert_eq!(registry.seal_all(), (0, 0));
}

/// Trailer totals are the client's claim. Two uploads whose
/// `total_loads` sum past `u64::MAX` are a typed 422 that poisons the
/// session, and sealing it answers at once: an unchecked sum wrapped in
/// release builds, and in debug builds panicked inside the drainer and
/// left every later seal waiting for a drain that never ends.
#[test]
fn upload_totals_past_u64_are_a_typed_422_and_seal_returns() {
    let cfg = ServeConfig::default();
    let registry = Registry::new(cfg.clone());
    let session = registry.create().expect("create");
    let samples = synthetic_samples(2, 32, 13);
    let upload = |sample: &Sample, total_loads: u64| {
        let mut w = ShardWriter::new(Vec::new(), &base_meta("overflow")).expect("header");
        w.write_shard(std::slice::from_ref(sample)).expect("shard");
        w.finish(total_loads, 0).expect("trailer")
    };
    session
        .feed(upload(&samples[0], u64::MAX - 1), &cfg)
        .expect("first upload");
    let refused = session
        .feed(upload(&samples[1], 2), &cfg)
        .expect_err("the totals leave u64");
    assert!(
        matches!(refused, ServeError::MetaMismatch { .. }),
        "{refused:?}"
    );
    assert_eq!(refused.status(), 422);

    let (tx, rx) = std::sync::mpsc::channel();
    let (sealer, seal_cfg) = (session.clone(), cfg.clone());
    std::thread::spawn(move || tx.send(sealer.seal(&seal_cfg).map(|_| ())));
    let sealed = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("seal returns promptly");
    let err = sealed.expect_err("the session is poisoned");
    assert_eq!(err.status(), 422);
    assert!(err.to_string().contains("overflows u64"), "{err}");
    assert_eq!(registry.seal_all(), (0, 1));
}

/// An upload's frames cover the loads between their last triggers, and
/// its first frame the rest of its trailer's `total_loads`. A trigger
/// that runs backwards across frames, or a trailer below the loads the
/// later frames cover, would wrap that count: each is a typed 422 that
/// poisons the session, and sealing it answers at once.
#[test]
fn backwards_triggers_and_short_trailers_are_a_typed_422_and_seal_returns() {
    let cfg = ServeConfig::default();
    let registry = Registry::new(cfg.clone());
    let samples = synthetic_samples(2, 32, 13);
    let upload = |frames: [&Sample; 2], total_loads: u64| {
        let mut w = ShardWriter::new(Vec::new(), &base_meta("bad-loads")).expect("header");
        for sample in frames {
            w.write_shard(std::slice::from_ref(sample)).expect("shard");
        }
        w.finish(total_loads, 0).expect("trailer")
    };
    let span = samples[1].trigger_time - samples[0].trigger_time;
    for (case, body, says) in [
        (
            "a backwards trigger",
            upload([&samples[1], &samples[0]], 2 * span),
            "out of time order",
        ),
        (
            "a trailer below the trigger span",
            upload([&samples[0], &samples[1]], span - 1),
            "inconsistent trailer totals",
        ),
    ] {
        let session = registry.create().expect("create");
        let refused = session.feed(body.clone(), &cfg).expect_err(case);
        assert!(
            matches!(refused, ServeError::Decode { .. }),
            "{case}: {refused:?}"
        );
        assert_eq!(refused.status(), 422, "{case}");
        assert!(refused.to_string().contains(says), "{case}: {refused}");
        let again = session
            .feed(body, &cfg)
            .expect_err("the session is poisoned");
        assert_eq!(again.status(), 422, "{case}");

        let (tx, rx) = std::sync::mpsc::channel();
        let (sealer, seal_cfg) = (session.clone(), cfg.clone());
        std::thread::spawn(move || tx.send(sealer.seal(&seal_cfg).map(|_| ())));
        let sealed = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("seal returns promptly");
        let err = sealed.expect_err("the session is poisoned");
        assert_eq!(err.status(), 422, "{case}");
        assert!(err.to_string().contains(says), "{case}: {err}");
    }
    assert_eq!(registry.seal_all(), (0, 2));
}

/// No request waits on a timer: a request that takes one mutex costs
/// microseconds, not a poll interval. 400 requests behind a 5 ms accept
/// poll take 2 s.
#[test]
fn idle_server_answers_without_a_poll_floor() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), 2).expect("bind");
    let client = Client::new(server.addr());
    let started = Instant::now();
    for _ in 0..200 {
        let id = client.create_session().expect("create");
        let del = client
            .request("DELETE", &format!("/sessions/{id}"), &[], None)
            .expect("delete");
        assert_eq!(del.status, 200);
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "200 create + delete pairs took {took:?}"
    );
    server.drain();
}

/// Workers idle in `accept` are woken by the drain, on a wildcard bind
/// too, where the wake-up has to go to loopback.
#[test]
fn drain_and_drop_are_prompt_with_every_worker_idle() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::bind(addr, ServeConfig::default(), 4).expect("bind");
        let started = Instant::now();
        let report = server.drain();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "drain of {addr} took {:?}",
            started.elapsed()
        );
        assert_eq!((report.sessions_sealed, report.seal_failures), (0, 0));
    }
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), 4).expect("bind");
    let addr = server.addr();
    let started = Instant::now();
    drop(server);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "drop took {:?}",
        started.elapsed()
    );
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener outlived the server"
    );
}

/// Idle sessions are reaped on a server that receives no connections.
#[test]
fn idle_sessions_are_reaped_without_traffic() {
    let cfg = ServeConfig {
        idle_timeout: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, 2).expect("bind");
    let id = Client::new(server.addr()).create_session().expect("create");
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.registry().get(&id).is_ok() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        server.registry().get(&id).is_err(),
        "session {id} still live 2 s past a 50 ms idle timeout"
    );
    server.drain();
}

/// The listen backlog is the only queue: with the one worker held by a
/// silent connection, the next client waits there, and is served when
/// the worker frees up.
#[test]
fn connections_beyond_the_workers_wait_in_the_backlog() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), 1).expect("bind");
    let addr = server.addr();
    let silent = TcpStream::connect(addr).expect("connect");
    let second = std::thread::spawn(move || {
        let resp = Client::new(addr).request("GET", "/healthz", &[], None);
        (resp, Instant::now())
    });
    // Long enough for an answer to arrive if anything could give one.
    std::thread::sleep(Duration::from_millis(200));
    let closed_at = Instant::now();
    drop(silent);
    let (resp, answered_at) = second.join().expect("client thread");
    let resp = resp.expect("request");
    assert!(
        answered_at > closed_at,
        "answered while the only worker was held"
    );
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("\"status\":\"ok\""), "{}", resp.text());
    server.drain();
}

/// Three uploads of 1, 3 and 2 frames of 2 samples each.
fn three_uploads() -> Vec<Vec<Vec<Sample>>> {
    let samples = synthetic_samples(12, 48, 2);
    let frames: Vec<Vec<Sample>> = samples.chunks(2).map(|c| c.to_vec()).collect();
    [0..1, 1..4, 4..6]
        .into_iter()
        .map(|r| frames[r].to_vec())
        .collect()
}

/// Encode one upload of [`three_uploads`].
fn upload_body(workload: &str, frames: &[Vec<Sample>]) -> Vec<u8> {
    let refs: Vec<&[Sample]> = frames.iter().map(|f| f.as_slice()).collect();
    container(workload, &refs)
}

/// An integer field of an SSE event's JSON payload.
fn int_field(data: &str, key: &str) -> Option<u64> {
    json::parse(data).ok()?.get(key).and_then(Value::as_u64)
}

/// Poll until `count()` sees a registered subscriber: the SSE head is
/// written before the subscriber is registered.
fn await_subscriber(count: impl Fn() -> usize) {
    for _ in 0..100 {
        if count() > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(count() > 0, "subscriber never registered");
}

#[test]
fn subscribers_see_every_upload_delta_then_sealed() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), 3).expect("bind");
    let http = Client::new(server.addr());
    let cfg = ServeConfig::default();
    let id = http.create_session().expect("create");

    let collector = http.subscribe_collect(&id).expect("subscribe");
    let session = server.registry().get(&id).expect("session");
    await_subscriber(|| session.subscriber_count());

    let uploads = three_uploads();
    for frames in &uploads {
        let body = upload_body("sse", frames);
        assert_eq!(http.feed(&id, &body, None).expect("feed").status, 202);
    }
    let sealed = http.seal(&id).expect("seal");

    let events = collector.collect();
    let upload_events: Vec<&(String, String)> =
        events.iter().filter(|(e, _)| e == "upload").collect();
    assert_eq!(upload_events.len(), uploads.len(), "events: {events:?}");
    assert!(
        events.iter().all(|(e, _)| e == "upload" || e == "sealed"),
        "events: {events:?}"
    );
    assert_eq!(events.last().map(|(e, _)| e.as_str()), Some("sealed"));
    for (i, ((_, data), frames)) in upload_events.iter().zip(&uploads).enumerate() {
        let samples: usize = frames.iter().map(Vec::len).sum();
        assert_eq!(int_field(data, "upload"), Some(i as u64), "{data}");
        assert_eq!(
            int_field(data, "shards"),
            Some(frames.len() as u64),
            "{data}"
        );
        assert_eq!(int_field(data, "samples"), Some(samples as u64), "{data}");
    }

    // The deltas are the sealed report: merging the published
    // per-upload partials reproduces the sealed partial bit for bit.
    let deltas: Vec<PartialReport> = upload_events
        .iter()
        .map(|(_, data)| {
            let bytes = client::delta_partial_bytes(data).expect("partial field");
            PartialReport::decode(&bytes).expect("delta decodes")
        })
        .collect();
    let merged = PartialReport::merge_many(
        deltas,
        cfg.analysis.footprint_block,
        cfg.analysis.reuse_block,
        &cfg.locality_sizes,
    )
    .expect("merge");
    assert_eq!(merged.encode(), sealed.partial_bytes);
    server.drain();
}

/// One upload is one watch window, whatever its frame count: three
/// uploads of 1, 3 and 2 frames close three windows, each with its own
/// trailer's `total_loads`, and the seal closes none.
#[test]
fn watch_stream_closes_one_window_per_upload() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), 3).expect("bind");
    let http = Client::new(server.addr());
    let collector = http.watch_collect().expect("watch subscribe");
    let hub = server.registry().watch_hub();
    await_subscriber(|| hub.subscriber_count());

    let id = http.create_session().expect("create");
    let uploads = three_uploads();
    let mut trailer_loads = Vec::new();
    for frames in &uploads {
        let body = upload_body("windows", frames);
        let mut reader = ShardReader::new(&body[..]).expect("header");
        assert_eq!(reader.by_ref().count(), frames.len());
        trailer_loads.push(reader.meta().total_loads);
        assert_eq!(http.feed(&id, &body, None).expect("feed").status, 202);
    }
    http.seal(&id).expect("seal");
    server.drain();

    let events = collector.collect();
    let windows: Vec<&String> = events
        .iter()
        .filter(|(e, _)| e == "window")
        .map(|(_, data)| data)
        .collect();
    assert_eq!(windows.len(), uploads.len(), "events: {events:?}");
    for (i, (data, (frames, loads))) in windows
        .iter()
        .zip(uploads.iter().zip(&trailer_loads))
        .enumerate()
    {
        let samples: usize = frames.iter().map(Vec::len).sum();
        assert_eq!(int_field(data, "window"), Some(i as u64), "{data}");
        assert_eq!(int_field(data, "loads"), Some(*loads), "{data}");
        assert_eq!(int_field(data, "samples"), Some(samples as u64), "{data}");
    }
}

/// A frameless upload is accepted but closes no window and publishes
/// no delta, and the deltas are numbered like the windows: uploads of
/// 1, 0 and 2 frames give `upload` events 0 and 1 and windows 0 and 1.
#[test]
fn a_frameless_upload_closes_no_window_and_takes_no_number() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), 3).expect("bind");
    let http = Client::new(server.addr());
    let watch = http.watch_collect().expect("watch subscribe");
    let hub = server.registry().watch_hub();
    await_subscriber(|| hub.subscriber_count());
    let id = http.create_session().expect("create");
    let deltas = http.subscribe_collect(&id).expect("subscribe");
    let session = server.registry().get(&id).expect("session");
    await_subscriber(|| session.subscriber_count());

    let frames: Vec<Vec<Sample>> = synthetic_samples(6, 48, 4)
        .chunks(2)
        .map(<[Sample]>::to_vec)
        .collect();
    for upload in [&frames[..1], &[], &frames[1..]] {
        let body = upload_body("frameless", upload);
        assert_eq!(http.feed(&id, &body, None).expect("feed").status, 202);
    }
    http.seal(&id).expect("seal");
    server.drain();

    let field = |events: Vec<(String, String)>, event: &str, key: &str| -> Vec<Option<u64>> {
        events
            .iter()
            .filter(|(e, _)| e == event)
            .map(|(_, data)| int_field(data, key))
            .collect()
    };
    assert_eq!(
        field(deltas.collect(), "upload", "upload"),
        [Some(0), Some(1)]
    );
    assert_eq!(
        field(watch.collect(), "window", "window"),
        [Some(0), Some(1)]
    );
}

/// A socket pair: the server end, to hand to the watch hub or a
/// session, and a thread that reads the client end to EOF as SSE
/// `(event, data)` pairs.
fn event_pipe() -> (TcpStream, std::thread::JoinHandle<Vec<(String, String)>>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let mut stream = TcpStream::connect(addr).expect("connect");
        std::io::Read::read_to_string(&mut stream, &mut text).expect("read events");
        text.split("\n\n")
            .filter_map(|e| e.strip_prefix("event: ")?.split_once("\ndata: "))
            .map(|(event, data)| (event.to_string(), data.to_string()))
            .collect()
    });
    let (server_end, _) = listener.accept().expect("accept");
    (server_end, reader)
}

/// A `window` event's payload as the parent published it.
fn window_json(session: &str, s: &WindowStats) -> String {
    format!(
        "{{\"session\":\"{session}\",\"window\":{},\"samples\":{},\"loads\":{},\"observed\":{},\
         \"f_hat_bytes\":{:.3},\"delta_f\":{:.6},\"df_irr_pct\":{:.3},\"a_const_pct\":{:.3},\
         \"mean_d\":{:.3},\"kappa\":{:.6}}}",
        s.window,
        s.samples,
        s.loads,
        s.observed,
        s.f_hat_bytes,
        s.delta_f,
        s.delta_f_irr_pct,
        s.a_const_pct,
        s.mean_d,
        s.kappa
    )
}

/// An `anomaly` event's payload as the parent published it.
fn anomaly_json(session: &str, m: &AnomalyMark) -> String {
    format!(
        "{{\"session\":\"{session}\",\"window\":{},\"metric\":\"{}\",\"ratio\":{:.3},\
         \"detail\":\"{}\"}}",
        m.window,
        m.kind.metric(),
        m.ratio,
        json::escape(&m.detail())
    )
}

/// Frames of 2 samples of 48 accesses, time-ordered across the session;
/// a `true` frame scatters its addresses over 256 MiB, so switching
/// kinds between uploads raises anomaly marks.
fn kinded_frames(kinds: &[bool], salt: u64) -> Vec<Vec<Sample>> {
    let samples = synthetic_samples(2 * kinds.len(), 48, salt);
    let scatter = |s: &Sample| {
        let accesses = s.accesses.iter().map(|a| {
            let addr = 0x900_0000 + a.addr.raw().wrapping_mul(2654435761) % (1 << 28);
            Access::new(a.ip, addr, a.time)
        });
        Sample::new(accesses.collect(), s.trigger_time)
    };
    samples
        .chunks(2)
        .zip(kinds)
        .map(|(frame, &scattered)| match scattered {
            true => frame.iter().map(scatter).collect(),
            false => frame.to_vec(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// However a session's frames are split into uploads, frameless ones
    /// included, the session publishes what a partial per upload did:
    /// each `window` and `anomaly` event is `WindowRing::close` over the
    /// upload's own partial with its trailer's loads, each `upload` delta
    /// is that partial's bytes, and the seal is their merge.
    #[test]
    fn any_split_publishes_each_upload_own_window_and_delta(
        kinds in prop::collection::vec(0u8..2, 1..10),
        sizes in prop::collection::vec(0usize..4, 1..8),
        salt in 0u64..8,
    ) {
        let kinds: Vec<bool> = kinds.iter().map(|&k| k == 1).collect();
        let frames = kinded_frames(&kinds, salt);
        // The drawn upload sizes, then uploads of 3 frames.
        let mut uploads: Vec<&[Vec<Sample>]> = Vec::new();
        let mut rest = &frames[..];
        for &n in sizes.iter().chain(std::iter::repeat(&3)) {
            if rest.is_empty() {
                break;
            }
            let (upload, after) = rest.split_at(n.min(rest.len()));
            uploads.push(upload);
            rest = after;
        }

        let cfg = ServeConfig::default();
        let registry = Registry::new(cfg.clone());
        let (hub_end, hub_events) = event_pipe();
        registry.watch_hub().subscribe(hub_end);
        let session = registry.create().expect("create");
        let (delta_end, delta_events) = event_pipe();
        session.subscribe(delta_end).expect("subscribe");

        let (annots, symbols) = (AuxAnnotations::new(), SymbolTable::new());
        let mut ring = WindowRing::new(ANOMALY_THRESHOLD);
        let (mut events, mut partials) = (Vec::new(), Vec::new());
        for upload in &uploads {
            let body = upload_body("splits", upload);
            let mut reader = ShardReader::new(&body[..]).expect("header");
            assert_eq!(reader.by_ref().count(), upload.len());
            let loads = reader.meta().total_loads;
            session.feed(body, &cfg).expect("feed");
            if upload.is_empty() {
                continue;
            }
            let mut own = StreamingAnalyzer::new(&annots, &symbols, cfg.analysis)
                .with_locality_sizes(&cfg.locality_sizes);
            upload.iter().for_each(|frame| own.ingest_shard(frame));
            let own = own.into_partial();
            let (stats, marks) = ring.close(&own, loads);
            events.push(("window".to_string(), window_json(&session.id, &stats)));
            for m in &marks {
                events.push(("anomaly".to_string(), anomaly_json(&session.id, m)));
            }
            partials.push(own);
        }
        let sealed = session.seal(&cfg).expect("seal");
        registry.seal_all();

        let mut hub = hub_events.join().expect("hub reader");
        prop_assert_eq!(hub.pop().map(|(e, _)| e), Some("drained".to_string()));
        prop_assert_eq!(hub, events);
        let deltas: Vec<Vec<u8>> = delta_events
            .join()
            .expect("delta reader")
            .iter()
            .filter(|(e, _)| e == "upload")
            .map(|(_, data)| client::delta_partial_bytes(data).expect("partial field"))
            .collect();
        let own_bytes: Vec<Vec<u8>> = partials.iter().map(PartialReport::encode).collect();
        prop_assert!(deltas == own_bytes, "upload deltas differ from the uploads' own partials");
        let merged = PartialReport::merge_many(
            partials,
            cfg.analysis.footprint_block,
            cfg.analysis.reuse_block,
            &cfg.locality_sizes,
        )
        .expect("merge");
        prop_assert!(merged.encode() == sealed.partial_bytes, "sealed bytes != merged partials");
    }
}

/// A long session of uneven uploads, frameless ones among them, seals
/// to the resident pass: the session's one analyzer is fed every frame
/// in feed order, whatever the uploads' sizes.
#[test]
fn a_long_uneven_session_seals_to_the_resident_pass() {
    let cfg = ServeConfig::default();
    let registry = Registry::new(cfg.clone());
    let session = registry.create().expect("create");
    let groups: Vec<Vec<Sample>> = synthetic_samples(120, 32, 5)
        .chunks(2)
        .map(<[Sample]>::to_vec)
        .collect();
    let mut rest = &groups[..];
    for k in 0.. {
        if rest.is_empty() {
            break;
        }
        // 0, 2, 4, 1, 3 frames, over and over.
        let (upload, after) = rest.split_at((k * 2 % 5).min(rest.len()));
        session
            .feed(upload_body("uneven", upload), &cfg)
            .expect("feed");
        rest = after;
    }
    let sealed = session.seal(&cfg).expect("seal");
    assert_eq!(sealed.shards, groups.len() as u64);
    assert!(
        sealed.finish().expect("finish") == resident_report("uneven", &groups, &cfg),
        "served report != resident"
    );
}

/// The shutdown race: a subscriber whose registration loses the race
/// against seal (e.g. SIGTERM drain sealing every session) must still
/// receive the final `sealed` event, not a torn stream. Exercised
/// deterministically by sealing *before* `subscribe` runs — the exact
/// interleaving the route's sealed check cannot rule out.
#[test]
fn drain_during_subscribe_still_delivers_the_sealed_event() {
    let cfg = ServeConfig::default();
    let registry = Registry::new(cfg.clone());
    let session = registry.create().expect("create");

    let samples = synthetic_samples(4, 32, 7);
    let groups: Vec<&[Sample]> = samples.chunks(2).collect();
    let upload = container("race", &groups);
    session.feed(upload, &cfg).expect("feed");

    // A real socket pair: the subscriber's write end goes into
    // `subscribe`, the read end plays the SSE client.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client_end = std::thread::spawn(move || TcpStream::connect(addr).expect("connect"));
    let (server_end, _) = listener.accept().expect("accept");
    let reader_end = client_end.join().expect("connect join");

    // Drain seals the session between the route check and subscribe.
    let (sealed, failures) = registry.seal_all();
    assert_eq!((sealed, failures), (1, 0));

    session
        .subscribe(server_end)
        .expect("late subscribe must succeed by delivering the final event");

    let mut reader = std::io::BufReader::new(reader_end);
    let mut text = String::new();
    std::io::Read::read_to_string(&mut reader, &mut text).expect("read events");
    assert!(
        text.contains("event: sealed"),
        "late subscriber saw a torn stream: {text:?}"
    );
    assert!(text.contains("\"shards\":2"), "payload: {text:?}");
}

/// `GET /watch/events`: every upload closes one rolling window and
/// publishes its drift stats; a phase shift between uploads raises an
/// anomaly event; drain ends the stream with a final `drained` event.
#[test]
fn watch_stream_publishes_windows_anomalies_then_drained() {
    use memgaze_model::Access;

    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), 3).expect("bind");
    let http = Client::new(server.addr());

    let collector = http.watch_collect().expect("watch subscribe");
    let hub = server.registry().watch_hub();
    await_subscriber(|| hub.subscriber_count());

    // Phase A: tight cyclic reuse over 32 lines. Phase B: scattered
    // accesses over a region 3 orders of magnitude larger — footprint
    // and reuse distance jump together.
    let tight: Vec<Sample> = (0..4)
        .map(|s| {
            let accesses: Vec<Access> = (0..100u64)
                .map(|i| Access::new(0x400, 0x10_0000 + (i % 32) * 64, s * 1000 + i))
                .collect();
            Sample::new(accesses, (s + 1) * 1000)
        })
        .collect();
    let scattered: Vec<Sample> = (4..8)
        .map(|s| {
            let accesses: Vec<Access> = (0..100u64)
                .map(|i| {
                    let x = s * 100 + i;
                    Access::new(
                        0x404,
                        0x900_0000 + (x * x * 2654435761) % (1 << 28),
                        s * 1000 + i,
                    )
                })
                .collect();
            Sample::new(accesses, (s + 1) * 1000)
        })
        .collect();

    let id = http.create_session().expect("create");
    for shard in [&tight, &scattered] {
        let upload = container("watch", &[shard.as_slice()]);
        assert_eq!(http.feed(&id, &upload, None).expect("feed").status, 202);
    }
    server.drain();

    let events = collector.collect();
    let windows = events.iter().filter(|(e, _)| e == "window").count();
    let anomalies: Vec<&(String, String)> = events.iter().filter(|(e, _)| e == "anomaly").collect();
    assert_eq!(windows, 2, "events: {events:?}");
    assert!(
        !anomalies.is_empty(),
        "phase shift raised no anomaly: {events:?}"
    );
    assert!(
        anomalies.iter().all(|(_, d)| d.contains("\"window\":1")),
        "anomalies: {anomalies:?}"
    );
    assert_eq!(events.last().map(|(e, _)| e.as_str()), Some("drained"));
}
