//! Wire-level equivalence and failure injection for `memgaze serve`.
//!
//! The central contract: a sealed serve session's report is
//! bit-identical to a resident `StreamingAnalyzer` pass over the same
//! shards, for every upload split, HTTP chunking, and concurrency level
//! tested — proved over real sockets through the real parser. Around
//! it, the failure matrix: every admission-control refusal is a typed
//! status (never a panic, never a hang), torn clients don't wedge the
//! server, and drain seals what it holds.

use memgaze_analysis::PartialReport;
use memgaze_model::Sample;
use memgaze_serve::harness::{container, drive_session, resident_report, synthetic_samples};
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

#[test]
fn subscribers_see_every_shard_delta_then_sealed() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), 3).expect("bind");
    let http = Client::new(server.addr());
    let cfg = ServeConfig::default();
    let id = http.create_session().expect("create");

    let collector = http.subscribe_collect(&id).expect("subscribe");
    // The SSE head is written before the subscriber is registered; wait
    // for registration before feeding so no delta can be missed.
    let session = server.registry().get(&id).expect("session");
    for _ in 0..100 {
        if session.subscriber_count() > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        session.subscriber_count() > 0,
        "subscriber never registered"
    );

    let samples = synthetic_samples(6, 48, 2);
    let groups: Vec<Vec<Sample>> = samples.chunks(2).map(|c| c.to_vec()).collect();
    let refs: Vec<&[Sample]> = groups.iter().map(|g| g.as_slice()).collect();
    let upload = container("sse", &refs);
    assert_eq!(http.feed(&id, &upload, None).expect("feed").status, 202);
    let sealed = http.seal(&id).expect("seal");

    let events = collector.collect();
    let shard_events: Vec<&(String, String)> =
        events.iter().filter(|(e, _)| e == "shard").collect();
    assert_eq!(shard_events.len(), groups.len(), "events: {events:?}");
    assert_eq!(events.last().map(|(e, _)| e.as_str()), Some("sealed"));

    // The deltas are the sealed report: merging the published per-shard
    // partials reproduces the sealed partial bit for bit.
    let deltas: Vec<PartialReport> = shard_events
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

/// `GET /watch/events`: rolling windows close every
/// `watch_window_shards` shards and publish per-window drift stats;
/// a phase shift between uploads raises an anomaly event; drain ends
/// the stream with a final `drained` event.
#[test]
fn watch_stream_publishes_windows_anomalies_then_drained() {
    use memgaze_model::Access;

    let cfg = ServeConfig {
        watch_window_shards: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, 3).expect("bind");
    let http = Client::new(server.addr());

    let collector = http.watch_collect().expect("watch subscribe");
    let hub = server.registry().watch_hub();
    for _ in 0..100 {
        if hub.subscriber_count() > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        hub.subscriber_count() > 0,
        "watch subscriber never registered"
    );

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
