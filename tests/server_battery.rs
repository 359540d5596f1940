//! The server battery: N concurrent client sessions against one
//! `idl-server`, checked for oracle equivalence and operational
//! robustness.
//!
//! * **Oracle equivalence** — 8 sessions issue a mixed read/update load
//!   concurrently; the final universe must be byte-identical to a
//!   single-threaded engine replaying the same updates. The per-client
//!   workloads touch disjoint keys, so the final state is
//!   order-independent and the comparison is exact.
//! * **Snapshot concurrency** — reads must keep completing *while* a
//!   view refresh holds the writer (the published-snapshot discipline).
//! * **Session isolation** — a mid-stream disconnect or an oversized
//!   frame kills its own session with a clean error frame; concurrent
//!   sessions and the engine are unaffected.
//! * **Durability over the wire** — updates through the server land in
//!   the operation log and survive a restart; a poisoned durable
//!   backend answers with clean `E-POISONED` frames while reads keep
//!   serving the last acknowledged snapshot.
//!
//! The durable legs run on a page file with a 16-page buffer pool, small
//! enough that eviction runs inside them. The fixpoint worker count
//! follows `IDL_TEST_THREADS` (the CI matrix runs 1 and 4),
//! exercising the server over both the sequential and parallel refresh
//! paths.

use idl::{
    AnswerSet, Backend, DurabilityOptions, Engine, EngineError, EngineOptions, EngineSnapshot,
    FaultPlan, FixpointStats, Outcome, RealVfs, SimVfs, Vfs,
};
use idl_server::{protocol, serve, Client, ServerConfig, ServerHandle, WireRequest, WireResponse};
use idl_storage::codec;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const OPS_PER_CLIENT: usize = 12;

const RULES: &str = "
    .v.all(.c=C, .k=K) <- .db.r(.c=C, .k=K) ;
    .v.byclient(.c=C) <- .db.r(.c=C, .k=K) ;
";

fn serve_engine(setup: impl FnOnce(&mut Engine), cfg: ServerConfig) -> ServerHandle {
    let mut engine = Engine::new();
    setup(&mut engine);
    serve(Box::new(engine), cfg).expect("server starts")
}

#[test]
fn eight_concurrent_sessions_match_single_threaded_oracle() {
    let handle = serve_engine(
        |e| {
            e.add_rules(RULES).unwrap();
        },
        ServerConfig::default(),
    );
    let addr = handle.local_addr();

    let workers: Vec<_> = (1..=CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                for k in 0..OPS_PER_CLIENT {
                    let out = client.update(&format!("?.db.r+(.c={c}, .k={k})")).unwrap();
                    assert_eq!(out.stats().unwrap().inserted, 1, "client {c} op {k}");
                    // Read-your-writes: the snapshot published with the
                    // ack already contains this client's whole history,
                    // in base *and* view within one snapshot (the two
                    // atoms evaluate against the same published handle).
                    let answers = client
                        .query(&format!("?.db.r(.c={c}, .k=K), .v.all(.c={c}, .k=K)"))
                        .unwrap();
                    assert_eq!(answers.len(), k + 1, "client {c} after op {k}");
                    match k % 4 {
                        0 => {
                            client.refresh_views().unwrap();
                        }
                        1 => client.ping().unwrap(),
                        _ => {}
                    }
                }
                let stats = client.stats().unwrap();
                assert_eq!(stats.session.errors, 0);
                assert!(stats.session.requests >= (2 * OPS_PER_CLIENT) as u64);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread panics propagate");
    }

    let served = Client::connect(addr).unwrap().dump_universe().unwrap();

    // single-threaded oracle: same updates, any order (disjoint keys)
    let mut oracle = Engine::new();
    oracle.add_rules(RULES).unwrap();
    for c in 1..=CLIENTS {
        for k in 0..OPS_PER_CLIENT {
            oracle.update(&format!("?.db.r+(.c={c}, .k={k})")).unwrap();
        }
    }
    oracle.refresh_views().unwrap();
    assert_eq!(served, oracle.universe_json().unwrap(), "served state diverged from oracle");

    let final_stats = handle.shutdown();
    assert_eq!(final_stats.sessions_active, 0);
    assert!(final_stats.sessions_opened >= CLIENTS as u64);
    assert_eq!(final_stats.errors, 0);
    assert!(final_stats.writes >= (CLIENTS * OPS_PER_CLIENT) as u64);
    assert!(final_stats.reads >= (CLIENTS * OPS_PER_CLIENT) as u64);
}

#[test]
fn snapshot_reads_proceed_while_a_refresh_is_in_flight() {
    // enough facts and strata that a from-scratch refresh takes real time
    let handle = serve_engine(
        |e| {
            let mut src = String::new();
            for c in 0..5 {
                for k in 0..400 {
                    src.push_str(&format!("?.db.r+(.c={c}, .k={k}) ;\n"));
                }
            }
            e.execute(&src).unwrap();
            e.add_rules(
                "
                .v.a(.c=C, .k=K) <- .db.r(.c=C, .k=K) ;
                .v.b(.c=C, .k=K) <- .v.a(.c=C, .k=K) ;
                .v.c(.k=K) <- .v.b(.c=C, .k=K) ;
                ",
            )
            .unwrap();
        },
        ServerConfig::default(),
    );
    let addr = handle.local_addr();

    let refreshing = Arc::new(AtomicBool::new(true));
    let refresher = {
        let refreshing = Arc::clone(&refreshing);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut windows = Vec::new();
            for _ in 0..3 {
                let t0 = Instant::now();
                client.refresh_views().unwrap();
                windows.push((t0, Instant::now()));
            }
            refreshing.store(false, Ordering::SeqCst);
            windows
        })
    };

    let mut client = Client::connect(addr).unwrap();
    let mut completions = Vec::new();
    while refreshing.load(Ordering::SeqCst) {
        let answers = client.query("?.db.r(.c=1, .k=K)").unwrap();
        assert_eq!(answers.len(), 400);
        completions.push(Instant::now());
    }
    let windows = refresher.join().unwrap();

    let during_refresh = completions
        .iter()
        .filter(|t| windows.iter().any(|(t0, t1)| *t0 < **t && **t < *t1))
        .count();
    assert!(
        during_refresh > 0,
        "no snapshot read completed inside any refresh window \
         ({} reads total, {} refresh windows)",
        completions.len(),
        windows.len(),
    );
    handle.shutdown();
}

/// An engine whose `refresh_views` sleeps first: a writer request slow
/// by construction, whatever the build profile or host.
struct SlowRefresh(Engine);

impl Backend for SlowRefresh {
    fn refresh_views(&mut self) -> Result<FixpointStats, EngineError> {
        std::thread::sleep(Duration::from_millis(300));
        self.0.refresh_views()
    }
    fn execute(&mut self, src: &str) -> Result<Vec<Outcome>, EngineError> {
        self.0.execute(src)
    }
    fn query(&mut self, src: &str) -> Result<AnswerSet, EngineError> {
        self.0.query(src)
    }
    fn update_group(&mut self, srcs: &[String]) -> Vec<Result<Outcome, EngineError>> {
        self.0.update_group(srcs)
    }
    fn stats(&self) -> &FixpointStats {
        self.0.last_fixpoint_stats()
    }
    fn snapshot(&mut self) -> Result<EngineSnapshot, EngineError> {
        self.0.snapshot()
    }
}

#[test]
fn queued_request_past_its_deadline_is_answered_timeout_in_order() {
    let mut engine = Engine::new();
    engine.execute("?.db.r+(.c=1, .k=1)").unwrap();
    let cfg =
        ServerConfig { request_timeout: Duration::from_millis(50), ..ServerConfig::default() };
    let handle = serve(Box::new(SlowRefresh(engine)), cfg).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    // The refresh runs on the write thread; the query pipelined behind it
    // waits in the session queue past its deadline and is answered
    // without running.
    client.send_request(&WireRequest::RefreshViews).unwrap();
    client.send_request(&WireRequest::Query { src: "?.db.r(.c=1, .k=K)".into() }).unwrap();
    match client.read_reply().unwrap() {
        WireResponse::Refreshed(_) => {}
        other => panic!("expected the refresh's reply first, got {other:?}"),
    }
    match client.read_reply().unwrap() {
        WireResponse::Error { code, .. } => assert_eq!(code, protocol::E_TIMEOUT),
        other => panic!("expected E-TIMEOUT for the queued query, got {other:?}"),
    }
    // The session survives and serves a normal query.
    assert!(client.query("?.db.r(.c=1, .k=K)").unwrap().is_true());
    drop(client);
    let final_stats = handle.shutdown();
    assert_eq!(final_stats.timeouts, 1);
}

#[test]
fn concurrent_reads_stay_on_published_snapshot_during_seminaive_refresh() {
    // The same slow-refresh shape as above, plus an oracle replica per
    // committed state: while the writer runs a semi-naive refresh for an
    // update, every concurrent read must serve bytes equal to *some*
    // fully-published state — never a torn universe with one view layer
    // refreshed and the next not.
    let mut seed_src = String::new();
    for c in 0..5 {
        for k in 0..400 {
            seed_src.push_str(&format!("?.db.r+(.c={c}, .k={k}) ;\n"));
        }
    }
    let layered = "
        .v.a(.c=C, .k=K) <- .db.r(.c=C, .k=K) ;
        .v.b(.c=C, .k=K) <- .v.a(.c=C, .k=K) ;
        .v.c(.k=K) <- .v.b(.c=C, .k=K) ;
    ";
    let updates: Vec<String> = (0..3).map(|i| format!("?.db.r+(.c=9, .k={})", 9990 + i)).collect();

    // Oracle JSONs for state 0 (seed only) through state 3 (all updates),
    // each with views fully refreshed.
    let mut oracle = Engine::new();
    oracle.execute(&seed_src).unwrap();
    oracle.add_rules(layered).unwrap();
    oracle.refresh_views().unwrap();
    let mut states = vec![oracle.universe_json().unwrap()];
    for u in &updates {
        oracle.update(u).unwrap();
        oracle.refresh_views().unwrap();
        states.push(oracle.universe_json().unwrap());
    }

    let handle = serve_engine(
        |e| {
            // This test pins the *semi-naive refresh* publication window,
            // so updates must pay a rebuild rather than a delta repair
            // (which shrinks the window to almost nothing and makes the
            // timing assertions vacuous).
            let opts = e.options().rebuild().maintain(false).build();
            e.set_options(opts);
            e.execute(&seed_src).unwrap();
            e.add_rules(layered).unwrap();
        },
        ServerConfig::default(),
    );
    let addr = handle.local_addr();

    // the first published snapshot is exactly state 0
    let mut reader = Client::connect(addr).unwrap();
    assert_eq!(reader.dump_universe().unwrap(), states[0], "initial publish");

    let updating = Arc::new(AtomicBool::new(true));
    let updater = {
        let updating = Arc::clone(&updating);
        let updates = updates.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut windows = Vec::new();
            for (i, u) in updates.iter().enumerate() {
                let t0 = Instant::now();
                client.update(u).unwrap();
                windows.push((t0, Instant::now()));
                // Read-your-writes after republish: the snapshot that
                // acknowledged this update already serves the new fact
                // through every view layer.
                let k = 9990 + i;
                assert!(client.query(&format!("?.v.c(.k={k})")).unwrap().is_true());
            }
            updating.store(false, Ordering::SeqCst);
            windows
        })
    };

    // Whole-universe dumps check for torn snapshots; between two dumps,
    // cheap probes count the updates visible through every view layer
    // (state `w` shows `w` of them), so enough reads land inside the
    // short refresh windows.
    let probe = "?.db.r(.c=9, .k=K), .v.a(.c=9, .k=K), .v.b(.c=9, .k=K), .v.c(.k=K)";
    let mut dumps = Vec::new();
    let mut probes = Vec::new();
    while updating.load(Ordering::SeqCst) {
        let json = reader.dump_universe().unwrap();
        dumps.push(json);
        for _ in 0..16 {
            let t0 = Instant::now();
            let seen = reader.query(probe).unwrap().len();
            probes.push((t0, Instant::now(), seen));
        }
    }
    let windows = updater.join().unwrap();

    for (i, json) in dumps.iter().enumerate() {
        assert!(
            states.contains(json),
            "read {i} served bytes matching no fully-published state (torn snapshot)"
        );
    }
    // At least one read that ran entirely inside an update window served
    // the *previous* published state: reads neither block on the writer's
    // semi-naive refresh nor observe its in-progress derivation.
    let stale_reads_in_window = probes
        .iter()
        .filter(|(r0, r1, seen)| {
            windows.iter().enumerate().any(|(w, (t0, t1))| t0 < r0 && r1 < t1 && *seen == w)
        })
        .count();
    assert!(
        stale_reads_in_window > 0,
        "no read inside any refresh window served the last published snapshot \
         ({} reads, {} windows)",
        probes.len(),
        windows.len(),
    );
    // After the last republish every reader sees the final state.
    assert_eq!(reader.dump_universe().unwrap(), states[3], "final publish");
    handle.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order_with_read_your_writes() {
    let handle = serve_engine(
        |e| {
            e.add_rules(RULES).unwrap();
        },
        ServerConfig::default(),
    );
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Fire the whole interleaved update/query workload without reading a
    // single reply: every frame sits in the session's pipeline.
    const N: usize = 16;
    for k in 0..N {
        client
            .send_request(&WireRequest::Update { src: format!("?.db.r+(.c=7, .k={k})") })
            .unwrap();
        client.send_request(&WireRequest::Query { src: "?.db.r(.c=7, .k=K)".into() }).unwrap();
    }
    // Replies come back strictly in request order, and each pipelined
    // query observes every update that preceded it in the pipeline
    // (read-your-writes across the whole burst).
    for k in 0..N {
        match client.read_reply().unwrap() {
            WireResponse::Outcomes(o) => {
                assert_eq!(o[0].stats().unwrap().inserted, 1, "update {k}")
            }
            other => panic!("reply {k}: expected the update's Outcomes, got {other:?}"),
        }
        match client.read_reply().unwrap() {
            WireResponse::Answers(a) => {
                assert_eq!(a.len(), k + 1, "query pipelined after update {k}")
            }
            other => panic!("reply {k}: expected the query's Answers, got {other:?}"),
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.session.errors, 0);
    assert_eq!(stats.session.requests, 2 * N as u64);
    drop(client);
    let final_stats = handle.shutdown();
    assert_eq!(final_stats.errors, 0);
}

/// One session's pipelined §7.1 calls dispatch as one run: the writer
/// executes them in order as one group commit, and one republish repairs
/// the views for all of them. A refused call fails alone, replies keep
/// request order, and the query pipelined behind the run reads every
/// accepted call through the unified and both customised views.
#[test]
fn one_sessions_pipelined_calls_commit_and_repair_as_one_group() {
    let handle = serve_engine(
        |e| {
            *e = Engine::with_stock_universe(vec![
                ("3/3/85", "hp", 50.0),
                ("3/3/85", "ibm", 160.0),
                ("3/4/85", "hp", 62.0),
            ]);
            idl::transparency::install_two_level_mapping(e).unwrap();
        },
        ServerConfig::default(),
    );
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let calls = [
        "?.dbU.insStk(.stk=sun, .date=3/3/85, .price=10)",
        "?.dbU.insStk(.stk=sun, .date=3/4/85, .price=11)",
        "?.dbU.insStk(.stk=dec, .date=3/3/85, .price=12)",
        "?.dbU.insStk(.stk=S, .date=3/5/85, .price=13)", // .stk unbound: refused
        "?.dbU.insStk(.stk=sun, .date=3/5/85, .price=14)",
        "?.dbU.delStk(.stk=dec, .date=3/3/85)",
        "?.dbU.insStk(.stk=ibm, .date=3/4/85, .price=15)",
        "?.dbU.insStk(.stk=sun, .date=3/6/85, .price=16)",
    ];
    let read =
        "?.dbI.p(.stk=sun, .date=D, .clsPrice=P), .dbE.r(.stkCode=sun, .date=D, .clsPrice=P), \
                .dbO.sun(.date=D, .clsPrice=P)";
    // One write, so the reactor parses the whole burst before it
    // dispatches the head.
    let mut burst = Vec::new();
    for src in calls {
        protocol::send(&mut burst, &WireRequest::Update { src: src.into() }, 1 << 20).unwrap();
    }
    protocol::send(&mut burst, &WireRequest::Query { src: read.into() }, 1 << 20).unwrap();
    client.stream().write_all(&burst).unwrap();
    for (i, src) in calls.iter().enumerate() {
        match (i, client.read_reply().unwrap()) {
            (3, WireResponse::Error { code, .. }) => assert_ne!(code, protocol::E_PROTO),
            (3, other) => panic!("the unbound call was accepted: {other:?}"),
            (_, WireResponse::Outcomes(o)) => assert!(o[0].stats().unwrap().total() > 0, "{src}"),
            (_, other) => panic!("{src}: expected Outcomes, got {other:?}"),
        }
    }
    match client.read_reply().unwrap() {
        WireResponse::Answers(a) => assert_eq!(a.len(), 4, "sun on 3/3, 3/4, 3/5 and 3/6: {a}"),
        other => panic!("expected the query's Answers, got {other:?}"),
    }
    assert!(!client.query("?.dbI.p(.stk=dec)").unwrap().is_true(), "delStk ran after insStk");
    assert!(client.query("?.dbE.r(.stkCode=ibm, .date=3/4/85, .clsPrice=15)").unwrap().is_true());
    drop(client);
    let stats = handle.shutdown();
    assert_eq!(stats.group_commit_records, calls.len() as u64);
    assert!(
        stats.group_commit_records >= 4 * stats.group_commits,
        "{} records in {} group commits",
        stats.group_commit_records,
        stats.group_commits
    );
}

/// A §7.1 program call carries no sign but writes: sent as a `Query`
/// frame it is refused with `E-USAGE` and the universe does not move; the
/// same call in an `Update` frame writes.
#[test]
fn program_call_in_a_query_frame_is_refused() {
    let handle = serve_engine(
        |e| {
            *e = Engine::with_stock_universe(vec![("3/3/85", "hp", 50.0)]);
            idl::transparency::install_two_level_mapping(e).unwrap();
        },
        ServerConfig::default(),
    );
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let call = "?.dbU.insStk(.stk=sun, .date=3/9/85, .price=1)";
    let before = client.dump_universe().unwrap();
    let err = client.query(call).unwrap_err();
    assert_eq!(err.code(), Some("E-USAGE"), "{err:?}");
    assert_eq!(client.dump_universe().unwrap(), before, "a refused call wrote");
    assert!(client.update(call).unwrap().stats().unwrap().total() > 0);
    assert!(client.query("?.dbI.p(.stk=sun)").unwrap().is_true());
    drop(client);
    handle.shutdown();
}

/// Pipelined-writer oracle leg: every client bursts its whole update
/// workload down the pipe before collecting a single ack, so concurrent
/// updates pile up at the writer and coalesce into group commits. The
/// final universe must still be byte-identical to the single-threaded
/// oracle.
#[test]
fn pipelined_writers_match_oracle_in_event_mode() {
    let handle = serve_engine(
        |e| {
            e.add_rules(RULES).unwrap();
        },
        ServerConfig::default(),
    );
    let addr = handle.local_addr();

    let workers: Vec<_> = (1..=CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                for k in 0..OPS_PER_CLIENT {
                    client
                        .send_request(&WireRequest::Update {
                            src: format!("?.db.r+(.c={c}, .k={k})"),
                        })
                        .unwrap();
                }
                for k in 0..OPS_PER_CLIENT {
                    match client.read_reply().unwrap() {
                        WireResponse::Outcomes(o) => {
                            assert_eq!(o[0].stats().unwrap().inserted, 1, "client {c} op {k}")
                        }
                        other => panic!("client {c} op {k}: expected Outcomes, got {other:?}"),
                    }
                }
                // Read-your-writes across the pipeline boundary: a query
                // issued after the last ack sees the whole burst, in base
                // and view within one snapshot.
                let answers =
                    client.query(&format!("?.db.r(.c={c}, .k=K), .v.all(.c={c}, .k=K)")).unwrap();
                assert_eq!(answers.len(), OPS_PER_CLIENT, "client {c} read-your-writes");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread panics propagate");
    }

    let served = Client::connect(addr).unwrap().dump_universe().unwrap();
    let mut oracle = Engine::new();
    oracle.add_rules(RULES).unwrap();
    for c in 1..=CLIENTS {
        for k in 0..OPS_PER_CLIENT {
            oracle.update(&format!("?.db.r+(.c={c}, .k={k})")).unwrap();
        }
    }
    oracle.refresh_views().unwrap();
    assert_eq!(served, oracle.universe_json().unwrap(), "pipelined state diverged from oracle");

    let stats = handle.shutdown();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.sessions_active, 0);
    assert!(stats.writes >= (CLIENTS * OPS_PER_CLIENT) as u64);
    // Every update travelled through the group-commit path; the batch
    // count tells how much coalescing the schedule happened to yield.
    assert_eq!(stats.group_commit_records, (CLIENTS * OPS_PER_CLIENT) as u64);
    assert!(stats.group_commits >= 1);
    assert!(stats.group_commits <= stats.group_commit_records);
}

#[test]
fn oversized_response_degrades_to_error_frame_in_event_mode() {
    let cfg = ServerConfig { max_frame: 1024, ..ServerConfig::default() };
    let handle = serve_engine(
        |e| {
            let mut src = String::new();
            for k in 0..200 {
                src.push_str(&format!("?.db.big+(.k={k}, .pad=xxxxxxxxxxxxxxxxxxxx{k}) ;\n"));
            }
            e.execute(&src).unwrap();
        },
        cfg,
    );
    let mut client = Client::connect_with(handle.local_addr(), 1024, None).unwrap();
    // The universe dump cannot fit one frame: the response degrades to a
    // clean E-TOO-LARGE error frame instead of killing the session.
    let err = client.dump_universe().unwrap_err();
    assert_eq!(err.code(), Some(protocol::E_TOO_LARGE), "{err}");
    client.ping().unwrap();
    assert!(client.query("?.db.big(.k=1, .pad=P)").unwrap().is_true());
    let final_stats = handle.shutdown();
    assert!(final_stats.errors >= 1);
    assert_eq!(final_stats.sessions_active, 0);
}

#[test]
fn idle_sessions_are_reaped_in_event_mode() {
    let cfg = ServerConfig { idle_timeout: Duration::from_millis(150), ..ServerConfig::default() };
    let handle = serve_engine(
        |e| {
            e.add_rules(RULES).unwrap();
        },
        cfg,
    );
    let mut idle = Client::connect(handle.local_addr()).unwrap();
    idle.ping().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    // The reaper closed the quiet session; the next call finds EOF.
    assert!(idle.ping().is_err(), "idle session survived past its deadline");
    let final_stats = handle.shutdown();
    assert!(final_stats.sessions_reaped >= 1);
    assert_eq!(final_stats.sessions_active, 0);
}

/// Raw-socket handshake: exchange magic, consume the greeting frame.
fn raw_handshake(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(protocol::MAGIC).unwrap();
    let mut magic = [0u8; 8];
    stream.read_exact(&mut magic).unwrap();
    assert_eq!(&magic, protocol::MAGIC);
    let greeting = protocol::read_frame(&mut stream, 1 << 20, &mut |_| None).unwrap();
    assert!(String::from_utf8(greeting).unwrap().contains("Pong"));
    stream
}

#[test]
fn disconnects_and_oversized_frames_do_not_poison_other_sessions() {
    let cfg = ServerConfig { max_frame: 2048, ..ServerConfig::default() };
    let handle = serve_engine(
        |e| {
            e.add_rules(RULES).unwrap();
        },
        cfg,
    );
    let addr = handle.local_addr();

    // an honest session, kept open across both abuse cases
    let mut honest = Client::connect_with(addr, 2048, None).unwrap();
    honest.update("?.db.r+(.c=1, .k=1)").unwrap();

    // abuse #1: a frame header promising 100 bytes, then a disconnect
    {
        let mut stream = raw_handshake(addr);
        let mut partial = Vec::new();
        partial.extend_from_slice(&100u32.to_le_bytes());
        partial.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        partial.extend_from_slice(b"tiny");
        stream.write_all(&partial).unwrap();
        drop(stream); // mid-frame EOF
    }

    // abuse #2: an oversized frame — rejected with a clean error frame
    {
        let mut stream = raw_handshake(addr);
        protocol::write_frame(&mut stream, &vec![b'x'; 4096], 1 << 20).unwrap();
        let payload = protocol::read_frame(&mut stream, 1 << 20, &mut |_| None).unwrap();
        let resp: idl_server::WireResponse =
            serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
        match resp {
            WireResponse::Error { code, .. } => assert_eq!(code, protocol::E_TOO_LARGE),
            other => panic!("expected an E-TOO-LARGE error frame, got {other:?}"),
        }
    }

    // abuse #3: a valid frame that is not valid JSON — error, session lives
    {
        let mut stream = raw_handshake(addr);
        protocol::write_frame(&mut stream, b"not json at all", 2048).unwrap();
        let payload = protocol::read_frame(&mut stream, 1 << 20, &mut |_| None).unwrap();
        assert!(std::str::from_utf8(&payload).unwrap().contains(protocol::E_PROTO));
        // same socket still answers a well-formed request afterwards
        protocol::write_frame(&mut stream, b"\"Ping\"", 2048).unwrap();
        let pong = protocol::read_frame(&mut stream, 1 << 20, &mut |_| None).unwrap();
        assert!(String::from_utf8(pong).unwrap().contains("Pong"));
    }

    // the honest session and the engine survived all of it
    honest.update("?.db.r+(.c=1, .k=2)").unwrap();
    let answers = honest.query("?.db.r(.c=1, .k=K), .v.all(.c=1, .k=K)").unwrap();
    assert_eq!(answers.len(), 2);
    let stats = honest.stats().unwrap();
    assert!(stats.server.frames_rejected >= 2);

    let final_stats = handle.shutdown();
    assert_eq!(final_stats.sessions_active, 0);
}

/// Old-client pin: a peer speaking the v1 handshake must see, byte for
/// byte, what it saw before the binary codec existed — the v1 magic
/// echoed, the exact `"Pong"` greeting frame, and `DumpUniverse`
/// replies as plain JSON with no binary marker.
#[test]
fn v1_clients_see_the_legacy_wire_bytes_in_event_mode() {
    let handle = serve_engine(
        |e| {
            e.execute("?.db.r+(.a=1) ; ?.db.r+(.a=2)").unwrap();
        },
        ServerConfig::default(),
    );
    let addr = handle.local_addr();
    let mut oracle = Engine::new();
    oracle.execute("?.db.r+(.a=1) ; ?.db.r+(.a=2)").unwrap();
    let want = oracle.universe_json().unwrap();

    // raw socket: the greeting is pinned to the pre-codec bytes
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(protocol::MAGIC).unwrap();
    let mut magic = [0u8; 8];
    stream.read_exact(&mut magic).unwrap();
    assert_eq!(&magic, protocol::MAGIC, "v1 client must get the v1 magic back");
    let greeting = protocol::read_frame(&mut stream, 1 << 20, &mut |_| None).unwrap();
    assert_eq!(greeting, b"\"Pong\"", "v1 greeting changed");
    protocol::write_frame(&mut stream, b"\"DumpUniverse\"", 1 << 20).unwrap();
    let payload = protocol::read_frame(&mut stream, 1 << 20, &mut |_| None).unwrap();
    assert_ne!(payload[0], protocol::BINARY_UNIVERSE_MARKER, "v1 session got a binary frame");
    let resp: WireResponse = serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    match resp {
        WireResponse::Universe { json } => assert_eq!(json, want),
        other => panic!("expected a JSON Universe, got {other:?}"),
    }
    drop(stream);

    // the convenience constructor pins the same behaviour
    let mut old = Client::connect_json(addr).unwrap();
    assert!(!old.is_binary());
    assert_eq!(old.dump_universe().unwrap(), want);
    handle.shutdown();
}

/// v2 negotiation: the server echoes the v2 magic, greets with `Hello`
/// advertising both codecs, and ships `DumpUniverse` as a marker-tagged
/// binary frame that decodes to the same universe a v1 session gets.
#[test]
fn v2_handshake_negotiates_binary_universes_in_event_mode() {
    let handle = serve_engine(
        |e| {
            e.execute("?.db.r+(.a=1) ; ?.db.r+(.a=2)").unwrap();
        },
        ServerConfig::default(),
    );
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(protocol::MAGIC_V2).unwrap();
    let mut magic = [0u8; 8];
    stream.read_exact(&mut magic).unwrap();
    assert_eq!(&magic, protocol::MAGIC_V2);
    let greeting = protocol::read_frame(&mut stream, 1 << 20, &mut |_| None).unwrap();
    let hello: WireResponse =
        serde_json::from_str(std::str::from_utf8(&greeting).unwrap()).unwrap();
    match hello {
        WireResponse::Hello { codecs } => {
            assert!(codecs.iter().any(|c| c == "json"), "{codecs:?}");
            assert!(codecs.iter().any(|c| c == "binary"), "{codecs:?}");
        }
        other => panic!("expected Hello, got {other:?}"),
    }
    protocol::write_frame(&mut stream, b"\"DumpUniverse\"", 1 << 20).unwrap();
    let payload = protocol::read_frame(&mut stream, 1 << 20, &mut |_| None).unwrap();
    assert_eq!(payload[0], protocol::BINARY_UNIVERSE_MARKER, "v2 dump must travel binary");
    let value = codec::decode_value(&payload[1..]).unwrap();
    drop(stream);

    // the decoded universe re-serializes to exactly the v1 JSON
    let mut v1 = Client::connect_json(addr).unwrap();
    let mut v2 = Client::connect(addr).unwrap();
    assert!(v2.is_binary());
    let json = v2.dump_universe().unwrap();
    assert_eq!(json, v1.dump_universe().unwrap(), "codecs must agree byte-for-byte");
    assert_eq!(serde_json::to_string(&value).unwrap(), json);
    handle.shutdown();
}

/// The frame cap squeezes out a JSON dump but not the binary one: a v1
/// session degrades to `E-TOO-LARGE` (hinting at the binary codec and
/// surviving), while a v2 session retries nothing — its dump simply fits.
#[test]
fn oversized_json_universe_fits_in_binary_in_event_mode() {
    const MAX: u32 = 8192;
    // one long atom repeated across rows: the codec interns it once,
    // JSON repeats it 200 times
    let mut src = String::new();
    for k in 0..200 {
        src.push_str(&format!(
            "?.db.big+(.k={k}, .pad=abcdefghijabcdefghijabcdefghijabcdefghijabcdefghij) ;\n"
        ));
    }
    let mut oracle = Engine::new();
    oracle.execute(&src).unwrap();
    let want = oracle.universe_json().unwrap();
    let binary = codec::encode_value(oracle.store().universe());
    assert!(
        want.len() > MAX as usize,
        "precondition: JSON dump ({}B) must exceed the cap",
        want.len()
    );
    assert!(
        binary.len() + 1 < MAX as usize,
        "precondition: binary dump ({}B) must fit",
        binary.len()
    );

    let handle = serve_engine(
        |e| {
            e.execute(&src).unwrap();
        },
        ServerConfig { max_frame: MAX, ..ServerConfig::default() },
    );
    let addr = handle.local_addr();

    let mut old = Client::connect_json_with(addr, MAX, None).unwrap();
    let err = old.dump_universe().unwrap_err();
    assert_eq!(err.code(), Some(protocol::E_TOO_LARGE), "{err}");
    assert!(err.to_string().contains("binary"), "the error must hint at the binary codec: {err}");
    old.ping().unwrap(); // clean degradation, not a dead session

    let mut new = Client::connect_with(addr, MAX, None).unwrap();
    assert!(new.is_binary());
    assert_eq!(new.dump_universe().unwrap(), want);
    handle.shutdown();
}

fn durability(pool_pages: usize) -> DurabilityOptions {
    EngineOptions::builder().pool_pages(pool_pages).durability()
}

#[test]
fn durable_backend_survives_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("idl-server-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = |dir: &std::path::Path| {
        Engine::open_with_vfs(dir, Arc::new(RealVfs::new()), durability(16), |_| Ok(())).unwrap()
    };

    let handle = serve(Box::new(open(&dir)), ServerConfig::default()).unwrap();
    {
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.update("?.db.r+(.a=1)").unwrap();
        client.update("?.db.r+(.a=2)").unwrap();
        assert!(client.query("?.db.r(.a=2)").unwrap().is_true());
    }
    handle.shutdown();

    // reopen the directory: both logged updates replay
    let mut reopened = open(&dir);
    assert_eq!(reopened.query("?.db.r(.a=X)").unwrap().len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paged_backend_serves_and_reports_pool_stats_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("idl-server-paged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let open = |dir: &std::path::Path| {
        Engine::open_with_vfs(
            dir.to_path_buf(),
            Arc::new(RealVfs::new()),
            durability(8),
            |_| Ok(()),
        )
        .unwrap()
    };
    let handle = serve(Box::new(open(&dir)), ServerConfig::default()).unwrap();
    {
        let mut client = Client::connect(handle.local_addr()).unwrap();
        for k in 0..4 {
            client.update(&format!("?.db.r+(.a={k})")).unwrap();
        }
        // the Stats frame carries the paged backend's telemetry as the
        // optional `storage` field
        let reply = client.stats().unwrap();
        let storage = reply.storage.expect("durable backend reports storage stats");
        assert_eq!(storage.backend, "paged:8");
        let pool = storage.pool.expect("paged backend reports pool stats");
        assert_eq!(pool.capacity, 8);
    }
    handle.shutdown();

    // checkpoint into the page file, then serve the recovered state
    open(&dir).checkpoint().unwrap();
    let handle = serve(Box::new(open(&dir)), ServerConfig::default()).unwrap();
    {
        let mut client = Client::connect(handle.local_addr()).unwrap();
        assert_eq!(client.query("?.db.r(.a=X)").unwrap().len(), 4);
        let storage = client.stats().unwrap().storage.expect("storage stats after recovery");
        assert!(storage.pages > 0, "page file materialised: {storage:?}");
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_durable_backend_answers_with_clean_error_frames() {
    let open = |vfs: &Arc<SimVfs>| {
        let v: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
        Engine::open_with_vfs("/served", v, durability(16), |_| Ok(())).unwrap()
    };
    // fault-free probe run to find the op index of the second update's
    // log append (same technique as the crash battery)
    let target = {
        let probe = Arc::new(SimVfs::new(FaultPlan::none(17)));
        open(&probe).update("?.db.r+(.a=1)").unwrap();
        probe.op_count() + 1
    };
    let vfs = Arc::new(SimVfs::new(FaultPlan::none(17).with_enospc_at(target)));
    let handle = serve(Box::new(open(&vfs)), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.update("?.db.r+(.a=1)").unwrap();

    // the armed fault fires on this append: the update fails cleanly …
    let err = client.update("?.db.r+(.a=2)").unwrap_err();
    assert!(err.code().is_some(), "expected an engine error frame, got {err}");

    // … the engine is now poisoned: writes report E-POISONED …
    let err = client.update("?.db.r+(.a=3)").unwrap_err();
    assert_eq!(err.code(), Some("E-POISONED"), "{err}");

    // … and reads keep serving the last acknowledged snapshot.
    assert!(client.query("?.db.r(.a=1)").unwrap().is_true());
    assert!(!client.query("?.db.r(.a=2)").unwrap().is_true());
    client.ping().unwrap();

    let final_stats = handle.shutdown();
    assert_eq!(final_stats.sessions_active, 0);
    assert!(final_stats.errors >= 2);
}
