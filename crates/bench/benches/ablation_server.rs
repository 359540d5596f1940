//! B15 — serving-layer ablation: what the wire costs, and what
//! concurrency buys.
//!
//! Measures request round trips over a loopback `idl-server` against the
//! same engine driven directly in process:
//!
//! * `query/direct`    — [`Engine::query`] in a loop, no server (the
//!   evaluation floor);
//! * `query/clients_1` — one session, one request in flight: the full
//!   wire cost (serialize, frame, CRC, syscalls, deserialize) per
//!   round trip;
//! * `query/clients_8` — eight concurrent sessions issuing the same
//!   total number of queries: reads evaluate against the published
//!   snapshot without waiting on the writer, so on a multi-core host
//!   wall-clock should *drop* with sessions, not serialize (on a
//!   single-core runner expect parity with `clients_1`, which is
//!   itself the non-trivial result: no lock convoy, no slowdown);
//! * `mixed/clients_1` and `mixed/clients_8` — alternating update/query
//!   load: updates serialize through the single writer (and republish a
//!   snapshot each), so the 8-session speed-up here is bounded by the
//!   write fraction.
//!
//! The server runs with `request_timeout = 0` (no queued-request
//! deadline) so the measurement isolates protocol + concurrency cost. Updates re-insert existing facts (set semantics make them
//! no-ops on the universe), keeping the workload constant-size across
//! iterations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idl::Engine;
use idl_server::{serve, Client, ServerConfig, ServerHandle};
use std::hint::black_box;
use std::time::Duration;

/// Total requests per measured batch (split across sessions).
const OPS: usize = 64;
/// Distinct `.c` partitions preloaded into the universe.
const PARTITIONS: usize = 8;
/// Rows per partition.
const ROWS: usize = 50;

fn seeded_engine() -> Engine {
    let mut e = Engine::new();
    let mut src = String::new();
    for c in 0..PARTITIONS {
        for k in 0..ROWS {
            src.push_str(&format!("?.db.r+(.c={c}, .k={k}) ;\n"));
        }
    }
    e.execute(&src).expect("seed universe");
    e.add_rules(".v.all(.c=C, .k=K) <- .db.r(.c=C, .k=K) ;").expect("seed rules");
    e.refresh_views().expect("seed refresh");
    e
}

fn start_server() -> ServerHandle {
    start_server_maintain(true)
}

/// `maintain = false` pins the refresh-the-world reference mode: every
/// update leaves the views stale and the pre-ack republish rebuilds them.
fn start_server_maintain(maintain: bool) -> ServerHandle {
    let cfg = ServerConfig {
        request_timeout: Duration::ZERO, // inline evaluation, no watchdog
        ..ServerConfig::default()
    };
    let mut engine = seeded_engine();
    let opts = engine.options().rebuild().maintain(maintain).build();
    engine.set_options(opts);
    serve(Box::new(engine), cfg).expect("server starts")
}

fn query_src(c: usize) -> String {
    format!("?.db.r(.c={c}, .k=K), .v.all(.c={c}, .k=K)")
}

/// `sessions` threads split `OPS` requests; `write_every` > 0 makes every
/// n-th request a (constant-size re-insert) update through the writer.
fn drive(addr: std::net::SocketAddr, sessions: usize, write_every: usize) -> usize {
    let per_session = OPS / sessions;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..sessions)
            .map(|s| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut answers = 0usize;
                    for i in 0..per_session {
                        if write_every > 0 && i % write_every == 0 {
                            let src = format!("?.db.r+(.c={s}, .k={})", i % ROWS);
                            client.update(&src).expect("update");
                        } else {
                            answers += client.query(&query_src(s)).expect("query").len();
                        }
                    }
                    answers
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("session thread")).sum()
    })
}

fn bench_serving(c: &mut Criterion) {
    let handle = start_server();
    let addr = handle.local_addr();

    let mut group = c.benchmark_group("B15_server");
    group.bench_function(BenchmarkId::new("query", "direct"), |b| {
        let mut engine = seeded_engine();
        let src = query_src(3);
        b.iter(|| {
            let mut answers = 0usize;
            for _ in 0..OPS {
                answers += engine.query(&src).expect("direct query").len();
            }
            black_box(answers)
        })
    });
    for sessions in [1usize, 8] {
        group.bench_function(BenchmarkId::new("query", format!("clients_{sessions}")), |b| {
            b.iter(|| black_box(drive(addr, sessions, 0)))
        });
        group.bench_function(BenchmarkId::new("mixed", format!("clients_{sessions}")), |b| {
            b.iter(|| black_box(drive(addr, sessions, 4)))
        });
    }
    // Delta repair vs refresh-the-world at the wire: every request is a
    // *real* one-row delta (insert/delete toggle of a sentinel row, so
    // the universe stays constant-size). The server republishes before
    // it acks, and the republish repairs the views: with maintenance on
    // (`maintain_update`) through the delta pass, with it off
    // (`update_refresh`) by a full rebuild. `query_maintained` reads
    // against the repaired published snapshot.
    for maintain in [true, false] {
        let handle = start_server_maintain(maintain);
        let addr = handle.local_addr();
        let name = if maintain { "maintain_update" } else { "update_refresh" };
        group.bench_function(BenchmarkId::new(name, "clients_1"), |b| {
            b.iter(|| black_box(drive_toggle(addr, 1)))
        });
        if maintain {
            group.bench_function(BenchmarkId::new("query_maintained", "clients_1"), |b| {
                b.iter(|| black_box(drive(addr, 1, 0)))
            });
            let mut probe = Client::connect(addr).expect("probe connects");
            let reply = probe.stats().expect("stats");
            let m = reply.engine.maintenance.expect("maintenance counters published");
            assert!(m.views_maintained > 0, "toggle updates must be maintained: {m:?}");
            // the acked write is repaired into the view the next read sees
            probe.update("?.db.r+(.c=0, .k=999)").expect("update");
            assert!(probe.query("?.v.all(.c=0, .k=999)").expect("query").is_true());
            probe.update("?.db.r-(.c=0, .k=999)").expect("update");
            assert!(!probe.query("?.v.all(.c=0, .k=999)").expect("query").is_true());
        }
        let stats = handle.shutdown();
        assert_eq!(stats.errors, 0, "maintenance bench load must be error-free");
    }
    group.finish();

    let stats = handle.shutdown();
    assert_eq!(stats.errors, 0, "bench load must be error-free");
}

/// Every request is an update toggling a per-session sentinel row in and
/// out — a real one-row delta each time, with no net universe growth.
fn drive_toggle(addr: std::net::SocketAddr, sessions: usize) -> usize {
    let per_session = OPS / sessions;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..sessions)
            .map(|s| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    for i in 0..per_session {
                        let src = if i % 2 == 0 {
                            format!("?.db.r+(.c={s}, .k=999)")
                        } else {
                            format!("?.db.r-(.c={s}, .k=999)")
                        };
                        client.update(&src).expect("update");
                    }
                    per_session
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("session thread")).sum()
    })
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    targets = bench_serving
}
criterion_main!(benches);
