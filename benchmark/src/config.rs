//! The pinned configuration and the host fingerprint.
//!
//! Nothing here is read from the environment: `main` clears every
//! `IDL_*` variable before any engine option is built, and every option
//! the crates would default from one is set explicitly below. The values
//! are recorded in every report.

use crate::json::Json;
use idl::{
    CheckpointPolicy, DurabilityOptions, EngineOptions, LogFormat, SnapshotCodec, StorageSpec,
    SyncPolicy,
};
use idl_server::{ServeMode, ServerConfig};
use std::time::Duration;

/// Buffer pool of the served workloads: holds the whole page file.
pub const SERVED_POOL_PAGES: usize = 1024;
/// Buffer pool of `restart_cycle`: about a ninth of the page file, so
/// recovery and checkpoint run under eviction.
pub const RESTART_POOL_PAGES: usize = 128;

/// Pipeline depth of the feed writer session.
pub const FEED_DEPTH: usize = 8;
/// Durable updates before and after the checkpoint of one restart cycle.
pub const CYCLE_UPDATES: usize = 8;

/// The window's completions are cut into this many slices of equal
/// count (fewer when completions are few); throughput and latency are
/// reported as the median over slices, so the slices a burst of
/// interference disturbs do not move the result.
pub const SLICES: usize = 25;
/// Set-ups per run, `setup_s` being their median: this many before the
/// measured window (the last one is measured on) ...
pub const SETUPS_BEFORE: usize = 2;
/// ... and this many after it, so that the set-ups of one run are spread
/// over its whole length and one burst of interference cannot slow most
/// of them.
pub const SETUPS_AFTER: usize = 3;

/// One reply in this many is compared answer by answer with the oracle.
pub const DEEP_CHECK_EVERY: u64 = 32;
/// Requests replayed by the traced pass.
pub const TRACE_REQUESTS: usize = 2000;
/// A request unanswered for this long fails the run.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);

pub const NOTE: &str = "latencies are this sandbox's (page cache, cheap fsync), not a device's";

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sessions the load generator multiplexes on the read workloads.
pub fn read_sessions() -> usize {
    nproc().min(2)
}

/// Production path: compiled plans, semi-naive fixpoint, write-path
/// maintenance, one fixpoint worker per core.
pub fn engine_options() -> EngineOptions {
    EngineOptions::builder()
        .compile(true)
        .semi_naive(true)
        .maintain(true)
        .incremental_refresh(true)
        .auto_refresh(true)
        .threads(nproc())
        .build()
}

pub fn durability(sync: SyncPolicy, pool_pages: usize) -> DurabilityOptions {
    DurabilityOptions {
        sync,
        format: LogFormat::Framed,
        codec: SnapshotCodec::Binary,
        checkpoint: CheckpointPolicy::Auto { max_chain: 8 },
        storage: StorageSpec::Paged { pool_pages },
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        mode: ServeMode::Event,
        max_sessions: 64,
        max_frame: idl_server::protocol::DEFAULT_MAX_FRAME,
        idle_timeout: Duration::from_secs(300),
        request_timeout: Duration::from_secs(30),
        drain_timeout: Duration::from_secs(5),
        allow_remote_shutdown: false,
        workers: nproc(),
        session_queue: 32,
        pending_queue: 1024,
        group_commit: 64,
    }
}

fn cpu_model() -> String {
    // Best effort: the fingerprint is a label, not an input.
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host, toolchain, seed, window and the effective options.
pub fn describe(seed: u64, window_s: f64) -> Json {
    let engine = engine_options();
    let served = durability(SyncPolicy::Always, SERVED_POOL_PAGES);
    let server = server_config();
    Json::obj([
        (
            "host",
            Json::obj([
                ("nproc", Json::Int(nproc() as i64)),
                ("cpu", Json::str(cpu_model())),
                ("os", Json::str(std::env::consts::OS)),
                ("arch", Json::str(std::env::consts::ARCH)),
                ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
                ("git_commit", Json::str(env!("BENCH_GIT_COMMIT"))),
            ]),
        ),
        ("seed", Json::Int(seed as i64)),
        ("window_s", Json::Num(window_s)),
        ("slices", Json::Int(SLICES as i64)),
        ("setups", Json::Int((SETUPS_BEFORE + SETUPS_AFTER) as i64)),
        (
            "universe",
            Json::obj([
                ("stocks", Json::Int(crate::gen::STOCKS as i64)),
                ("days", Json::Int(crate::gen::DAYS as i64)),
                ("quotes_per_schema", Json::Int(crate::gen::QUOTES as i64)),
                ("fresh_days", Json::Int(crate::gen::FRESH_DAYS as i64)),
                ("mapping", Json::str("transparency::install_two_level_mapping")),
            ]),
        ),
        (
            "engine",
            Json::obj([
                ("compile", Json::Bool(engine.eval.compile)),
                ("use_indexes", Json::Bool(engine.eval.use_indexes)),
                ("reorder", Json::Bool(engine.eval.reorder)),
                ("semi_naive", Json::Bool(engine.semi_naive && engine.eval.semi_naive)),
                ("maintain", Json::Bool(engine.eval.maintain)),
                ("incremental_refresh", Json::Bool(engine.incremental_refresh)),
                ("auto_refresh", Json::Bool(engine.auto_refresh)),
                ("threads", Json::Int(engine.eval.threads as i64)),
            ]),
        ),
        (
            "durability",
            Json::obj([
                ("sync", Json::str(format!("{:?}", served.sync))),
                ("log_format", Json::str(format!("{:?}", served.format))),
                ("codec", Json::str(format!("{:?}", served.codec))),
                ("checkpoint", Json::str(format!("{:?}", served.checkpoint))),
                ("storage_served", Json::str(served.storage.to_string())),
                (
                    "storage_restart_cycle",
                    Json::str(StorageSpec::Paged { pool_pages: RESTART_POOL_PAGES }.to_string()),
                ),
                ("load_sync", Json::str(format!("{:?}", SyncPolicy::Never))),
            ]),
        ),
        (
            "server",
            Json::obj([
                ("mode", Json::str(server.mode.to_string())),
                ("in_process", Json::Bool(true)),
                ("workers", Json::Int(server.workers as i64)),
                ("session_queue", Json::Int(server.session_queue as i64)),
                ("pending_queue", Json::Int(server.pending_queue as i64)),
                ("group_commit", Json::Int(server.group_commit as i64)),
                ("request_timeout_s", Json::Num(server.request_timeout.as_secs_f64())),
            ]),
        ),
        (
            "load_generator",
            Json::obj([
                ("loop", Json::str("closed")),
                ("driver_threads", Json::Int(1)),
                ("read_sessions", Json::Int(read_sessions() as i64)),
                ("feed_writer_depth", Json::Int(FEED_DEPTH as i64)),
                ("feed_reader_depth", Json::Int(1)),
            ]),
        ),
        ("note", Json::str(NOTE)),
    ])
}
