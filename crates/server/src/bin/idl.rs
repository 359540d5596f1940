//! `idl` — command-line runner, server and client for IDL.
//!
//! ```text
//! idl [--snapshot universe.json] [--save universe.json] [--sql] \
//!     [--analyze] [script.idl ...]
//! idl -e '?.euter.r(.stkCode=S, .clsPrice>200)'
//! idl --durable ./stocks --mapping -e '?.dbU.insStk(.stk=hp, .date=3/3/85, .price=50)'
//! idl serve --stock --addr 127.0.0.1:7401
//! idl connect 127.0.0.1:7401 -e '?.euter.r(.stkCode=S)' --stats
//! ```
//!
//! # Engine flags (script mode and `serve`)
//!
//! * `--snapshot F` — load the universe from a JSON snapshot (what
//!   `--save` writes) first; any other file is refused.
//! * `--save F` — write the universe back after all scripts ran.
//! * `--stock` — preload the paper's miniature stock universe.
//! * `--mapping` — install the paper's two-level mapping (views + programs).
//! * `--durable DIR` — run against a crash-safe engine opened at `DIR`
//!   with [`Engine::open_with_vfs`] (page-file checkpoints + checksummed operation log);
//!   mutating requests are logged and fsynced before their outcome
//!   prints. With `--mapping`, the mapping installs before the log
//!   replays. A directory an older build laid out (`universe.json`,
//!   delta files, a log before format 4) is refused, unchanged.
//! * `--fsync always|off` — log/checkpoint fsync policy under `--durable`
//!   (default `always`; `off` is the unsafe ablation mode).
//! * `--pool-pages N` — buffer-pool capacity of the page file under
//!   `--durable`, in 4 KiB pages (default 1024).
//! * `--checkpoint [auto|full]` — after all scripts ran, write a
//!   checkpoint and rotate the log (requires `--durable`; may be the
//!   only action). Bare or `auto` edits only the changed relations in
//!   place when it can; `full` rewrites the whole page file.
//! * `--sql` — treat `-e` input / script lines as the SQL-sugar dialect.
//! * `--analyze` — run static binding analysis instead of executing.
//! * `--explain` — pretty-print the compiled physical plan for each
//!   request instead of executing.
//! * `--no-compile` — execute with the tree-walk reference interpreter
//!   instead of compiled plans.
//! * `--threads N` — fixpoint worker threads for view materialisation
//!   (default: available parallelism; `1` forces the sequential path).
//! * `--stats` — after all scripts ran, print the statistics of the last
//!   view materialisation: iterations, rule evaluations, facts added,
//!   plan-cache traffic, per-stratum telemetry, and the structural-sharing
//!   counters (O(1) clones, copy-on-write breaks, pointer-equality hits,
//!   sharing hit rate). Under `--durable` the durability counters
//!   follow: log appends/syncs, checkpoints, recovery work, and the
//!   buffer-pool hit/miss/eviction telemetry.
//! * `-e STMT` — execute one statement from the command line.
//!
//! # `idl serve`
//!
//! Serves the configured engine over TCP to concurrent sessions on the
//! `idl-server` event loop (unix only): prints the bound address, then
//! runs until a client sends `Shutdown`. Extra flags: `--addr HOST:PORT`
//! (default `127.0.0.1:0` = ephemeral), `--max-sessions N`,
//! `--max-frame BYTES`, `--request-timeout SECS` (how long a request may
//! queue before it is answered `E-TIMEOUT`; `0` disables the deadline),
//! `--no-remote-shutdown`, `--workers N`, `--session-queue N`,
//! `--pending-queue N`, `--group-commit N`.
//!
//! # `idl connect ADDR`
//!
//! Runs scripts / `-e` statements against a remote server, then any of:
//! `--ping`, `--refresh`, `--dump-universe`, `--stats` (server, session
//! and engine counters), `--shutdown`.
//!
//! The environment variable `IDL_SIM_FAULTS` (a fault plan such as
//! `seed=7,crash_at=12`; see [`idl::FaultPlan`]) reroutes `--durable`
//! onto the deterministic in-memory simulated VFS — nothing touches the
//! real disk, and the scheduled fault fires mid-run. This is the manual
//! counterpart of the crash battery in `tests/crash_recovery.rs`.
//!
//! Scripts are ordinary multi-statement IDL sources (`;`-separated).

use idl::{
    CheckpointPolicy, DurabilityStats, Engine, EngineOptions, FaultPlan, Outcome, RealVfs, SimVfs,
    SyncPolicy, Vfs,
};
use idl_server::{serve, Client, ServerConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Cli {
    snapshot: Option<PathBuf>,
    save: Option<PathBuf>,
    durable: Option<PathBuf>,
    fsync: SyncPolicy,
    pool_pages: Option<usize>,
    checkpoint: bool,
    checkpoint_policy: Option<CheckpointPolicy>,
    stock: bool,
    mapping: bool,
    sql: bool,
    analyze: bool,
    explain: bool,
    no_compile: bool,
    stats: bool,
    threads: Option<usize>,
    inline: Vec<String>,
    scripts: Vec<PathBuf>,
    // `serve` extras
    addr: String,
    max_sessions: usize,
    max_frame: u32,
    request_timeout: Duration,
    no_remote_shutdown: bool,
    workers: usize,
    session_queue: usize,
    pending_queue: usize,
    group_commit: usize,
    // `connect` extras
    ping: bool,
    refresh: bool,
    dump_universe: bool,
    shutdown: bool,
}

impl Default for Cli {
    fn default() -> Self {
        let server = ServerConfig::default();
        Cli {
            snapshot: None,
            save: None,
            durable: None,
            fsync: SyncPolicy::Always,
            pool_pages: None,
            checkpoint: false,
            checkpoint_policy: None,
            stock: false,
            mapping: false,
            sql: false,
            analyze: false,
            explain: false,
            no_compile: false,
            stats: false,
            threads: None,
            inline: Vec::new(),
            scripts: Vec::new(),
            addr: server.addr,
            max_sessions: server.max_sessions,
            max_frame: server.max_frame,
            request_timeout: server.request_timeout,
            no_remote_shutdown: false,
            workers: server.workers,
            session_queue: server.session_queue,
            pending_queue: server.pending_queue,
            group_commit: server.group_commit,
            ping: false,
            refresh: false,
            dump_universe: false,
            shutdown: false,
        }
    }
}

/// Which front half of the CLI is running.
enum Mode {
    Script,
    Serve,
    Connect(String),
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<(Mode, Cli), String> {
    let mut cli = Cli::default();
    let mut args = args.peekable();
    let mode = match args.peek().map(String::as_str) {
        Some("serve") => {
            args.next();
            Mode::Serve
        }
        Some("connect") => {
            args.next();
            let addr = args.next().ok_or("connect needs a server address")?;
            Mode::Connect(addr)
        }
        _ => Mode::Script,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--snapshot" => {
                cli.snapshot = Some(args.next().ok_or("--snapshot needs a path")?.into())
            }
            "--save" => cli.save = Some(args.next().ok_or("--save needs a path")?.into()),
            "--durable" => {
                cli.durable = Some(args.next().ok_or("--durable needs a directory")?.into())
            }
            "--fsync" => {
                let mode = args.next().ok_or("--fsync needs always|off")?;
                cli.fsync = mode.parse()?;
            }
            "--pool-pages" => {
                let n = args.next().ok_or("--pool-pages needs a page count")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--pool-pages needs a positive integer, got {n:?}"))?;
                if n == 0 {
                    return Err("--pool-pages must be at least 1".into());
                }
                cli.pool_pages = Some(n);
            }
            "--checkpoint" => {
                cli.checkpoint = true;
                // Optional bare value: `--checkpoint full` rewrites the
                // page file, `--checkpoint auto` (= bare `--checkpoint`)
                // lets the engine pick in-place vs full.
                if let Some(policy) = args.peek().and_then(|next| next.parse().ok()) {
                    cli.checkpoint_policy = Some(policy);
                    args.next();
                }
            }
            "--stock" => cli.stock = true,
            "--mapping" => cli.mapping = true,
            "--sql" => cli.sql = true,
            "--analyze" => cli.analyze = true,
            "--explain" => cli.explain = true,
            "--no-compile" => cli.no_compile = true,
            "--stats" => cli.stats = true,
            "--threads" => {
                let n = args.next().ok_or("--threads needs a count")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--threads needs a positive integer, got {n:?}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                cli.threads = Some(n);
            }
            "--addr" => cli.addr = args.next().ok_or("--addr needs host:port")?,
            "--workers" => {
                let n = args.next().ok_or("--workers needs a count (0 = one per core)")?;
                cli.workers =
                    n.parse().map_err(|_| format!("--workers needs an integer, got {n:?}"))?;
            }
            "--session-queue" => {
                let n = args.next().ok_or("--session-queue needs a request count")?;
                cli.session_queue = n
                    .parse()
                    .map_err(|_| format!("--session-queue needs an integer, got {n:?}"))?;
                if cli.session_queue == 0 {
                    return Err("--session-queue must be at least 1".into());
                }
            }
            "--pending-queue" => {
                let n = args.next().ok_or("--pending-queue needs a request count")?;
                cli.pending_queue = n
                    .parse()
                    .map_err(|_| format!("--pending-queue needs an integer, got {n:?}"))?;
                if cli.pending_queue == 0 {
                    return Err("--pending-queue must be at least 1".into());
                }
            }
            "--group-commit" => {
                let n = args.next().ok_or("--group-commit needs a batch size")?;
                cli.group_commit =
                    n.parse().map_err(|_| format!("--group-commit needs an integer, got {n:?}"))?;
                if cli.group_commit == 0 {
                    return Err("--group-commit must be at least 1".into());
                }
            }
            "--max-sessions" => {
                let n = args.next().ok_or("--max-sessions needs a count")?;
                cli.max_sessions =
                    n.parse().map_err(|_| format!("--max-sessions needs an integer, got {n:?}"))?;
            }
            "--max-frame" => {
                let n = args.next().ok_or("--max-frame needs a byte count")?;
                cli.max_frame =
                    n.parse().map_err(|_| format!("--max-frame needs an integer, got {n:?}"))?;
            }
            "--request-timeout" => {
                let n = args.next().ok_or("--request-timeout needs seconds")?;
                let secs: u64 = n
                    .parse()
                    .map_err(|_| format!("--request-timeout needs whole seconds, got {n:?}"))?;
                cli.request_timeout = Duration::from_secs(secs);
            }
            "--no-remote-shutdown" => cli.no_remote_shutdown = true,
            "--ping" => cli.ping = true,
            "--refresh" => cli.refresh = true,
            "--dump-universe" => cli.dump_universe = true,
            "--shutdown" => cli.shutdown = true,
            "-e" => cli.inline.push(args.next().ok_or("-e needs a statement")?),
            "--help" | "-h" => {
                println!(
                    "usage: idl [--snapshot F] [--save F] [--durable DIR] [--fsync always|off] \
                     [--pool-pages N] \
                     [--checkpoint [auto|full]] [--stock] [--mapping] \
                     [--sql] [--analyze] [--explain] [--no-compile] [--stats] [--threads N] \
                     [-e STMT] [script.idl ...]\n\
                     \x20      idl serve [engine flags] [--addr HOST:PORT] \
                     [--max-sessions N] [--max-frame BYTES] \
                     [--request-timeout SECS] [--no-remote-shutdown] [--workers N] \
                     [--session-queue N] [--pending-queue N] [--group-commit N]\n\
                     \x20      idl connect ADDR [-e STMT] [script.idl ...] [--ping] [--refresh] \
                     [--dump-universe] [--stats] [--shutdown]"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            path => cli.scripts.push(path.into()),
        }
    }
    if cli.durable.is_some() {
        if cli.snapshot.is_some() || cli.save.is_some() || cli.stock {
            return Err(
                "--durable manages its own snapshot (drop --snapshot/--save/--stock)".into()
            );
        }
        if cli.sql {
            return Err(
                "--sql mutations would bypass the operation log; not allowed with --durable".into(),
            );
        }
    } else {
        if cli.checkpoint {
            return Err("--checkpoint requires --durable".into());
        }
        if cli.fsync != SyncPolicy::Always {
            return Err("--fsync requires --durable".into());
        }
        if cli.pool_pages.is_some() {
            return Err("--pool-pages requires --durable".into());
        }
    }
    Ok((mode, cli))
}

/// Applies `--threads` / `--no-compile` to an engine's options.
fn apply_engine_flags(e: &mut Engine, threads: Option<usize>, no_compile: bool) {
    let mut b = e.options().rebuild();
    if let Some(n) = threads {
        b = b.threads(n);
    }
    if no_compile {
        b = b.compile(false);
    }
    e.set_options(b.build());
}

fn open_durable(cli: &Cli, dir: &Path) -> Result<Engine, String> {
    let vfs: Arc<dyn Vfs> = match std::env::var("IDL_SIM_FAULTS") {
        Ok(spec) => {
            let plan: FaultPlan = spec.parse().map_err(|e| format!("bad IDL_SIM_FAULTS: {e}"))?;
            eprintln!("idl: IDL_SIM_FAULTS set — running on the simulated VFS (plan: {plan}); the real disk is untouched");
            Arc::new(SimVfs::new(plan))
        }
        Err(_) => Arc::new(RealVfs::new()),
    };
    let mut builder = EngineOptions::builder().sync(cli.fsync);
    if let Some(policy) = cli.checkpoint_policy {
        builder = builder.checkpoint_policy(policy);
    }
    if let Some(pages) = cli.pool_pages {
        builder = builder.pool_pages(pages);
    }
    let opts = builder.durability();
    let mapping = cli.mapping;
    let threads = cli.threads;
    let no_compile = cli.no_compile;
    Engine::open_with_vfs(dir.to_path_buf(), vfs, opts, move |e| {
        apply_engine_flags(e, threads, no_compile);
        if mapping {
            idl::transparency::install_two_level_mapping(e)?;
        }
        Ok(())
    })
    .map_err(|e| format!("cannot open durable engine at {}: {e}", dir.display()))
}

/// Builds the configured engine: opened on `--durable DIR`, in memory
/// otherwise.
fn build_engine(cli: &Cli) -> Result<Engine, String> {
    if let Some(dir) = &cli.durable {
        return open_durable(cli, dir);
    }
    let mut engine = match &cli.snapshot {
        Some(path) => {
            Engine::load_snapshot(path).map_err(|e| format!("cannot load snapshot: {e}"))?
        }
        None if cli.stock => Engine::with_stock_universe(vec![
            ("3/3/85", "hp", 50.0),
            ("3/3/85", "ibm", 160.0),
            ("3/4/85", "hp", 62.0),
            ("3/4/85", "ibm", 155.0),
            ("3/5/85", "hp", 61.0),
            ("3/5/85", "ibm", 210.0),
        ]),
        None => Engine::new(),
    };
    apply_engine_flags(&mut engine, cli.threads, cli.no_compile);
    if cli.mapping {
        idl::transparency::install_two_level_mapping(&mut engine)
            .map_err(|e| format!("cannot install mapping: {e}"))?;
    }
    Ok(engine)
}

/// `(label, text)` pairs from scripts and `-e` statements, in order.
fn gather_sources(cli: &Cli) -> Result<Vec<(String, String)>, String> {
    let mut sources = Vec::new();
    for script in &cli.scripts {
        let text = std::fs::read_to_string(script)
            .map_err(|e| format!("cannot read {}: {e}", script.display()))?;
        sources.push((script.display().to_string(), text));
    }
    for (i, stmt) in cli.inline.iter().enumerate() {
        sources.push((format!("-e #{}", i + 1), stmt.clone()));
    }
    Ok(sources)
}

fn print_outcomes(outcomes: Vec<Outcome>) {
    for o in outcomes {
        match o {
            Outcome::Answers { .. } => println!("{o}"),
            other => println!("-- {other}"),
        }
    }
}

fn main() -> ExitCode {
    let (mode, cli) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("idl: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match mode {
        Mode::Script => run_scripts(&cli),
        Mode::Serve => run_server(cli),
        Mode::Connect(addr) => run_client(&addr, &cli),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("idl: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_scripts(cli: &Cli) -> Result<(), String> {
    let mut engine = build_engine(cli)?;
    let sources = gather_sources(cli)?;
    if sources.is_empty() && !cli.checkpoint {
        return Err("nothing to run (pass a script or -e; --help for usage)".into());
    }
    for (label, text) in &sources {
        if cli.explain {
            let plan = engine.explain(text).map_err(|e| format!("{label}: {e}"))?;
            print!("{plan}");
            continue;
        }
        if cli.analyze {
            let issues = engine.analyze(text).map_err(|e| format!("{label}: {e}"))?;
            if issues.is_empty() {
                println!("{label}: no binding issues");
            }
            for i in issues {
                println!("{label}: warning: {i}");
            }
            continue;
        }
        let outcomes =
            if cli.sql { engine.execute_sql(text).map(|o| vec![o]) } else { engine.execute(text) };
        print_outcomes(outcomes.map_err(|e| format!("{label}: {e}"))?);
    }
    if cli.checkpoint {
        let o = engine.checkpoint().map_err(|e| format!("checkpoint failed: {e}"))?;
        println!("-- {o}");
    }
    if cli.stats {
        print_stats(engine.last_fixpoint_stats());
        if engine.is_durable() {
            print_durability_stats(&engine.durability_stats());
        }
    }
    if let Some(path) = &cli.save {
        engine.save_snapshot(path).map_err(|e| format!("cannot save snapshot: {e}"))?;
    }
    Ok(())
}

fn run_server(cli: Cli) -> Result<(), String> {
    if cli.sql || cli.analyze || cli.explain || cli.save.is_some() || cli.checkpoint {
        return Err(
            "serve takes engine flags only (no --sql/--analyze/--explain/--save/--checkpoint)"
                .into(),
        );
    }
    let engine = build_engine(&cli)?;
    let config = ServerConfig {
        addr: cli.addr.clone(),
        max_sessions: cli.max_sessions,
        max_frame: cli.max_frame,
        request_timeout: cli.request_timeout,
        allow_remote_shutdown: !cli.no_remote_shutdown,
        workers: cli.workers,
        session_queue: cli.session_queue,
        pending_queue: cli.pending_queue,
        group_commit: cli.group_commit,
        ..ServerConfig::default()
    };
    let handle =
        serve(Box::new(engine), config).map_err(|e| format!("cannot start server: {e}"))?;
    println!("idl-server listening on {}", handle.local_addr());
    let stats = handle.wait();
    println!(
        "-- served {} requests over {} sessions ({} reads, {} writes, {} errors, p50 {}us, p99 {}us)",
        stats.requests,
        stats.sessions_opened,
        stats.reads,
        stats.writes,
        stats.errors,
        stats.p50_us,
        stats.p99_us,
    );
    Ok(())
}

fn run_client(addr: &str, cli: &Cli) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if cli.ping {
        client.ping().map_err(|e| e.to_string())?;
        println!("-- pong");
    }
    for (label, text) in &gather_sources(cli)? {
        let outcomes = client.execute(text).map_err(|e| format!("{label}: {e}"))?;
        print_outcomes(outcomes);
    }
    if cli.refresh {
        let stats = client.refresh_views().map_err(|e| e.to_string())?;
        println!(
            "-- refreshed: {} iterations, {} rule evals, {} facts added",
            stats.iterations, stats.rule_evals, stats.facts_added
        );
    }
    if cli.dump_universe {
        println!("{}", client.dump_universe().map_err(|e| e.to_string())?);
    }
    if cli.stats {
        let reply = client.stats().map_err(|e| e.to_string())?;
        let s = &reply.server;
        println!(
            "-- server: {} requests over {} sessions ({} active), {} reads / {} writes, \
             {} errors, {} timeouts, p50 {}us, p99 {}us",
            s.requests,
            s.sessions_opened,
            s.sessions_active,
            s.reads,
            s.writes,
            s.errors,
            s.timeouts,
            s.p50_us,
            s.p99_us
        );
        println!(
            "-- server queues: {} load-shed, peak {} queued, {} reaped idle sessions, \
             {} group commits covering {} updates",
            s.load_shed,
            s.queue_depth_peak,
            s.sessions_reaped,
            s.group_commits,
            s.group_commit_records
        );
        println!(
            "-- session #{}: {} requests, {} errors, {}B in, {}B out",
            reply.session.session_id,
            reply.session.requests,
            reply.session.errors,
            reply.session.bytes_in,
            reply.session.bytes_out
        );
        let e = &reply.engine;
        println!(
            "-- engine: {} iterations, {} rule evals, {} facts added, plan cache {}h/{}m, \
             sharing hit-rate {:.1}%",
            e.iterations,
            e.rule_evals,
            e.facts_added,
            e.plan_cache_hits,
            e.plan_cache_misses,
            e.sharing_hit_rate * 100.0
        );
        println!(
            "-- engine semi-naive: {} delta evals, {} full evals, {} rules skipped, \
             {} schematic deltas, {} plan invalidations",
            e.delta_evals, e.full_evals, e.rules_skipped, e.schematic_deltas, e.plan_invalidations
        );
        if let Some(m) = &e.maintenance {
            println!(
                "-- engine maintenance: {} views maintained, {} delta rules run, \
                 {} schematic creates, {} schematic GCs, {} support entries",
                m.views_maintained,
                m.delta_rules_run,
                m.schematic_creates,
                m.schematic_gcs,
                m.support_entries
            );
        }
        if let Some(st) = &reply.storage {
            println!(
                "-- storage: {} backend, {} pages, {} full / {} delta checkpoints, chain {}",
                st.backend, st.pages, st.full_checkpoints, st.delta_checkpoints, st.chain_len
            );
            if let Some(p) = &st.pool {
                println!(
                    "-- buffer pool: {}/{} resident, {} hits / {} misses, {} evictions, \
                     {} dirty write-backs",
                    p.resident, p.capacity, p.hits, p.misses, p.evictions, p.dirty_writebacks
                );
            }
        }
    }
    if cli.shutdown {
        client.shutdown_server().map_err(|e| e.to_string())?;
        println!("-- server draining");
    }
    Ok(())
}

/// Prints the durability counters (the `--stats` output under
/// `--durable`, documented in LANGUAGE.md).
fn print_durability_stats(d: &DurabilityStats) {
    println!("-- durability stats");
    println!(
        "   log:            {} records appended ({}B, {} fsyncs), {} group commits covering {} records",
        d.records_appended, d.bytes_appended, d.log_syncs, d.group_commits, d.group_commit_records
    );
    println!(
        "   recovery:       {} records replayed, {} skipped, {}B torn tail truncated",
        d.records_recovered, d.records_skipped, d.torn_bytes_truncated
    );
    println!(
        "   checkpoints:    {} full, {} in place ({}B written)",
        d.full_checkpoints, d.delta_checkpoints, d.snapshot_bytes_written
    );
    println!("   storage:        {} pages in the page file", d.storage_pages);
    if let Some(p) = &d.pool {
        let total = p.hits + p.misses;
        let rate = if total == 0 { 0.0 } else { p.hits as f64 / total as f64 * 100.0 };
        println!(
            "   buffer pool:    {}/{} pages resident, {} hits / {} misses ({rate:.1}% hit rate)",
            p.resident, p.capacity, p.hits, p.misses
        );
        println!(
            "   buffer pool:    {} evictions, {} dirty write-backs",
            p.evictions, p.dirty_writebacks
        );
    }
}

/// Prints the last view-materialisation statistics (the `--stats` output
/// documented in LANGUAGE.md).
fn print_stats(stats: &idl::FixpointStats) {
    println!("-- fixpoint stats (last view materialisation)");
    println!("   iterations:     {}", stats.iterations);
    println!("   rule evals:     {}", stats.rule_evals);
    println!("   facts added:    {}", stats.facts_added);
    println!(
        "   semi-naive:     {} delta evals, {} full evals, {} rules skipped",
        stats.delta_evals, stats.full_evals, stats.rules_skipped
    );
    println!(
        "   schematic:      {} new relations, {} plan invalidations",
        stats.schematic_deltas, stats.plan_invalidations
    );
    println!(
        "   plans compiled: {} (plan cache: {} hits, {} misses)",
        stats.plans_compiled, stats.plan_cache_hits, stats.plan_cache_misses
    );
    let m = &stats.maintenance;
    println!(
        "   maintenance:    {} views maintained, {} delta rules run, \
         {} schematic creates, {} schematic GCs, {} support entries",
        m.views_maintained,
        m.delta_rules_run,
        m.schematic_creates,
        m.schematic_gcs,
        m.support_entries
    );
    for (i, s) in stats.strata.iter().enumerate() {
        println!(
            "   stratum #{i}: rules={} iterations={} workers={} evals/worker={:?} \
             skipped={} delta={} wall={:?}",
            s.rules,
            s.iterations,
            s.workers,
            s.rule_evals_per_worker,
            s.rules_skipped,
            s.delta_evals,
            s.wall
        );
    }
    let sh = &stats.sharing;
    println!(
        "   sharing: clones={} (tuple {}, set {}) cow-breaks={} ptr-eq-hits={} deep-clones={} hit-rate={:.1}%",
        sh.cheap_clones(),
        sh.tuple_clones,
        sh.set_clones,
        sh.cow_breaks,
        sh.ptr_eq_hits,
        sh.deep_clones,
        stats.sharing_hit_rate() * 100.0
    );
}
