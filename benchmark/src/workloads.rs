//! The five workloads: set-up, measured window, answer checking, and
//! the end-to-end metrics.

use crate::config::{self, CYCLE_UPDATES, FEED_DEPTH, SETUPS_AFTER, SETUPS_BEFORE, SLICES};
use crate::driver::{Lane, LoadGen, Observed, Sampled, Stop};
use crate::gen::{self, feed_op, Expect, Stream, StreamKind, Universe, HO_SIZES, QUOTES};
use crate::json::Json;
use crate::stats::{median, OpSummary, Timing};
use crate::system::{self, ctx, BenchResult, ScratchDir, Served};
use idl::{AnswerSet, Backend, DurabilityStats, Engine, RealVfs, Subst, Value, VfsStats};
use idl_lang::Var;
use idl_server::Client;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointRead,
    WideRead,
    HoRead,
    FeedRw,
    RestartCycle,
}

pub const ALL: [Workload; 5] = [
    Workload::PointRead,
    Workload::WideRead,
    Workload::HoRead,
    Workload::FeedRw,
    Workload::RestartCycle,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::WideRead => "wide_read",
            Workload::HoRead => "ho_read",
            Workload::FeedRw => "feed_rw",
            Workload::RestartCycle => "restart_cycle",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests that warm the system up at the end of each set-up. A
    /// count, not a time: lazy set-up (index builds, plan compiles, view
    /// materialisation) then costs what it costs, and shows in `setup_s`.
    fn warmup_requests(self) -> u64 {
        match self {
            Workload::PointRead => 2000,
            Workload::WideRead => 300,
            Workload::HoRead => 200,
            Workload::FeedRw => 96,
            Workload::RestartCycle => 0, // its first eight-update log tail instead
        }
    }

    /// The primary operation, its tail level, and the auxiliary
    /// operation (`aux_p50_us`), as the report names them.
    pub fn operations(self) -> (&'static str, f64, &'static str) {
        match self {
            Workload::PointRead => ("query", 0.99, "query, euter (row-schema) form"),
            Workload::WideRead => ("query", 0.99, "query, dbE (view over view) form"),
            Workload::HoRead => ("query", 0.99, "query, cross-database higher-order join"),
            // few dozen updates and a handful of cycles fit a window:
            // the levels are the highest such samples always support
            Workload::FeedRw => ("update (insStk/delStk)", 0.75, "reader session's wide query"),
            Workload::RestartCycle => ("recover (open to first answer)", 0.50, "checkpoint()"),
        }
    }

    /// The request class whose median is `aux_p50_us` on the read
    /// workloads (index into `gen::class_names`).
    fn aux_class(self) -> usize {
        match self {
            Workload::PointRead => 0,
            Workload::WideRead => 2,
            Workload::HoRead => 4,
            Workload::FeedRw | Workload::RestartCycle => unreachable!("aux is not a read class"),
        }
    }
}

/// End-to-end result of one untraced run of one workload.
pub struct EndToEnd {
    /// Every set-up of the run; `setup_s` is their median.
    pub setup_runs_s: Vec<f64>,
    pub op: OpSummary,
    pub aux: OpSummary,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Workload-specific figures for the report (never gated).
    pub extra: Vec<(String, Json)>,
}

impl EndToEnd {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The gated metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("op_rps", self.op.rps, "1/s"),
            ("op_p50_us", self.op.p50_us, "us"),
            ("op_tail_us", self.op.tail_us, "us"),
            ("aux_p50_us", self.aux.p50_us, "us"),
            ("setup_s", median(&self.setup_runs_s), "s"),
        ]
    }

    pub fn to_json(&self, w: Workload) -> Json {
        let (op_name, _, aux_name) = w.operations();
        let mut pairs = vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Int(self.attempted as i64)),
            ("failed".to_string(), Json::Int(self.failed as i64)),
            ("metrics".to_string(), Json::metrics(&self.metrics())),
            ("op".to_string(), Json::str(op_name)),
            ("op_timing".to_string(), self.op.to_json()),
            ("aux".to_string(), Json::str(aux_name)),
            ("aux_timing".to_string(), self.aux.to_json()),
            (
                "setup_runs_s".to_string(),
                Json::Arr(self.setup_runs_s.iter().map(|&s| Json::Num(s)).collect()),
            ),
        ];
        if !self.failures.is_empty() {
            pairs.push((
                "failures".to_string(),
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ));
        }
        pairs.extend(self.extra.iter().cloned());
        Json::Obj(pairs)
    }
}

/// Failure tally shared by the checks of one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Books the generator's completed requests and their failures.
    pub fn absorb(&mut self, seen: &mut Observed) {
        self.attempted += seen.records.len() as u64;
        self.failed += seen.failed;
        for f in seen.failures.drain(..) {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// The naive-engine oracle with its answers memoized by request text.
pub struct Oracle {
    engine: Engine,
    memo: HashMap<String, AnswerSet>,
}

impl Oracle {
    pub fn new(uni: &Universe) -> BenchResult<Oracle> {
        Ok(Oracle { engine: system::oracle(uni)?, memo: HashMap::new() })
    }

    pub fn answers(&mut self, text: &str) -> BenchResult<&AnswerSet> {
        if !self.memo.contains_key(text) {
            let a = self.engine.query(text).map_err(ctx("oracle query"))?;
            self.memo.insert(text.to_string(), a);
        }
        Ok(&self.memo[text])
    }

    /// Row counts of every `ho_read` request, computed at set-up (the
    /// other workloads' counts follow from the universe's shape).
    pub fn ho_rows(&mut self, uni: &Universe) -> BenchResult<HashMap<String, usize>> {
        let mut rows = HashMap::new();
        for class in 0..gen::class_names(StreamKind::Ho).len() {
            for (&t, &size) in uni.thresholds.iter().zip(&HO_SIZES) {
                let text = gen::ho_text(class, t);
                let n = self.answers(&text)?.len();
                if class < 4 && n != size {
                    return Err(format!("oracle: {text} has {n} answers, expected {size}"));
                }
                rows.insert(text, n);
            }
        }
        Ok(rows)
    }

    /// Compares the sampled replies answer by answer with the oracle.
    pub fn deep_check(&mut self, sampled: &[Sampled], tally: &mut Tally) -> BenchResult<usize> {
        for s in sampled {
            let want = self.answers(&s.text)?;
            let same = match s.expect {
                // beside the feed: every stored row, plus live feed quotes
                Expect::RowsAtLeast(_) => {
                    let got: BTreeSet<&Subst> = s.answers.iter().collect();
                    want.iter().all(|a| got.contains(a))
                }
                _ => *want == s.answers,
            };
            if !same {
                tally.fail(format!("{} -> answers differ from the naive oracle's", s.text));
            }
        }
        Ok(sampled.len())
    }
}

/// The live feed quotes after feed operations `0..ops` (all of them
/// acknowledged), as `(stock, fresh day, price)` with the price in
/// cents.
pub fn live_after(ops: u64) -> BTreeSet<(usize, usize, u64)> {
    let mut live = BTreeSet::new();
    for n in 0..ops {
        let op = feed_op(n);
        if op.insert {
            live.insert((op.stock, op.fresh_day, (op.price * 100.0).round() as u64));
        } else {
            live.retain(|&(s, d, _)| (s, d) != (op.stock, op.fresh_day));
        }
    }
    live
}

/// The quotes every schema must hold — the stored 6 000 plus the live
/// feed quotes — as the answers of a `(S, D, P)` query.
fn expected_quotes(uni: &Universe, live: &BTreeSet<(usize, usize, u64)>) -> AnswerSet {
    let quote = |stock: &str, date, cents_text: String| {
        let mut s = Subst::new();
        s.insert(Var::new("S"), Value::str(stock));
        s.insert(Var::new("D"), Value::date(date));
        // the value the engine parsed from the same text
        s.insert(Var::new("P"), Value::float(cents_text.parse().expect("price text")));
        s
    };
    let stored = uni.quotes.iter().map(|q| quote(&q.stock, q.date, gen::price(q.price)));
    let fresh = live.iter().map(|&(s, d, cents)| {
        quote(&uni.stocks[s], uni.fresh_dates[d], gen::price(cents as f64 / 100.0))
    });
    stored.chain(fresh).collect()
}

/// After a restart from the directory alone: every acknowledged insert
/// whose delete was not acknowledged is in all three schemata and the
/// unified view, and nothing else is.
pub fn check_recovered(
    backend: &mut dyn Backend,
    uni: &Universe,
    acked_ops: u64,
    tally: &mut Tally,
) -> BenchResult<usize> {
    let live = live_after(acked_ops);
    let want = expected_quotes(uni, &live);
    for q in [
        "?.euter.r(.stkCode=S,.date=D,.clsPrice=P)",
        "?.chwab.r(.date=D,.S=P), S != date",
        "?.ource.S(.date=D,.clsPrice=P)",
        "?.dbI.p(.stk=S,.date=D,.clsPrice=P)",
    ] {
        tally.attempted += 1;
        let got = backend.query(q).map_err(ctx("recovery check"))?;
        if got != want {
            tally.fail(format!(
                "after restart {q} has {} answers, expected {} ({} stored + {} live)",
                got.len(),
                want.len(),
                QUOTES,
                live.len()
            ));
        }
    }
    Ok(live.len())
}

/// A served system with its load generator connected and warmed up.
pub struct Running {
    pub served: Served,
    pub load: LoadGen,
    pub uni: Arc<Universe>,
}

/// The request streams and sessions of a served workload: the read
/// workloads' sessions all draw from one seeded stream at depth 1; the
/// feed has a writer session pipelined `FEED_DEPTH` deep and a reader
/// session at depth 1.
fn sessions(w: Workload, uni: &Arc<Universe>) -> (Vec<Stream>, Vec<Lane>) {
    let stream = |kind| Stream::new(Arc::clone(uni), kind);
    match w {
        Workload::FeedRw => (
            vec![stream(StreamKind::Feed), stream(StreamKind::WideBesideFeed)],
            vec![Lane { stream: 0, depth: FEED_DEPTH }, Lane { stream: 1, depth: 1 }],
        ),
        _ => (
            vec![stream(stream_kind(w))],
            vec![Lane { stream: 0, depth: 1 }; config::read_sessions()],
        ),
    }
}

/// One full set-up of a served workload: generate, load, checkpoint,
/// open, serve, connect, warm up.
pub fn set_up_served(
    w: Workload,
    seed: u64,
    out: &Path,
    ho_rows: &HashMap<String, usize>,
    tally: &mut Tally,
) -> BenchResult<Running> {
    let uni = Arc::new(Universe::generate(seed));
    let served = system::serve_fresh(out, &uni)?;
    let (streams, lanes) = sessions(w, &uni);
    let mut load = LoadGen::connect(served.handle.local_addr(), streams, lanes, ho_rows.clone())?;
    let mut warm = load.run(Stop::Completed(w.warmup_requests()))?;
    tally.absorb(&mut warm);
    Ok(Running { served, load, uni })
}

impl Running {
    /// Stops the server (no checkpoint) and hands back its directory.
    pub fn shut_down(self) -> (ScratchDir, Arc<Universe>) {
        drop(self.load);
        let Served { handle, dir } = self.served;
        handle.shutdown();
        (dir, self.uni)
    }
}

/// Times the set-ups of one run: some before the measured window, the
/// last of which is kept and measured on, the rest after it.
struct SetUps {
    runs_s: Vec<f64>,
}

impl SetUps {
    fn before<T>(
        mut set_up: impl FnMut() -> BenchResult<T>,
        mut tear_down: impl FnMut(T),
    ) -> BenchResult<(T, SetUps)> {
        let mut runs_s = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
        let mut kept = None;
        for _ in 0..SETUPS_BEFORE {
            if let Some(previous) = kept.take() {
                tear_down(previous);
            }
            let t0 = Instant::now();
            kept = Some(set_up()?);
            runs_s.push(t0.elapsed().as_secs_f64());
        }
        Ok((kept.expect("at least one set-up precedes the window"), SetUps { runs_s }))
    }

    fn after<T>(
        mut self,
        mut set_up: impl FnMut() -> BenchResult<T>,
        mut tear_down: impl FnMut(T),
    ) -> BenchResult<Vec<f64>> {
        for _ in 0..SETUPS_AFTER {
            let t0 = Instant::now();
            let built = set_up()?;
            self.runs_s.push(t0.elapsed().as_secs_f64());
            tear_down(built);
        }
        Ok(self.runs_s)
    }
}

fn samples_of(seen: &Observed, keep: impl Fn(&crate::driver::Record) -> bool) -> Vec<(u64, u64)> {
    seen.records.iter().filter(|r| r.ok && keep(r)).map(|r| (r.done_ns, r.latency_ns)).collect()
}

fn timing_of(samples: &[(u64, u64)], window_ns: u64, what: &str) -> BenchResult<Timing> {
    let inside = samples.iter().filter(|s| s.0 < window_ns).map(|s| s.1).collect();
    Timing::of(inside, 0.99).ok_or_else(|| format!("no {what} completed in the window"))
}

/// Server counters over a window, from `Stats` frames before and after.
pub struct ServerDelta {
    pub group_commits: u64,
    pub group_commit_records: u64,
    pub queue_depth_peak: u64,
    pub load_shed: u64,
    pub errors: u64,
}

pub fn measure_window(run: &mut Running, window: Duration) -> BenchResult<(Observed, ServerDelta)> {
    let mut stats =
        Client::connect(run.served.handle.local_addr()).map_err(ctx("connect stats session"))?;
    let before = stats.stats().map_err(ctx("stats before window"))?.server;
    let seen = run.load.run(Stop::After(window))?;
    let after = stats.stats().map_err(ctx("stats after window"))?.server;
    let delta = ServerDelta {
        group_commits: after.group_commits - before.group_commits,
        group_commit_records: after.group_commit_records - before.group_commit_records,
        queue_depth_peak: after.queue_depth_peak,
        load_shed: after.load_shed - before.load_shed,
        errors: after.errors - before.errors,
    };
    Ok((seen, delta))
}

/// Untraced run of a served workload.
pub fn run_served(w: Workload, seed: u64, out: &Path, window: Duration) -> BenchResult<EndToEnd> {
    let mut tally = Tally::default();
    let reference = Universe::generate(seed);
    let mut oracle = Oracle::new(&reference)?;
    let ho_rows = if w == Workload::HoRead { oracle.ho_rows(&reference)? } else { HashMap::new() };
    let (mut run, set_ups) = SetUps::before(
        || set_up_served(w, seed, out, &ho_rows, &mut tally),
        |previous: Running| drop(previous.shut_down()),
    )?;

    let (mut seen, server) = measure_window(&mut run, window)?;
    let window_ns = window.as_nanos() as u64;
    tally.absorb(&mut seen);
    if server.load_shed > 0 || server.errors > 0 {
        tally.fail(format!(
            "server counted {} load-shed and {} error replies",
            server.load_shed, server.errors
        ));
    }
    let deep_checked = oracle.deep_check(&seen.sampled, &mut tally)?;
    let mut extra = vec![("deep_checked".to_string(), Json::Int(deep_checked as i64))];

    let (op_samples, aux_samples) = if w == Workload::FeedRw {
        (samples_of(&seen, |r| r.lane == 0), samples_of(&seen, |r| r.lane == 1))
    } else {
        (samples_of(&seen, |_| true), samples_of(&seen, |r| r.class == w.aux_class()))
    };
    let (op, aux) = summarize(w, &op_samples, &aux_samples, window_ns)?;

    if w == Workload::FeedRw {
        let reader_rps =
            aux_samples.iter().filter(|s| s.0 < window_ns).count() as f64 / window.as_secs_f64();
        extra.push(("reader_query_rps".to_string(), Json::Num(reader_rps)));
        extra.push((
            "group_size".to_string(),
            Json::Num(server.group_commit_records as f64 / server.group_commits.max(1) as f64),
        ));
        // Every update issued was answered (the generator drains), and
        // an answer that was not an acknowledgement is in the tally.
        let acked = run.load.issued(0);
        // Restart from the directory alone: the server never
        // checkpointed, so the page file and the log tail are all there is.
        let (dir, uni) = run.shut_down();
        let mut reopened =
            system::open(dir.path(), Arc::new(RealVfs::new()), config::SERVED_POOL_PAGES)
                .map_err(ctx("reopen after feed"))?;
        let replayed = reopened.durability_stats().records_recovered;
        let live = check_recovered(&mut reopened, &uni, acked, &mut tally)?;
        extra.push(("recovered_log_records".to_string(), Json::Int(replayed as i64)));
        extra.push(("live_feed_quotes_after_restart".to_string(), Json::Int(live as i64)));
        if replayed != acked {
            tally.fail(format!("{acked} updates acknowledged, {replayed} in the log"));
        }
    } else {
        for (class, name) in gen::class_names(stream_kind(w)).iter().enumerate() {
            let s = samples_of(&seen, |r| r.class == class);
            if let Ok(t) = timing_of(&s, window_ns, name) {
                extra.push((format!("class_{name}"), t.to_json()));
            }
        }
        drop(run.shut_down());
    }
    let setup_runs_s = set_ups.after(
        || set_up_served(w, seed, out, &ho_rows, &mut tally),
        |built: Running| drop(built.shut_down()),
    )?;

    Ok(EndToEnd {
        setup_runs_s,
        op,
        aux,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        extra,
    })
}

/// Summaries of the primary and the auxiliary operation.
fn summarize(
    w: Workload,
    op_samples: &[(u64, u64)],
    aux_samples: &[(u64, u64)],
    window_ns: u64,
) -> BenchResult<(OpSummary, OpSummary)> {
    let (_, want_tail, _) = w.operations();
    let op = OpSummary::of(op_samples, window_ns, SLICES, want_tail)
        .ok_or("no operation completed in the window")?;
    let aux = OpSummary::of(aux_samples, window_ns, SLICES, want_tail)
        .ok_or("no auxiliary operation completed in the window")?;
    Ok((op, aux))
}

/// What one restart cycle observed. The phase intervals are measured the
/// same way whether or not anyone keeps them: the traced pass turns them
/// into spans afterwards, so tracing adds nothing to the cycle itself.
pub struct Cycle {
    /// `(name, start, end)` in nanoseconds since the cycle started.
    pub phases: Vec<(&'static str, u64, u64)>,
    /// Open to first answered query.
    pub recover_ns: u64,
    pub checkpoint_ns: u64,
    pub update_ns: Vec<u64>,
    pub total_ns: u64,
    /// Counters read just before the engine is dropped.
    pub durability: DurabilityStats,
    pub vfs: VfsStats,
}

/// One restart cycle on `dir`: open and first answered query, eight
/// durable updates, a checkpoint, eight more updates left as the log
/// tail, drop.
pub fn restart_cycle(
    dir: &Path,
    uni: &Universe,
    feed: &mut Stream,
    oracle: &mut Oracle,
    tally: &mut Tally,
) -> BenchResult<Cycle> {
    let cycle = feed.position() / (2 * CYCLE_UPDATES as u64);
    let text = gen::ho_text(3, uni.thresholds[cycle as usize % HO_SIZES.len()]);
    let t0 = Instant::now();
    let now = || t0.elapsed().as_nanos() as u64;
    let mut phases = Vec::with_capacity(5 + 2 * CYCLE_UPDATES);

    let mut d = system::open(dir, Arc::new(RealVfs::new()), config::RESTART_POOL_PAGES)
        .map_err(ctx("open"))?;
    let opened = now();
    phases.push(("storage.recover", 0, opened));
    let answers = Backend::query(&mut d, &text).map_err(ctx("first query"))?;
    let recover_ns = now();
    phases.push(("idl.first_query", opened, recover_ns));
    tally.attempted += 1;
    if answers != *oracle.answers(&text)? {
        tally.fail(format!("{text} -> answers differ from the naive oracle's after restart"));
    }
    let replayed = d.durability_stats().records_recovered;
    if replayed != CYCLE_UPDATES as u64 {
        tally.fail(format!("open replayed {replayed} log records, expected {CYCLE_UPDATES}"));
    }

    let mut update_ns = Vec::with_capacity(2 * CYCLE_UPDATES);
    let mut checkpoint_ns = 0;
    for half in 0..2 {
        for _ in 0..CYCLE_UPDATES {
            let req = feed.next_request();
            let start = now();
            let outcome = d.update(&req.text).map_err(ctx("durable update"))?;
            let end = now();
            phases.push(("idl.durable_update", start, end));
            update_ns.push(end - start);
            tally.attempted += 1;
            if outcome.stats().map(|s| s.total()) != Some(3) {
                tally.fail(format!("{} -> {outcome:?}, expected 3 mutations", req.text));
            }
        }
        if half == 0 {
            let start = now();
            d.checkpoint().map_err(ctx("checkpoint"))?;
            let end = now();
            phases.push(("storage.checkpoint", start, end));
            checkpoint_ns = end - start;
        }
    }
    let (durability, vfs) = (d.durability_stats(), d.vfs_stats());
    let start = now();
    drop(d);
    let total_ns = now();
    phases.push(("idl.drop", start, total_ns));
    Ok(Cycle { phases, recover_ns, checkpoint_ns, update_ns, total_ns, durability, vfs })
}

/// A loaded `restart_cycle` directory with its first log tail written.
pub struct RestartState {
    pub dir: ScratchDir,
    pub uni: Arc<Universe>,
    pub feed: Stream,
}

pub fn set_up_restart(seed: u64, out: &Path, tally: &mut Tally) -> BenchResult<RestartState> {
    let uni = Arc::new(Universe::generate(seed));
    let dir = ScratchDir::new(out, "restart")?;
    system::load(dir.path(), &uni, config::RESTART_POOL_PAGES)?;
    let mut feed = Stream::new(Arc::clone(&uni), StreamKind::Feed);
    // Warm-up: check the load, then leave the eight-update log tail
    // every cycle's open finds (as the second half of a cycle does).
    let mut d = system::open(dir.path(), Arc::new(RealVfs::new()), config::RESTART_POOL_PAGES)
        .map_err(ctx("open for load check"))?;
    system::verify_loaded(&mut d)?;
    for _ in 0..CYCLE_UPDATES {
        let req = feed.next_request();
        let outcome = d.update(&req.text).map_err(ctx("warm-up update"))?;
        tally.attempted += 1;
        if outcome.stats().map(|s| s.total()) != Some(3) {
            tally.fail(format!("{} -> {outcome:?}, expected 3 mutations", req.text));
        }
    }
    drop(d);
    Ok(RestartState { dir, uni, feed })
}

/// Untraced run of `restart_cycle` (embedded, no server).
pub fn run_restart(seed: u64, out: &Path, window: Duration) -> BenchResult<EndToEnd> {
    let mut tally = Tally::default();
    let mut oracle = Oracle::new(&Universe::generate(seed))?;
    let (mut state, set_ups) = SetUps::before(|| set_up_restart(seed, out, &mut tally), drop)?;

    let started = Instant::now();
    let (mut recover, mut checkpoint, mut updates) = (Vec::new(), Vec::new(), Vec::new());
    while started.elapsed() < window {
        let c =
            restart_cycle(state.dir.path(), &state.uni, &mut state.feed, &mut oracle, &mut tally)?;
        let done_ns = started.elapsed().as_nanos() as u64;
        recover.push((done_ns, c.recover_ns));
        checkpoint.push((done_ns, c.checkpoint_ns));
        updates.extend(c.update_ns);
    }
    let window_ns = window.as_nanos() as u64;
    let (op, aux) = summarize(Workload::RestartCycle, &recover, &checkpoint, window_ns)?;

    let mut reopened =
        system::open(state.dir.path(), Arc::new(RealVfs::new()), config::RESTART_POOL_PAGES)
            .map_err(ctx("final reopen"))?;
    let live = check_recovered(&mut reopened, &state.uni, state.feed.position(), &mut tally)?;
    let durable_update = Timing::of(updates, 0.99).ok_or("no durable update ran")?;
    drop((reopened, state));
    let setup_runs_s = set_ups.after(|| set_up_restart(seed, out, &mut tally), drop)?;
    let extra = vec![
        ("cycles".to_string(), Json::Int(recover.len() as i64)),
        ("durable_update_timing".to_string(), durable_update.to_json()),
        ("live_feed_quotes_after_restart".to_string(), Json::Int(live as i64)),
    ];
    Ok(EndToEnd {
        setup_runs_s,
        op,
        aux,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        extra,
    })
}

/// Untraced run of any workload.
pub fn run_untraced(w: Workload, seed: u64, out: &Path, window: Duration) -> BenchResult<EndToEnd> {
    match w {
        Workload::RestartCycle => run_restart(seed, out, window),
        _ => run_served(w, seed, out, window),
    }
}

pub fn stream_kind(w: Workload) -> StreamKind {
    match w {
        Workload::PointRead => StreamKind::Point,
        Workload::WideRead => StreamKind::Wide,
        Workload::HoRead => StreamKind::Ho,
        Workload::FeedRw | Workload::RestartCycle => StreamKind::Feed,
    }
}
