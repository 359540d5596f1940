//! The traced pass: per-layer metrics from spans recorded around calls
//! into each crate, never mixed into the end-to-end numbers.
//!
//! Served workloads: right after a set-up, the requests the untraced
//! window would issue first are sent one at a time over loopback with a
//! blocking `Client` (`client.rtt`, the root span). Each request is then
//! re-executed layer by layer on in-process twins holding the same state
//! — frame encode/decode on memory buffers, `parse_statement`, the plan
//! cache, `EngineSnapshot::query_request`, `Engine::execute_statement`,
//! `Backend::snapshot`, `DurableEngine::apply` — and the measured
//! durations become the root's children, re-based into its interval. The
//! root's self time is `server.residual`: the part of the round trip no
//! call from outside explains (reactor hops, queueing, sockets, the
//! kernel). A short untraced window afterwards supplies the server's
//! own counters under pipelined load.
//!
//! `restart_cycle` is embedded, so its spans are the cycle's own phases.

use crate::config::{self, CYCLE_UPDATES, TRACE_REQUESTS};
use crate::gen::{Expect, Request, Stream, StreamKind, Universe, QUOTES};
use crate::json::Json;
use crate::stats::median;
use crate::system::{self, ctx, BenchResult, ScratchDir};
use crate::trace::{self, median_us, Tracer};
use crate::workloads::{
    self, measure_window, set_up_restart, set_up_served, stream_kind, Cycle, Oracle, ServerDelta,
    Tally, Workload,
};
use idl::{
    Backend, DurableEngine, Engine, EngineSnapshot, Outcome, PlanCache, RealVfs, SharingCounters,
};
use idl_lang::{parse_statement, Statement};
use idl_server::protocol::{self, WireRequest, WireResponse};
use idl_server::Client;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-layer result of one traced run of one workload.
pub struct Layered {
    workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    values: HashMap<&'static str, f64>,
    /// Share of the root spans' time by self time, largest first.
    shares: Vec<(String, f64)>,
    span_summary: Json,
    root: &'static str,
    spans: usize,
    traced_requests: usize,
    clamped: u64,
    trace_file: PathBuf,
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// workload reports 0 for a layer it does not exercise.
pub const METRICS: [(&str, &str); 33] = [
    ("client.rtt_us", "us"),
    ("server.residual_us", "us"),
    ("server.residual_share", "ratio"),
    ("server.wire_us", "us"),
    ("server.wire_ns_per_row", "ns"),
    ("server.bytes_per_reply", "B"),
    ("server.group_size", "count"),
    ("server.queue_depth_peak", "count"),
    ("server.load_shed", "count"),
    ("lang.parse_us", "us"),
    ("eval.plan_hit_rate", "ratio"),
    ("eval.plan_count", "count"),
    ("eval.compile_us", "us"),
    ("eval.exec_us", "us"),
    ("eval.rows_out", "count"),
    ("idl.update_us", "us"),
    ("idl.maintained_share", "ratio"),
    ("idl.republish_us", "us"),
    ("idl.first_read_after_publish_us", "us"),
    ("storage.log_us", "us"),
    ("storage.log_bytes_per_update", "B"),
    ("storage.syncs_per_update", "count"),
    ("storage.recover_us", "us"),
    ("storage.replayed_records", "count"),
    ("storage.chain_len", "count"),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.pool_evictions", "count"),
    ("storage.checkpoint_us", "us"),
    ("storage.checkpoint_bytes_per_update", "B"),
    ("storage.file_bytes_per_quote", "B"),
    ("storage.pwrites", "count"),
    ("storage.file_syncs", "count"),
    ("object.cow_breaks_per_update", "count"),
];

impl Layered {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        METRICS
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::metrics(&self.metrics())),
            ("root_span", Json::str(self.root)),
            (
                "share_of_root_by_self_time",
                Json::obj(self.shares.iter().map(|(n, s)| (n.as_str(), Json::Num(*s)))),
            ),
            ("spans_by_name", self.span_summary.clone()),
            ("traced_requests", Json::Int(self.traced_requests as i64)),
            ("spans", Json::Int(self.spans as i64)),
            ("children_clamped_to_root", Json::Int(self.clamped as i64)),
            ("trace_file", Json::str(self.trace_file.display().to_string())),
            ("workload", Json::str(self.workload.name())),
        ];
        if !self.failures.is_empty() {
            pairs.push(("failures", Json::Arr(self.failures.iter().map(Json::str).collect())));
        }
        Json::obj(pairs)
    }
}

/// Encodes, frames, unframes and decodes the real request and reply on a
/// memory buffer: what client and server together spend on the wire
/// format. Returns the reply frame's size.
fn wire_roundtrip(req: &WireRequest, resp: &WireResponse) -> BenchResult<usize> {
    let max = protocol::DEFAULT_MAX_FRAME;
    let mut buf = Vec::new();
    protocol::send(&mut buf, req, max).map_err(ctx("encode request"))?;
    let payload =
        protocol::read_frame(&mut &buf[..], max, &mut |_| None).map_err(ctx("unframe request"))?;
    let text = std::str::from_utf8(&payload).map_err(ctx("request utf-8"))?;
    let decoded: WireRequest = serde_json::from_str(text).map_err(ctx("decode request"))?;
    std::hint::black_box(decoded);
    buf.clear();
    let bytes = protocol::send(&mut buf, resp, max).map_err(ctx("encode reply"))?;
    let payload =
        protocol::read_frame(&mut &buf[..], max, &mut |_| None).map_err(ctx("unframe reply"))?;
    let text = std::str::from_utf8(&payload).map_err(ctx("reply utf-8"))?;
    let decoded: WireResponse = serde_json::from_str(text).map_err(ctx("decode reply"))?;
    std::hint::black_box(decoded);
    Ok(bytes)
}

fn request_of(stmt: Statement) -> BenchResult<idl_lang::Request> {
    match stmt {
        Statement::Request(r) => Ok(r),
        other => Err(format!("generated text is not a request: {other}")),
    }
}

/// The in-process twins of a served system, brought to the state the
/// served system is in after its set-up.
struct Twins {
    mem: Engine,
    /// Only the feed has a durable twin (only it logs).
    durable: Option<(DurableEngine, ScratchDir)>,
    snapshot: EngineSnapshot,
    cache: Mutex<PlanCache>,
}

impl Twins {
    /// Builds the twins and replays the warm-up traffic the served system
    /// saw, so caches and feed state match.
    fn new(
        w: Workload,
        uni: &Arc<Universe>,
        out: &Path,
        warmed: &[u64],
        streams: &mut [Stream],
    ) -> BenchResult<Twins> {
        let mut mem = system::mem_twin(uni)?;
        let mut durable = if w == Workload::FeedRw {
            let dir = ScratchDir::new(out, "twin")?;
            system::load(dir.path(), uni, config::SERVED_POOL_PAGES)?;
            let d = system::open(dir.path(), Arc::new(RealVfs::new()), config::SERVED_POOL_PAGES)
                .map_err(ctx("open durable twin"))?;
            Some((d, dir))
        } else {
            None
        };
        let cache = Mutex::new(PlanCache::new());
        let opts = mem.options().eval;
        for (stream, &n) in streams.iter_mut().zip(warmed) {
            for _ in 0..n {
                let req = stream.next_request();
                if req.is_update {
                    mem.update(&req.text).map_err(ctx("warm mem twin"))?;
                    if let Some((d, _)) = &mut durable {
                        d.update(&req.text).map_err(ctx("warm durable twin"))?;
                    }
                } else {
                    let r = request_of(parse_statement(&req.text).map_err(ctx("parse"))?)?;
                    let mut cache = cache.lock().expect("cache lock is never poisoned");
                    cache.get_or_compile(&r.items, opts).map_err(ctx("warm plan cache"))?;
                }
            }
        }
        let snapshot = Backend::snapshot(&mut mem).map_err(ctx("twin snapshot"))?;
        Ok(Twins { mem, durable, snapshot, cache })
    }
}

/// Sums and samples collected beside the spans.
#[derive(Default)]
struct Counts {
    queries: u64,
    updates: u64,
    compile_ns: Vec<f64>,
    rows: Vec<f64>,
    wire_ns_per_row: Vec<f64>,
    reply_bytes: Vec<f64>,
    maintained: u64,
    cow_breaks: u64,
}

/// The state of one traced pass over a served system.
struct Pass<'a> {
    client: Client,
    twins: Twins,
    tracer: Tracer,
    counts: Counts,
    ho_rows: &'a HashMap<String, usize>,
    tally: &'a mut Tally,
}

impl Pass<'_> {
    fn check_reply(&mut self, req: &Request, resp: &WireResponse) {
        self.tally.attempted += 1;
        let ok = match (resp, req.expect) {
            (WireResponse::Answers(a), Expect::Rows(n)) => a.len() == n,
            (WireResponse::Answers(a), Expect::RowsAtLeast(n)) => a.len() >= n,
            (WireResponse::Answers(a), Expect::Oracle) => {
                self.ho_rows.get(&req.text) == Some(&a.len())
            }
            (WireResponse::Outcomes(o), Expect::Mutations(n)) => {
                matches!(o.as_slice(), [Outcome::Answers { stats, .. }] if stats.total() == n)
            }
            _ => false,
        };
        if !ok {
            self.tally.fail(format!("{} -> unexpected reply in the traced pass", req.text));
        }
    }

    /// Traces one query: the round trip, then its layers on the twin.
    fn query(&mut self, id: u64, req: &Request) -> BenchResult<()> {
        let wire_req = WireRequest::Query { src: req.text.clone() };
        let client = &mut self.client;
        let (resp, root, _) = self.tracer.time(id, "client.rtt", None, || client.call(&wire_req));
        let resp = resp.map_err(ctx("traced query"))?;
        self.check_reply(req, &resp);
        let (tracer, twins) = (&mut self.tracer, &self.twins);
        let mut at = tracer.rebase(root);

        let (bytes, wire_ns) =
            tracer.attach_timed(&mut at, "server.wire", || wire_roundtrip(&wire_req, &resp));
        let (stmt, _) = tracer.attach_timed(&mut at, "lang.parse", || parse_statement(&req.text));
        let parsed = request_of(stmt.map_err(ctx("parse"))?)?;
        let opts = twins.mem.options().eval;
        let (missed, plan_ns) = tracer.attach_timed(&mut at, "eval.plan", || {
            let mut cache = twins.cache.lock().expect("cache lock is never poisoned");
            let before = cache.misses();
            cache.get_or_compile(&parsed.items, opts).map(|_| cache.misses() > before)
        });
        if missed.map_err(ctx("plan"))? {
            self.counts.compile_ns.push(plan_ns as f64);
        }
        let (answers, _) = tracer.attach_timed(&mut at, "eval.exec", || {
            twins.snapshot.query_request(&parsed, Some(&twins.cache))
        });
        let rows = answers.map_err(ctx("twin query"))?.len();

        self.counts.queries += 1;
        self.counts.rows.push(rows as f64);
        self.counts.reply_bytes.push(bytes? as f64);
        if rows > 0 {
            self.counts.wire_ns_per_row.push(wire_ns as f64 / rows as f64);
        }
        Ok(())
    }

    /// Traces one feed update: the round trip, then parse, the in-memory
    /// update, the log's share of the durable update, and the snapshot
    /// republish — and, outside the round trip, the first wide read
    /// (`probe`) on the republished snapshot.
    fn update(&mut self, id: u64, req: &Request, probe: &Request) -> BenchResult<()> {
        let wire_req = WireRequest::Update { src: req.text.clone() };
        let client = &mut self.client;
        let (resp, root, _) = self.tracer.time(id, "client.rtt", None, || client.call(&wire_req));
        let resp = resp.map_err(ctx("traced update"))?;
        self.check_reply(req, &resp);
        let (tracer, twins) = (&mut self.tracer, &mut self.twins);
        let mut at = tracer.rebase(root);

        let (bytes, _) =
            tracer.attach_timed(&mut at, "server.wire", || wire_roundtrip(&wire_req, &resp));
        self.counts.reply_bytes.push(bytes? as f64);
        let (stmt, _) = tracer.attach_timed(&mut at, "lang.parse", || parse_statement(&req.text));
        let stmt = stmt.map_err(ctx("parse"))?;

        // The server is idle while the twins run, so the process-wide
        // sharing counters move only with this update.
        let sharing = SharingCounters::snapshot();
        let runs = twins.mem.maintenance_runs();
        let for_mem = stmt.clone();
        let (outcome, mem_ns) =
            tracer.attach_timed(&mut at, "idl.update", || twins.mem.execute_statement(for_mem));
        outcome.map_err(ctx("twin update"))?;

        // The durable twin does the same update plus the log append and
        // fsync; the difference is the log's.
        let (durable, _) = twins.durable.as_mut().expect("the feed has a durable twin");
        let t = Instant::now();
        durable.apply(stmt).map_err(ctx("durable twin update"))?;
        let durable_ns = t.elapsed().as_nanos() as u64;
        tracer.attach(&mut at, "storage.log", durable_ns.saturating_sub(mem_ns));
        // keep its views as fresh as the other twin's, off the clock
        Backend::snapshot(durable).map_err(ctx("durable twin snapshot"))?;

        // The server republishes before it acknowledges; views the update
        // itself did not maintain are repaired or rebuilt here.
        let (snapshot, _) =
            tracer.attach_timed(&mut at, "idl.republish", || Backend::snapshot(&mut twins.mem));
        twins.snapshot = snapshot.map_err(ctx("republish"))?;
        self.counts.maintained += twins.mem.maintenance_runs() - runs;
        self.counts.cow_breaks += SharingCounters::snapshot().delta_since(&sharing).cow_breaks;

        let parsed = request_of(parse_statement(&probe.text).map_err(ctx("parse probe"))?)?;
        let (first, _, _) = tracer.time(id, "idl.first_read_after_publish", None, || {
            twins.snapshot.query_request(&parsed, Some(&twins.cache))
        });
        first.map_err(ctx("first read after publish"))?;
        self.counts.updates += 1;
        Ok(())
    }
}

fn finish(
    w: Workload,
    tracer: Tracer,
    root: &'static str,
    traced_requests: usize,
    mut values: HashMap<&'static str, f64>,
    tally: Tally,
    out: &Path,
) -> BenchResult<Layered> {
    let spans = tracer.spans();
    let trace_file = out.join(format!("{}.trace.jsonl", w.name()));
    trace::write_jsonl(&trace_file, spans).map_err(ctx("write trace"))?;
    let summary = trace::summarize(spans);
    for (metric, span) in [
        ("client.rtt_us", "client.rtt"),
        ("server.wire_us", "server.wire"),
        ("lang.parse_us", "lang.parse"),
        ("eval.exec_us", "eval.exec"),
        ("idl.update_us", "idl.update"),
        ("idl.republish_us", "idl.republish"),
        ("idl.first_read_after_publish_us", "idl.first_read_after_publish"),
        ("storage.log_us", "storage.log"),
        ("storage.recover_us", "storage.recover"),
        ("storage.checkpoint_us", "storage.checkpoint"),
    ] {
        values.insert(metric, median_us(&summary, span));
    }
    if let Some(rtt) = summary.get("client.rtt") {
        values.insert("server.residual_us", rtt.median_self_ns as f64 / 1e3);
        values.insert("server.residual_share", rtt.total_self_ns as f64 / rtt.total_ns as f64);
    }
    let span_summary = Json::obj(summary.iter().map(|(name, s)| {
        (
            *name,
            Json::obj([
                ("count", Json::Int(s.count as i64)),
                ("median_us", Json::Num(s.median_ns as f64 / 1e3)),
                ("mean_us", Json::Num(s.total_ns as f64 / 1e3 / s.count as f64)),
                ("median_self_us", Json::Num(s.median_self_ns as f64 / 1e3)),
                ("mean_self_us", Json::Num(s.total_self_ns as f64 / 1e3 / s.count as f64)),
            ]),
        )
    }));
    Ok(Layered {
        workload: w,
        span_summary,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        values,
        shares: trace::shares(spans, root),
        root,
        spans: spans.len(),
        traced_requests,
        clamped: tracer.clamped,
        trace_file,
    })
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn traced_served(w: Workload, seed: u64, out: &Path, window: Duration) -> BenchResult<Layered> {
    let mut tally = Tally::default();
    let reference = Universe::generate(seed);
    let mut oracle = Oracle::new(&reference)?;
    let ho_rows = if w == Workload::HoRead { oracle.ho_rows(&reference)? } else { HashMap::new() };
    let mut run = set_up_served(w, seed, out, &ho_rows, &mut tally)?;

    // Fresh copies of the streams: first to replay the warm-up onto the
    // twins, then to continue with the requests the window would issue.
    let feed = w == Workload::FeedRw;
    let mut streams = vec![Stream::new(Arc::clone(&run.uni), stream_kind(w))];
    let mut warmed = vec![run.load.issued(0)];
    if feed {
        streams.push(Stream::new(Arc::clone(&run.uni), StreamKind::WideBesideFeed));
        warmed.push(run.load.issued(1));
    }
    let twins = Twins::new(w, &run.uni, out, &warmed, &mut streams)?;
    let log0 = twins.durable.as_ref().map(|(d, _)| d.durability_stats());
    let client =
        Client::connect(run.served.handle.local_addr()).map_err(ctx("connect traced session"))?;
    let mut pass = Pass {
        client,
        twins,
        tracer: Tracer::new(),
        counts: Counts::default(),
        ho_rows: &ho_rows,
        tally: &mut tally,
    };
    let budget = window / 2;
    let started = Instant::now();
    let mut traced = 0;
    while traced < TRACE_REQUESTS && started.elapsed() < budget {
        // the feed interleaves three updates with one read
        if feed && traced % 4 != 3 {
            let req = streams[0].next_request();
            let probe = streams[1].next_request();
            pass.update(traced as u64, &req, &probe)?;
        } else {
            let req = streams[usize::from(feed)].next_request();
            pass.query(traced as u64, &req)?;
        }
        traced += 1;
    }
    let Pass { twins, tracer, counts, .. } = pass;

    // The server's own counters under the pipelined load, which carries
    // on where the traced pass stopped.
    for (i, (stream, &warm)) in streams.iter().zip(&warmed).enumerate() {
        run.load.skip(i, stream.position() - warm);
    }
    let (mut seen, server): (_, ServerDelta) = measure_window(&mut run, window - budget)?;
    tally.absorb(&mut seen);
    drop(run.shut_down());

    let mut values = HashMap::new();
    // `eval.exec` looks each plan up once more; those hits are not the
    // stream's, so the rate counts the `eval.plan` lookups alone.
    values.insert(
        "eval.plan_hit_rate",
        1.0 - counts.compile_ns.len() as f64 / counts.queries.max(1) as f64,
    );
    let plans = twins.cache.lock().expect("cache lock is never poisoned").len();
    values.insert("eval.plan_count", plans as f64);
    values.insert("eval.compile_us", median_or_zero(&counts.compile_ns) / 1e3);
    values.insert("eval.rows_out", median_or_zero(&counts.rows));
    values.insert("server.wire_ns_per_row", median_or_zero(&counts.wire_ns_per_row));
    values.insert("server.bytes_per_reply", median_or_zero(&counts.reply_bytes));
    values.insert(
        "server.group_size",
        if server.group_commits == 0 {
            0.0
        } else {
            server.group_commit_records as f64 / server.group_commits as f64
        },
    );
    values.insert("server.queue_depth_peak", server.queue_depth_peak as f64);
    values.insert("server.load_shed", server.load_shed as f64);
    if let (Some((d, _)), Some(log0)) = (&twins.durable, log0) {
        let log = d.durability_stats();
        let updates = counts.updates.max(1) as f64;
        values.insert(
            "storage.log_bytes_per_update",
            (log.bytes_appended - log0.bytes_appended) as f64 / updates,
        );
        values
            .insert("storage.syncs_per_update", (log.log_syncs - log0.log_syncs) as f64 / updates);
        values.insert("idl.maintained_share", counts.maintained as f64 / updates);
        values.insert("object.cow_breaks_per_update", counts.cow_breaks as f64 / updates);
    }
    finish(w, tracer, "client.rtt", traced, values, tally, out)
}

fn traced_restart(seed: u64, out: &Path, window: Duration) -> BenchResult<Layered> {
    let mut tally = Tally::default();
    let mut oracle = Oracle::new(&Universe::generate(seed))?;
    let mut state = set_up_restart(seed, out, &mut tally)?;
    let mut tracer = Tracer::new();
    let started = Instant::now();
    let mut cycles = Vec::new();
    while started.elapsed() < window {
        let base = tracer.now_ns();
        let id = cycles.len() as u64;
        let c = workloads::restart_cycle(
            state.dir.path(),
            &state.uni,
            &mut state.feed,
            &mut oracle,
            &mut tally,
        )?;
        let root = tracer.push(id, "restart.cycle", base, base + c.total_ns, None);
        for &(name, start, end) in &c.phases {
            tracer.push(id, name, base + start, base + end, Some(root));
        }
        cycles.push(c);
    }
    if cycles.is_empty() {
        return Err("the window is too short for one restart cycle".into());
    }

    fn median_of(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
        median(&cycles.iter().map(f).collect::<Vec<_>>())
    }
    let per_cycle = |f: fn(&Cycle) -> f64| median_of(&cycles, f);
    let pool = |c: &Cycle| c.durability.pool.unwrap_or_default();
    let (hits, misses) = cycles
        .iter()
        .map(|c| (pool(c).hits, pool(c).misses))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let file_bytes =
        std::fs::metadata(state.dir.path().join("pages.idb")).map_err(ctx("stat page file"))?.len();
    let mut values = HashMap::new();
    values.insert("storage.replayed_records", per_cycle(|c| c.durability.records_recovered as f64));
    values.insert("storage.chain_len", per_cycle(|c| c.durability.chain_len as f64));
    values.insert("storage.pool_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    values.insert(
        "storage.pool_evictions",
        per_cycle(|c| c.durability.pool.unwrap_or_default().evictions as f64),
    );
    // One checkpoint per cycle covers the eight replayed and the eight
    // new updates.
    values.insert(
        "storage.checkpoint_bytes_per_update",
        per_cycle(|c| c.durability.snapshot_bytes_written as f64 / (2 * CYCLE_UPDATES) as f64),
    );
    values.insert("storage.file_bytes_per_quote", file_bytes as f64 / (3 * QUOTES) as f64);
    values.insert("storage.pwrites", per_cycle(|c| c.vfs.pwrites as f64));
    values.insert("storage.file_syncs", per_cycle(|c| c.vfs.file_syncs as f64));
    values.insert(
        "storage.log_bytes_per_update",
        per_cycle(|c| c.durability.bytes_appended as f64 / (2 * CYCLE_UPDATES) as f64),
    );
    values.insert(
        "storage.syncs_per_update",
        per_cycle(|c| c.durability.log_syncs as f64 / (2 * CYCLE_UPDATES) as f64),
    );
    let traced = cycles.len();
    let mut layered =
        finish(Workload::RestartCycle, tracer, "restart.cycle", traced, values, tally, out)?;
    // embedded: no client, no server
    for name in ["client.rtt_us", "server.residual_us", "server.residual_share"] {
        layered.values.insert(name, 0.0);
    }
    Ok(layered)
}

/// Traced run of any workload.
pub fn run_traced(w: Workload, seed: u64, out: &Path, window: Duration) -> BenchResult<Layered> {
    match w {
        Workload::RestartCycle => traced_restart(seed, out, window),
        _ => traced_served(w, seed, out, window),
    }
}
