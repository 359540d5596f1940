//! Crash-point simulation battery (DESIGN.md "Crash safety and the
//! simulated VFS").
//!
//! A scripted workload — base inserts across the three stock schemata,
//! §7.1 multidatabase update programs, §7.2 view updates, checkpoints —
//! runs on a [`SimVfs`] with a scheduled power failure. After the crash
//! the file system is power-cycled (losing unsynced writes and applying
//! seeded torn tails) and a fresh [`Engine`] recovers. The
//! invariants, under the default always-fsync policy:
//!
//! * recovery never fails;
//! * the recovered universe equals the reference built from exactly the
//!   **acknowledged** updates — optionally plus the single in-flight
//!   update whose record happened to become fully durable before the
//!   crash, but never a torn fragment of it (atomic presence or absence);
//! * the recovered engine keeps working, and its checkpointed universe
//!   reopens **byte-identically**.
//!
//! With dropped fsyncs (a lying disk) the guarantee weakens to prefix
//! consistency: the recovered state is some prefix of the executed
//! update sequence, or recovery reports an error — never silent garbage.
//!
//! Every fault schedule is reproducible: the [`FaultPlan`] serialises
//! into each failure message, and `IDL_SIM_FAULTS=<that string>` on the
//! `idl --durable` CLI replays it by hand. `IDL_CRASH_SEED` perturbs all
//! seeds in this file (CI pins it).

use idl::{DurabilityOptions, Engine, EngineError, FaultPlan, SimVfs, StorageSpec, Vfs};
use idl_repro as _;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One step of the scripted workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    /// A durable request (acknowledged only after its log record syncs).
    Update(&'static str),
    /// Snapshot + log rotation.
    Checkpoint,
}

/// The scripted workload: schematically-discrepant inserts (row-wise
/// `euter`, attribute-per-stock `chwab`, relation-per-stock `ource`),
/// §7.1 program calls, §7.2 view updates, and mid-stream checkpoints.
const WORKLOAD: &[Step] = &[
    Step::Update("?.euter.r+(.date=3/3/85, .stkCode=hp, .clsPrice=50)"),
    Step::Update("?.euter.r+(.date=3/4/85, .stkCode=hp, .clsPrice=62)"),
    Step::Update("?.euter.r+(.date=3/3/85, .stkCode=ibm, .clsPrice=160)"),
    Step::Update("?.chwab.r+(.date=3/5/85, .hp=61)"),
    Step::Update("?.ource.ibm+(.date=3/5/85, .clsPrice=210)"),
    Step::Checkpoint,
    Step::Update("?.dbU.insStk(.stk=sun, .date=3/6/85, .price=30)"),
    Step::Update("?.dbE.r+(.date=3/7/85, .stkCode=newco, .clsPrice=9)"),
    Step::Update("?.dbU.delStk(.stk=hp, .date=3/3/85)"),
    Step::Update("?.dbU.rmStk(.stk=ibm)"),
    Step::Checkpoint,
    Step::Update("?.euter.r+(.date=3/8/85, .stkCode=hp, .clsPrice=64)"),
    Step::Update("?.dbE.r-(.date=3/7/85, .stkCode=newco)"),
    Step::Update("?.dbU.insStk(.stk=acme, .date=3/8/85, .price=12)"),
];

/// A post-recovery probe update (continuing work after a crash).
const EXTRA_UPDATE: &str = "?.euter.r+(.date=3/9/85, .stkCode=zz, .clsPrice=1)";

/// `IDL_CRASH_SEED` mixes into every seed in this file (CI pins it; a
/// failure message's plan already embeds the mixed seed, so repro needs
/// only the plan string).
fn base_seed() -> u64 {
    std::env::var("IDL_CRASH_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Buffer pool of the battery's directories: smaller than the page file
/// the workload grows, so commits and recovery evict.
const POOL: usize = 16;

fn open(vfs: &Arc<SimVfs>, threads: usize, compile: bool) -> Result<Engine, EngineError> {
    let v: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
    let opts = DurabilityOptions {
        storage: StorageSpec::Paged { pool_pages: POOL },
        ..DurabilityOptions::default()
    };
    Engine::open_with_vfs("/crash", v, opts, move |e| {
        idl::transparency::install_two_level_mapping(e)?;
        let o = e.options().rebuild().threads(threads).compile(compile).build();
        e.set_options(o);
        Ok(())
    })
}

/// What a (possibly crashing) workload run acknowledged.
#[derive(Clone, PartialEq, Eq, Debug)]
struct RunOutcome {
    /// Workload indices of updates acknowledged (logged + synced) in order.
    acked: Vec<usize>,
    /// The update that errored mid-durability, if the failing step was an
    /// update: its record may or may not have become durable, atomically.
    in_flight: Option<usize>,
    /// Whether the whole workload ran without a fault.
    completed: bool,
}

fn run_workload(vfs: &Arc<SimVfs>, threads: usize, compile: bool) -> RunOutcome {
    let mut d = match open(vfs, threads, compile) {
        Ok(d) => d,
        Err(_) => return RunOutcome { acked: Vec::new(), in_flight: None, completed: false },
    };
    let mut acked = Vec::new();
    for (i, step) in WORKLOAD.iter().enumerate() {
        let res = match step {
            Step::Update(src) => d.update(src).map(|_| ()),
            Step::Checkpoint => d.checkpoint().map(|_| ()),
        };
        match res {
            Ok(()) => {
                if matches!(step, Step::Update(_)) {
                    acked.push(i);
                }
            }
            Err(_) => {
                let in_flight = matches!(step, Step::Update(_)).then_some(i);
                return RunOutcome { acked, in_flight, completed: false };
            }
        }
    }
    RunOutcome { acked, in_flight: None, completed: true }
}

/// Reference universe JSON after applying exactly the given workload
/// updates in order on a plain in-memory engine (memoized — prefixes
/// repeat heavily across crash points).
fn reference_json(indices: &[usize]) -> String {
    static MEMO: OnceLock<Mutex<BTreeMap<Vec<usize>, String>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(BTreeMap::new()));
    if let Some(hit) = memo.lock().unwrap().get(indices) {
        return hit.clone();
    }
    let mut e = Engine::new();
    idl::transparency::install_two_level_mapping(&mut e).unwrap();
    for &i in indices {
        let Step::Update(src) = WORKLOAD[i] else { continue };
        e.update(src).unwrap();
    }
    e.refresh_views().unwrap();
    let json = e.universe_json().unwrap();
    memo.lock().unwrap().insert(indices.to_vec(), json.clone());
    json
}

/// The crash-battery postcondition: exact acked-set recovery (modulo the
/// atomic in-flight record), continued operation, and byte-identical
/// checkpoint round-trip.
fn assert_recovery(
    vfs: &Arc<SimVfs>,
    run: &RunOutcome,
    threads: usize,
    compile: bool,
    plan: &FaultPlan,
) {
    assert_recovery_with(vfs, run, plan, |v| open(v, threads, compile));
}

/// [`assert_recovery`] parameterised on how to (re)open the directory.
fn assert_recovery_with(
    vfs: &Arc<SimVfs>,
    run: &RunOutcome,
    plan: &FaultPlan,
    opener: impl Fn(&Arc<SimVfs>) -> Result<Engine, EngineError>,
) {
    let mut d = opener(vfs).unwrap_or_else(|e| panic!("recovery must not fail (plan {plan}): {e}"));
    d.refresh_views().unwrap_or_else(|e| panic!("refresh after recovery (plan {plan}): {e}"));
    let got = d.universe_json().unwrap();
    let acked_only = reference_json(&run.acked);
    let matches_acked = got == acked_only;
    let matches_with_in_flight = !matches_acked
        && run.in_flight.is_some_and(|x| {
            let mut with = run.acked.clone();
            with.push(x);
            got == reference_json(&with)
        });
    assert!(
        matches_acked || matches_with_in_flight,
        "plan {plan}: recovered universe is neither the acked set {:?} nor acked + in-flight {:?}",
        run.acked,
        run.in_flight,
    );

    // the recovered engine continues accepting durable work ...
    d.update(EXTRA_UPDATE).unwrap_or_else(|e| panic!("update after recovery (plan {plan}): {e}"));
    d.checkpoint().unwrap_or_else(|e| panic!("checkpoint after recovery (plan {plan}): {e}"));
    d.refresh_views().unwrap();
    let want = d.universe_json().unwrap();
    drop(d);
    // ... and the checkpointed universe reopens byte-identically
    let mut d2 =
        opener(vfs).unwrap_or_else(|e| panic!("reopen after checkpoint (plan {plan}): {e}"));
    d2.refresh_views().unwrap();
    assert_eq!(
        d2.universe_json().unwrap(),
        want,
        "plan {plan}: snapshot round-trip is not byte-identical"
    );
}

/// Ops one fault-free workload takes — the crash-site enumeration range.
fn workload_op_count() -> u64 {
    static N: OnceLock<u64> = OnceLock::new();
    *N.get_or_init(|| {
        let probe = Arc::new(SimVfs::new(FaultPlan::none(1)));
        let run = run_workload(&probe, 1, true);
        assert!(run.completed, "fault-free workload must complete");
        probe.op_count()
    })
}

/// Exhaustive enumeration: crash at *every* I/O op of the workload.
fn crash_at_every_fault_site(threads: usize, compile: bool) {
    let seed = 0xC0FFEE ^ base_seed();
    let total = workload_op_count();
    assert!(total >= 20, "workload exercises too few fault sites: {total}");
    for crash_at in 1..=total {
        let plan = FaultPlan::none(seed).with_crash_at(crash_at);
        let vfs = Arc::new(SimVfs::new(plan));
        let run = run_workload(&vfs, threads, compile);
        vfs.power_cycle();
        assert_recovery(&vfs, &run, threads, compile, &plan);
    }
}

#[test]
fn crash_at_every_fault_site_compiled() {
    for threads in [1, 4] {
        crash_at_every_fault_site(threads, true);
    }
}

/// A query that repairs stale views incrementally (via auto-refresh) but
/// leaves maintained-fresh views untouched — unlike `refresh_views`,
/// which would rebuild from scratch and mask corrupt maintained state.
const PROBE_QUERY: &str = "?.dbI.p(.stk=S, .date=D, .clsPrice=P)";

/// Like [`run_workload`], but views are materialised up front and read
/// before every checkpoint, so each update is absorbed by the delta
/// repair and every checkpoint persists the maintained state alongside
/// the universe. Refreshes and queries do no VFS I/O, so crash sites line
/// up with [`workload_op_count`].
fn run_workload_maintained(vfs: &Arc<SimVfs>, threads: usize) -> RunOutcome {
    let mut d = match open(vfs, threads, true) {
        Ok(d) => d,
        Err(_) => return RunOutcome { acked: Vec::new(), in_flight: None, completed: false },
    };
    d.refresh_views().expect("in-memory view build cannot hit the VFS");
    let mut acked = Vec::new();
    for (i, step) in WORKLOAD.iter().enumerate() {
        let res = match step {
            Step::Update(src) => d.update(src).map(|_| ()),
            Step::Checkpoint => {
                d.query(PROBE_QUERY).expect("an in-memory read cannot hit the VFS");
                d.checkpoint().map(|_| ())
            }
        };
        match res {
            Ok(()) => {
                if matches!(step, Step::Update(_)) {
                    acked.push(i);
                }
            }
            Err(_) => {
                let in_flight = matches!(step, Step::Update(_)).then_some(i);
                return RunOutcome { acked, in_flight, completed: false };
            }
        }
    }
    RunOutcome { acked, in_flight: None, completed: true }
}

/// Crash at every I/O op of a maintenance-heavy run, then recover
/// *without* a forced rebuild: the recovered engine's views — adopted
/// from the snapshot's maintenance state and advanced by maintained
/// replay, with at most an incremental repair from the probe query —
/// must equal the full-rebuild reference byte-for-byte.
fn crash_at_every_fault_site_maintained(threads: usize) {
    let seed = 0xABBA ^ base_seed();
    let total = workload_op_count();
    for crash_at in 1..=total {
        let plan = FaultPlan::none(seed).with_crash_at(crash_at);
        let vfs = Arc::new(SimVfs::new(plan));
        let run = run_workload_maintained(&vfs, threads);
        vfs.power_cycle();

        let mut d = open(&vfs, threads, true)
            .unwrap_or_else(|e| panic!("recovery must not fail (plan {plan}): {e}"));
        d.query(PROBE_QUERY)
            .unwrap_or_else(|e| panic!("probe query after recovery (plan {plan}): {e}"));
        let got = d.universe_json().unwrap();
        let matches_acked = got == reference_json(&run.acked);
        let matches_with_in_flight = !matches_acked
            && run.in_flight.is_some_and(|x| {
                let mut with = run.acked.clone();
                with.push(x);
                got == reference_json(&with)
            });
        assert!(
            matches_acked || matches_with_in_flight,
            "plan {plan}: maintained recovery is neither the acked set {:?} nor acked + in-flight {:?}",
            run.acked,
            run.in_flight,
        );

        // keep working through the maintained write path, checkpoint the
        // maintained state, and reopen byte-identically — still with no
        // full rebuild anywhere
        d.update(EXTRA_UPDATE)
            .unwrap_or_else(|e| panic!("update after recovery (plan {plan}): {e}"));
        d.query(PROBE_QUERY).unwrap();
        d.checkpoint().unwrap_or_else(|e| panic!("checkpoint after recovery (plan {plan}): {e}"));
        d.query(PROBE_QUERY).unwrap();
        let want = d.universe_json().unwrap();
        drop(d);
        let mut d2 = open(&vfs, threads, true)
            .unwrap_or_else(|e| panic!("reopen after checkpoint (plan {plan}): {e}"));
        assert!(
            d2.durability_stats().maintenance_state_adopted,
            "plan {plan}: a checkpoint of fresh views must carry the maintained state"
        );
        d2.query(PROBE_QUERY).unwrap();
        assert_eq!(
            d2.universe_json().unwrap(),
            want,
            "plan {plan}: maintained snapshot round-trip is not byte-identical"
        );
    }
}

#[test]
fn crash_at_every_fault_site_maintained_views() {
    for threads in [1, 4] {
        crash_at_every_fault_site_maintained(threads);
    }
}

#[test]
fn crash_at_every_fault_site_tree_walk() {
    for threads in [1, 4] {
        crash_at_every_fault_site(threads, false);
    }
}

/// The group-commit workload: three coalesced batches, as the event-loop
/// server's write thread would issue them. Each batch is one log append
/// plus one fsync acknowledging every member.
const GROUPS: &[&[&str]] = &[
    &[
        "?.euter.r+(.date=3/3/85, .stkCode=hp, .clsPrice=50)",
        "?.euter.r+(.date=3/4/85, .stkCode=hp, .clsPrice=62)",
        "?.euter.r+(.date=3/3/85, .stkCode=ibm, .clsPrice=160)",
        "?.chwab.r+(.date=3/5/85, .hp=61)",
    ],
    &[
        "?.ource.ibm+(.date=3/5/85, .clsPrice=210)",
        "?.dbU.insStk(.stk=sun, .date=3/6/85, .price=30)",
        "?.dbE.r+(.date=3/7/85, .stkCode=newco, .clsPrice=9)",
        "?.dbU.delStk(.stk=hp, .date=3/3/85)",
        "?.dbU.rmStk(.stk=ibm)",
    ],
    &[
        "?.euter.r+(.date=3/8/85, .stkCode=hp, .clsPrice=64)",
        "?.dbE.r-(.date=3/7/85, .stkCode=newco)",
        "?.dbU.insStk(.stk=acme, .date=3/8/85, .price=12)",
    ],
];

/// Reference universe for an explicit update list (group prefixes don't
/// line up with [`WORKLOAD`] indices, so [`reference_json`] can't serve).
fn group_reference(srcs: &[&str]) -> String {
    let mut e = Engine::new();
    idl::transparency::install_two_level_mapping(&mut e).unwrap();
    for src in srcs {
        e.update(src).unwrap();
    }
    e.refresh_views().unwrap();
    e.universe_json().unwrap()
}

/// Runs the batched workload; returns the fully-acknowledged group count
/// and whether a further group was in flight when a fault struck.
fn run_grouped(vfs: &Arc<SimVfs>) -> (usize, bool) {
    let mut d = match open(vfs, 1, true) {
        Ok(d) => d,
        Err(_) => return (0, false),
    };
    for (g, members) in GROUPS.iter().enumerate() {
        let srcs: Vec<String> = members.iter().map(|s| s.to_string()).collect();
        let results = d.update_group(&srcs);
        if results.iter().any(|r| r.is_err()) {
            return (g, true);
        }
    }
    (GROUPS.len(), false)
}

/// Power-cycle at every VFS op index across the group-commit windows:
/// an acknowledged batch (its single fsync completed) must recover in
/// full — all-or-prefix never truncates inside an acked group — while a
/// batch cut mid-commit may surface as any *prefix* of its members
/// (records land sequentially in the coalesced append; torn-tail repair
/// drops the rest), never a gap or a torn record.
#[test]
fn group_commit_crash_battery_acks_all_or_prefix() {
    let seed = 0xBEEF ^ base_seed();
    let total = {
        let probe = Arc::new(SimVfs::new(FaultPlan::none(seed)));
        let (acked, faulted) = run_grouped(&probe);
        assert_eq!((acked, faulted), (GROUPS.len(), false), "fault-free run must complete");
        probe.op_count()
    };
    let mut strict_prefixes = 0usize;
    for crash_at in 1..=total {
        let plan = FaultPlan::none(seed).with_crash_at(crash_at);
        let vfs = Arc::new(SimVfs::new(plan));
        let (acked, in_flight) = run_grouped(&vfs);
        vfs.power_cycle();

        let mut d = open(&vfs, 1, true)
            .unwrap_or_else(|e| panic!("recovery must not fail (plan {plan}): {e}"));
        d.refresh_views().unwrap();
        let got = d.universe_json().unwrap();

        let acked_members: Vec<&str> =
            GROUPS[..acked].iter().flat_map(|g| g.iter().copied()).collect();
        let tail: &[&str] = if in_flight && acked < GROUPS.len() { GROUPS[acked] } else { &[] };
        let matched = (0..=tail.len()).find(|&k| {
            let mut candidate = acked_members.clone();
            candidate.extend_from_slice(&tail[..k]);
            got == group_reference(&candidate)
        });
        let Some(k) = matched else {
            panic!(
                "plan {plan}: recovered universe is neither the {acked} acked groups \
                 nor those plus any prefix of the in-flight group"
            );
        };
        if k > 0 && k < tail.len() {
            strict_prefixes += 1;
        }
    }
    // With the default seed, some crash site must land inside a
    // coalesced append and recover a strict non-empty prefix of the
    // group — otherwise this battery never exercised the boundary.
    if base_seed() == 0 {
        assert!(
            strict_prefixes > 0,
            "no crash site recovered a strict prefix of an in-flight group \
             ({total} sites probed)"
        );
    }
}

/// Buffer pool for the paged crash legs: small enough that the
/// workload's page file outgrows it, so commits and recovery evict and
/// write back dirty frames under pressure.
const PAGED_POOL: usize = 4;

/// Like [`open`], but with the tiny eviction-forcing pool.
fn open_paged(vfs: &Arc<SimVfs>) -> Result<Engine, EngineError> {
    let v: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
    let opts = DurabilityOptions {
        storage: StorageSpec::Paged { pool_pages: PAGED_POOL },
        ..DurabilityOptions::default()
    };
    Engine::open_with_vfs("/crash", v, opts, idl::transparency::install_two_level_mapping)
}

/// The paged workload: a checkpoint after every update, so most VFS ops
/// are shadow-page writes, dirty write-backs and meta flips against the
/// page file — crash sites land *inside* the page-file commit protocol.
fn run_workload_paged(vfs: &Arc<SimVfs>) -> RunOutcome {
    let mut d = match open_paged(vfs) {
        Ok(d) => d,
        Err(_) => return RunOutcome { acked: Vec::new(), in_flight: None, completed: false },
    };
    let mut acked = Vec::new();
    for (i, step) in WORKLOAD.iter().enumerate() {
        let Step::Update(src) = step else { continue };
        match d.update(src) {
            Ok(_) => acked.push(i),
            Err(_) => return RunOutcome { acked, in_flight: Some(i), completed: false },
        }
        if d.checkpoint().is_err() {
            return RunOutcome { acked, in_flight: None, completed: false };
        }
    }
    RunOutcome { acked, in_flight: None, completed: true }
}

/// Power-cycle at every I/O op of the paged workload — including every
/// page write, write-back and meta flip of `pages.idb` — then recover
/// through the paged backend. The shadow-paging commit protocol must
/// make every crash land on the previous or the new epoch, never
/// between: recovery lands on exactly the acked set, keeps accepting
/// work, and its next checkpoint reopens byte-identically.
#[test]
fn paged_crash_at_every_fault_site() {
    let seed = 0x9A6ED ^ base_seed();
    let total = {
        let probe = Arc::new(SimVfs::new(FaultPlan::none(seed)));
        let run = run_workload_paged(&probe);
        assert!(run.completed, "fault-free paged workload must complete");
        let total = probe.op_count();
        // the leg is vacuous unless the page file really outgrew the
        // pool and commits evicted under pressure
        let d = open_paged(&probe).unwrap();
        let stats = d.durability_stats();
        assert!(
            stats.storage_pages > PAGED_POOL as u64,
            "page file ({} pages) must exceed the pool ({PAGED_POOL} pages)",
            stats.storage_pages
        );
        let pool = stats.pool.expect("paged backend reports pool stats");
        assert!(pool.evictions > 0, "recovery under a {PAGED_POOL}-page pool must evict");
        total
    };
    for crash_at in 1..=total {
        let plan = FaultPlan::none(seed).with_crash_at(crash_at);
        let vfs = Arc::new(SimVfs::new(plan));
        let run = run_workload_paged(&vfs);
        vfs.power_cycle();
        assert_recovery_with(&vfs, &run, &plan, open_paged);
    }
}

#[test]
fn same_plan_replays_identically() {
    // Determinism self-check: one plan, two runs — identical ack
    // sequence and identical post-crash file-system image.
    let plan = FaultPlan::none(42 ^ base_seed()).with_crash_at(25);
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let vfs = Arc::new(SimVfs::new(plan));
            let run = run_workload(&vfs, 4, true);
            vfs.power_cycle();
            (run, vfs.dump())
        })
        .collect();
    assert_eq!(runs[0], runs[1], "plan {plan} must replay identically");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn seeded_crash_schedules_recover_exactly(
        seed in 0u64..1_000_000,
        cut in 0u64..1_000_000,
    ) {
        let seed = seed ^ base_seed();
        let threads = if seed & 1 == 0 { 1 } else { 4 };
        let compile = seed & 2 == 0;
        let crash_at = 1 + cut % workload_op_count();
        let plan = FaultPlan::none(seed).with_crash_at(crash_at);
        let vfs = Arc::new(SimVfs::new(plan));
        let run = run_workload(&vfs, threads, compile);
        vfs.power_cycle();
        assert_recovery(&vfs, &run, threads, compile, &plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dropped_fsync_schedules_stay_prefix_consistent(
        seed in 0u64..1_000_000,
        cut in 0u64..1_000_000,
        one_in in 1u64..4,
    ) {
        // A lying disk: fsyncs silently dropped with probability 1/one_in,
        // plus a power failure. Acked updates may legitimately be lost;
        // the recovered state must still be an exact *prefix* of the
        // executed update sequence — or recovery must report an error.
        // Never silent garbage, never a non-prefix subset.
        let seed = seed ^ base_seed();
        let threads = if seed & 1 == 0 { 1 } else { 4 };
        let compile = seed & 2 == 0;
        let crash_at = 1 + cut % workload_op_count();
        let plan = FaultPlan::none(seed)
            .with_crash_at(crash_at)
            .with_drop_fsync_one_in(one_in);
        let vfs = Arc::new(SimVfs::new(plan));
        let run = run_workload(&vfs, threads, compile);
        vfs.power_cycle();

        let mut executed = run.acked.clone();
        executed.extend(run.in_flight);
        match open(&vfs, threads, compile) {
            Err(_) => {} // reported (a torn unsynced snapshot, say) — not silent
            Ok(mut d) => {
                d.refresh_views().unwrap();
                let got = d.universe_json().unwrap();
                let consistent = (0..=executed.len())
                    .any(|k| got == reference_json(&executed[..k]));
                prop_assert!(
                    consistent,
                    "plan {}: recovered state is not a prefix of the executed updates {:?}",
                    plan,
                    executed
                );
            }
        }
    }
}
