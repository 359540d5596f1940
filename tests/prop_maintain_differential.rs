//! Differential battery for incremental view repair (DESIGN.md "View
//! repair").
//!
//! Repair must not be a *semantic* knob: over hundreds of random
//! insert/retract schedules, direct or through the §7.1 update programs,
//! an engine whose views catch up through the delta pass (with the full
//! rebuild for the shapes it bails on) must land on **byte-identical**
//! universe snapshots to the refresh-the-world reference mode
//! (`maintain(false)` + a final full rebuild), across {1, 4} threads ×
//! {compiled, tree-walk}. A write reads no view, so it leaves its repair
//! to the next read: one repair covers every write since the views were
//! last fresh. The cadence leg repairs the same schedules after every
//! write, after every k ∈ {2, 3, 8} writes and once at the end, and all
//! must agree. Dedicated legs pin the schematic lifecycle: an insert that
//! materialises a brand-new derived relation (schematic create) and a
//! retraction that empties one again (schematic GC).

use idl::{Engine, EngineOptions};
use idl_repro as _;
use proptest::prelude::*;

/// Union view, a schematic (data-dependent head) view deriving one
/// relation per stock, and a negation view over a second schema — the
/// three maintenance shapes: (Δ ⋈ full) inserts, DRed retraction
/// cascades, and schematic create/GC.
const RULES: &str = "
    .dbI.p(.date=D,.stk=S,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P) ;
    .dbO.S(.date=D,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P) ;
    .dbI.lone(.stk=S) <- .dbI.p(.stk=S), .chwab.r¬(.S>0) ;
";

const DATES: &[&str] = &["3/3/85", "3/4/85", "9/9/99"];
const STOCKS: &[&str] = &["hp", "ibm", "sun", "dec"];

/// Queries run against both final stores: selection, higher-order
/// enumeration over the schematic relations, and the negation view.
const BATTERY: &[&str] =
    &["?.dbI.p(.stk=S, .clsPrice=P)", "?.dbO.R(.date=D, .clsPrice=P)", "?.dbI.lone(.stk=S)"];

fn base_engine() -> Engine {
    let mut e = Engine::with_stock_universe(vec![
        ("3/3/85", "hp", 50.0),
        ("3/3/85", "ibm", 160.0),
        ("3/4/85", "hp", 62.0),
    ]);
    e.execute(idl::transparency::standard_update_programs()).unwrap();
    e
}

/// One random update statement. Retractions may miss (no-op updates) and
/// inserts may collide with existing rows (set semantics) — both are
/// deliberate: the pass must treat empty deltas as freshness-preserving.
fn op_strategy() -> impl Strategy<Value = String> {
    (0usize..4, 0usize..DATES.len(), 0usize..STOCKS.len(), 1i64..50).prop_map(|(kind, d, s, p)| {
        let (date, stk) = (DATES[d], STOCKS[s]);
        match kind {
            0 => format!("?.euter.r+(.date={date}, .stkCode={stk}, .clsPrice={p})"),
            1 => format!("?.euter.r-(.date={date}, .stkCode={stk})"),
            2 => format!("?.chwab.r+(.date={date}, .{stk}={p})"),
            _ => format!("?.chwab.r-(.date={date})"),
        }
    })
}

/// One random §7.1 program call: `insStk` may quote a brand-new stock
/// (a new `ource` relation, which the delta pass cannot express),
/// `delStk` may miss, and `rmStk` drops a stock from every schema.
fn call_strategy() -> impl Strategy<Value = String> {
    (0usize..5, 0usize..DATES.len(), 0usize..STOCKS.len(), 1i64..50).prop_map(|(kind, d, s, p)| {
        let (date, stk) = (DATES[d], STOCKS[s]);
        match kind {
            0 | 1 => format!("?.dbU.insStk(.stk={stk}, .date={date}, .price={p})"),
            2 | 3 => format!("?.dbU.delStk(.stk={stk}, .date={date})"),
            _ => format!("?.dbU.rmStk(.stk={stk})"),
        }
    })
}

fn universe_json(e: &Engine) -> String {
    idl_storage::persist::to_json(e.store()).unwrap()
}

/// Applies the schedule update-by-update with maintenance on, then asks
/// for freshness the way a published snapshot would: one repair over the
/// whole schedule. Returns the engine for inspection.
fn maintained_run(schedule: &[String], threads: usize, compile: bool) -> Engine {
    repaired_every(schedule, threads, compile, usize::MAX)
}

/// [`maintained_run`] with a repair after every `every` writes as well as
/// at the end.
fn repaired_every(schedule: &[String], threads: usize, compile: bool, every: usize) -> Engine {
    let mut e = base_engine();
    e.set_options(
        EngineOptions::builder().threads(threads).compile(compile).maintain(true).build(),
    );
    e.add_rules(RULES).unwrap();
    e.refresh_views().unwrap();
    for (i, stmt) in schedule.iter().enumerate() {
        e.update(stmt).unwrap_or_else(|err| panic!("{stmt}: {err}"));
        if (i + 1) % every == 0 {
            e.refresh_views_if_stale().unwrap();
        }
    }
    e.refresh_views_if_stale().unwrap();
    assert!(e.views_fresh_now());
    e
}

/// The refresh-the-world reference: same schedule with maintenance off,
/// then one full rebuild.
fn reference_run(schedule: &[String]) -> Engine {
    let mut e = base_engine();
    e.set_options(EngineOptions::builder().maintain(false).auto_refresh(false).build());
    e.add_rules(RULES).unwrap();
    for stmt in schedule {
        e.update(stmt).unwrap_or_else(|err| panic!("{stmt}: {err}"));
    }
    e.refresh_views().unwrap();
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cross-mode leg: maintained ≡ rebuilt over {1, 4} threads ×
    /// {compiled, tree-walk}, down to the bytes a snapshot would persist,
    /// plus identical battery answers.
    #[test]
    fn maintained_matches_rebuilt_across_modes(
        schedule in prop::collection::vec(op_strategy(), 1..12)
    ) {
        check_schedule(&schedule)?;
    }

    /// The program-call leg: the same comparison over schedules of §7.1
    /// update-program calls, which carry no sign but write.
    #[test]
    fn program_calls_match_rebuilt_across_modes(
        schedule in prop::collection::vec(call_strategy(), 1..12)
    ) {
        check_schedule(&schedule)?;
    }

    /// The cadence leg: one schedule of direct writes and program calls,
    /// repaired after every write, after every 2, 3 or 8 writes, and once
    /// at the end, at {1, 4} threads. Every cadence must land on the
    /// reference's bytes: a repair over many writes' accumulated delta is
    /// the same as one repair per write.
    #[test]
    fn every_repair_cadence_matches_rebuilt(
        schedule in prop::collection::vec(prop_oneof![op_strategy(), call_strategy()], 1..24)
    ) {
        let expected = universe_json(&reference_run(&schedule));
        for threads in [1usize, 4] {
            for every in [1usize, 2, 3, 8, usize::MAX] {
                let repaired = repaired_every(&schedule, threads, true, every);
                prop_assert_eq!(
                    &universe_json(&repaired),
                    &expected,
                    "repairing every {} writes diverged from rebuilt at {} threads\nschedule: {:?}",
                    every,
                    threads,
                    &schedule
                );
            }
        }
    }
}

/// Runs `schedule` maintained in every mode and compares each run with
/// the refresh-the-world reference.
fn check_schedule(schedule: &[String]) -> Result<(), TestCaseError> {
    let mut reference = reference_run(schedule);
    let expected = universe_json(&reference);
    for threads in [1usize, 4] {
        for compile in [true, false] {
            let mut maintained = maintained_run(schedule, threads, compile);
            prop_assert_eq!(
                &universe_json(&maintained),
                &expected,
                "maintained universe diverged from rebuilt at {} threads, compile={}\nschedule: {:?}",
                threads,
                compile,
                schedule
            );
            for src in BATTERY {
                prop_assert_eq!(
                    reference.query(src).unwrap(),
                    maintained.query(src).unwrap(),
                    "answers diverged for {} at {} threads, compile={}",
                    src,
                    threads,
                    compile
                );
            }
        }
    }
    Ok(())
}

/// Schematic-create leg: a quote for a brand-new stock must be absorbed
/// by the repair pass itself (no rebuild fallback), materialising the new
/// `dbO` relation incrementally.
#[test]
fn schematic_create_is_maintained_incrementally() {
    for threads in [1usize, 4] {
        for compile in [true, false] {
            let schedule = vec!["?.euter.r+(.date=9/9/99, .stkCode=sun, .clsPrice=7)".into()];
            let mut e = maintained_run(&schedule, threads, compile);
            assert_eq!(e.maintenance_runs(), 1, "create must not fall back to refresh");
            let m = e.last_fixpoint_stats().maintenance.clone();
            assert_eq!(m.schematic_creates, 1, "{m:?}");
            assert!(e.query("?.dbO.sun(.clsPrice=7)").unwrap().is_true());
            assert_eq!(universe_json(&e), universe_json(&reference_run(&schedule)));
        }
    }
}

/// Schematic-GC leg: retracting the only quote of a stock must empty and
/// garbage-collect its derived relation through the repair pass. A read
/// between the two writes repairs the insert, so the create and the GC
/// are separate repairs.
#[test]
fn schematic_gc_is_maintained_incrementally() {
    for threads in [1usize, 4] {
        for compile in [true, false] {
            let schedule: Vec<String> = vec![
                "?.euter.r+(.date=9/9/99, .stkCode=sun, .clsPrice=7)".into(),
                "?.euter.r-(.date=9/9/99, .stkCode=sun, .clsPrice=7)".into(),
            ];
            let mut e = maintained_run(&[], threads, compile);
            e.update(&schedule[0]).unwrap();
            assert!(e.query("?.dbO.sun(.clsPrice=7)").unwrap().is_true());
            e.update(&schedule[1]).unwrap();
            e.refresh_views_if_stale().unwrap();
            assert_eq!(e.maintenance_runs(), 2, "GC must not fall back to refresh");
            let m = e.last_fixpoint_stats().maintenance.clone();
            assert_eq!(m.schematic_gcs, 1, "{m:?}");
            assert!(!e.query("?.dbO.R(.clsPrice=7), R = sun").unwrap().is_true());
            assert_eq!(universe_json(&e), universe_json(&reference_run(&schedule)));
        }
    }
}
