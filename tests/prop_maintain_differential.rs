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

/// A base universe plus the rules whose views a battery leg repairs.
struct Setup {
    base: fn() -> Engine,
    add_rules: fn(&mut Engine),
}

/// The main legs: the stock universe under [`RULES`].
const STOCK: Setup = Setup {
    base: base_engine,
    add_rules: |e| {
        e.add_rules(RULES).unwrap();
    },
};

/// Applies the schedule update-by-update with maintenance on, then asks
/// for freshness the way a published snapshot would: one repair over the
/// whole schedule. Returns the engine for inspection.
fn maintained_run(schedule: &[String], threads: usize, compile: bool) -> Engine {
    repaired_every(&STOCK, schedule, threads, compile, usize::MAX)
}

/// [`maintained_run`] with a repair after every `every` writes as well as
/// at the end.
fn repaired_every(
    setup: &Setup,
    schedule: &[String],
    threads: usize,
    compile: bool,
    every: usize,
) -> Engine {
    let mut e = (setup.base)();
    e.set_options(
        EngineOptions::builder().threads(threads).compile(compile).maintain(true).build(),
    );
    (setup.add_rules)(&mut e);
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
    reference_with(&STOCK, schedule)
}

/// [`reference_run`] over another setup.
fn reference_with(setup: &Setup, schedule: &[String]) -> Engine {
    let mut e = (setup.base)();
    e.set_options(EngineOptions::builder().maintain(false).auto_refresh(false).build());
    (setup.add_rules)(&mut e);
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
        check_every_repair_absorbed(&schedule)?;
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
        check_cadences(&STOCK, &schedule)?;
    }

    /// The recursive leg: transitive closure under random edge inserts
    /// and retractions, at every repair cadence. A retraction's victims
    /// may keep support only through other victims of the same round.
    #[test]
    fn recursive_closure_matches_rebuilt_at_every_cadence(
        schedule in prop::collection::vec(edge_strategy(), 1..24)
    ) {
        check_cadences(&CLOSURE, &schedule)?;
    }

    /// The two-level-mapping leg: §6's unified, customised and reconciled
    /// views (`pnew` reads `euter` through negation) under random §7.1
    /// program calls and direct single-source writes, so a `dbI.p` fact
    /// may keep its support from another source. Prices are drawn as
    /// both `Int` and `Float`: `50` and `50.0` are distinct rows.
    #[test]
    fn two_level_mapping_matches_rebuilt_at_every_cadence(
        schedule in prop::collection::vec(
            prop_oneof![mixed_price_call_strategy(), single_source_strategy()],
            1..24,
        )
    ) {
        check_cadences(&TWO_LEVEL, &schedule)?;
    }
}

/// Repairs `schedule` after every write, after every 2, 3 or 8 writes and
/// once at the end, at {1, 4} threads, and compares every run with the
/// reference's bytes.
fn check_cadences(setup: &Setup, schedule: &[String]) -> Result<(), TestCaseError> {
    let expected = universe_json(&reference_with(setup, schedule));
    for threads in [1usize, 4] {
        for every in [1usize, 2, 3, 8, usize::MAX] {
            let repaired = repaired_every(setup, schedule, threads, true, every);
            prop_assert_eq!(
                &universe_json(&repaired),
                &expected,
                "repairing every {} writes diverged from rebuilt at {} threads\nschedule: {:?}",
                every,
                threads,
                schedule
            );
        }
    }
    Ok(())
}

/// Transitive closure over one edge relation: a recursive stratum.
const CLOSURE_RULES: &str = "
    .dbT.t(.src=X,.dst=Y) <- .g.e(.src=X,.dst=Y) ;
    .dbT.t(.src=X,.dst=Z) <- .dbT.t(.src=X,.dst=Y), .g.e(.src=Y,.dst=Z) ;
";

const NODES: &[&str] = &["a", "b", "c", "d", "y"];

fn closure_engine() -> Engine {
    let mut e = Engine::new();
    e.update(
        "?.g.e+(.src=a,.dst=b), .g.e+(.src=b,.dst=c), .g.e+(.src=a,.dst=y), \
              .g.e+(.src=b,.dst=y), .g.e+(.src=y,.dst=c)",
    )
    .unwrap();
    e
}

const CLOSURE: Setup = Setup {
    base: closure_engine,
    add_rules: |e| {
        e.add_rules(CLOSURE_RULES).unwrap();
    },
};

/// One random edge insert or retraction (cycles included).
fn edge_strategy() -> impl Strategy<Value = String> {
    (any::<bool>(), 0usize..NODES.len(), 0usize..NODES.len()).prop_map(|(ins, x, y)| {
        let sign = if ins { '+' } else { '-' };
        format!("?.g.e{sign}(.src={}, .dst={})", NODES[x], NODES[y])
    })
}

/// A price drawn from a small range, written as an `Int` or a `Float`,
/// so equal-valued quotes of different atom kinds meet.
fn price_strategy() -> impl Strategy<Value = String> {
    (48i64..52, 0usize..3).prop_map(|(p, form)| match form {
        0 => format!("{p}"),
        1 => format!("{p}.0"),
        _ => format!("{p}.5"),
    })
}

/// A §7.1 program call with a mixed-kind price.
fn mixed_price_call_strategy() -> impl Strategy<Value = String> {
    (0usize..5, 0usize..DATES.len(), 0usize..STOCKS.len(), price_strategy()).prop_map(
        |(kind, d, s, p)| {
            let (date, stk) = (DATES[d], STOCKS[s]);
            match kind {
                0 | 1 => format!("?.dbU.insStk(.stk={stk}, .date={date}, .price={p})"),
                2 | 3 => format!("?.dbU.delStk(.stk={stk}, .date={date})"),
                _ => format!("?.dbU.rmStk(.stk={stk})"),
            }
        },
    )
}

/// A direct write to one source only, so the three schemata disagree.
fn single_source_strategy() -> impl Strategy<Value = String> {
    (0usize..6, 0usize..DATES.len(), 0usize..STOCKS.len(), price_strategy()).prop_map(
        |(kind, d, s, p)| {
            let (date, stk) = (DATES[d], STOCKS[s]);
            match kind {
                0 => format!("?.euter.r+(.date={date}, .stkCode={stk}, .clsPrice={p})"),
                1 => format!("?.euter.r-(.date={date}, .stkCode={stk})"),
                2 => format!("?.chwab.r(.date={date}, +.{stk}={p})"),
                3 => format!("?.chwab.r(.date={date}, .{stk}-=X)"),
                4 => format!("?.ource.{stk}+(.date={date}, .clsPrice={p})"),
                _ => format!("?.ource.{stk}-(.date={date})"),
            }
        },
    )
}

/// The stock universe with a date-only `chwab` row, so `insStk` on that
/// date edits all three schemata.
fn two_level_engine() -> Engine {
    let mut e = base_engine();
    e.update("?.chwab.r+(.date=9/9/99)").unwrap();
    e
}

/// Figure 1's two-level mapping plus §6's reconciled view.
const TWO_LEVEL: Setup = Setup {
    base: two_level_engine,
    add_rules: |e| {
        use idl::transparency::{customized_view_rules, reconciled_view_rules, unified_view_rules};
        for rules in [unified_view_rules(), customized_view_rules(), reconciled_view_rules()] {
            e.add_rules(rules).unwrap();
        }
    },
};

/// The pinned recursive case: retracting `e(b,c)` and `e(a,y)` in one
/// request removes both one-step supports of `t(a,c)`; it keeps the path
/// a→b→y→c, whose `t(a,y)` is itself a victim of the same round.
#[test]
fn closure_keeps_a_fact_supported_only_through_another_victim() {
    let schedule = vec!["?.g.e-(.src=b, .dst=c), .g.e-(.src=a, .dst=y)".to_string()];
    let expected = universe_json(&reference_with(&CLOSURE, &schedule));
    for threads in [1usize, 4] {
        for compile in [true, false] {
            let mut e = repaired_every(&CLOSURE, &schedule, threads, compile, 1);
            assert_eq!(e.maintenance_runs(), 1, "the retraction must be repaired, not rebuilt");
            assert!(e.query("?.dbT.t(.src=a, .dst=c)").unwrap().is_true());
            assert!(e.query("?.dbT.t(.src=a, .dst=y)").unwrap().is_true());
            assert_eq!(universe_json(&e), expected);
        }
    }
}

/// The pinned numeric case: euter quotes hp at `Int 50`, chwab and ource
/// at `Float 50.0`. Retracting euter's quote and then ource's must drop
/// the `Int 50` row from `dbI.p`, `dbE.r` and `dbO.hp`, although a
/// source still supports `50.0`, which a plan's `Bind` compares equal.
#[test]
fn int_row_is_dropped_though_an_equal_float_keeps_support() {
    let schedule: Vec<String> = [
        "?.euter.r+(.date=9/9/99, .stkCode=hp, .clsPrice=50)",
        "?.chwab.r(.date=9/9/99, +.hp=50.0)",
        "?.ource.hp+(.date=9/9/99, .clsPrice=50.0)",
        "?.euter.r-(.date=9/9/99, .stkCode=hp)",
        "?.ource.hp-(.date=9/9/99)",
    ]
    .map(String::from)
    .to_vec();
    let int_50 = idl::Value::int(50);
    for threads in [1usize, 4] {
        for compile in [true, false] {
            let mut e = repaired_every(&TWO_LEVEL, &schedule[..3], threads, compile, 1);
            let repairs = e.maintenance_runs();
            for stmt in &schedule[3..] {
                e.update(stmt).unwrap();
                e.refresh_views_if_stale().unwrap();
            }
            assert_eq!(e.maintenance_runs(), repairs + 2, "both retractions are repaired");
            for (db, rel) in [("dbI", "p"), ("dbE", "r"), ("dbO", "hp")] {
                let rows = e.store().relation(db, rel).unwrap();
                assert!(
                    !rows.iter().any(|r| r.attr("clsPrice") == Some(&int_50)),
                    "{db}.{rel} kept the Int 50 row"
                );
                // 3/3/85's base quote and 9/9/99's, which chwab supports
                let float_50 = idl::Value::float(50.0);
                assert_eq!(
                    rows.iter().filter(|r| r.attr("clsPrice") == Some(&float_50)).count(),
                    2,
                    "{db}.{rel} lost the Float 50.0 row chwab supports"
                );
            }
            assert_eq!(universe_json(&e), universe_json(&reference_with(&TWO_LEVEL, &schedule)));
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

/// Repairs `schedule` after every write at {1, 4} threads × {compiled,
/// tree-walk} and asserts that the delta pass absorbed every repair whose
/// row delta is non-empty: a direct row write under [`RULES`] never falls
/// back to the rebuild. A write that left the base rows as they were
/// repairs nothing and is not counted.
fn check_every_repair_absorbed(schedule: &[String]) -> Result<(), TestCaseError> {
    let base_rows =
        |e: &Engine| ["euter", "chwab"].map(|db| e.store().universe().attr(db).cloned());
    for threads in [1usize, 4] {
        for compile in [true, false] {
            let mut e = base_engine();
            e.set_options(
                EngineOptions::builder().threads(threads).compile(compile).maintain(true).build(),
            );
            (STOCK.add_rules)(&mut e);
            e.refresh_views().unwrap();
            let mut changed = 0u64;
            for stmt in schedule {
                let before = base_rows(&e);
                e.update(stmt).unwrap_or_else(|err| panic!("{stmt}: {err}"));
                changed += u64::from(base_rows(&e) != before);
                e.refresh_views_if_stale().unwrap();
            }
            prop_assert_eq!(
                e.maintenance_runs(),
                changed,
                "a repair fell back to the rebuild at {} threads, compile={}\nschedule: {:?}",
                threads,
                compile,
                schedule
            );
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
