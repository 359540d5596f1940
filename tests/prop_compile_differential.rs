//! Differential battery for the physical plan IR (DESIGN.md "Plan IR and
//! plan cache").
//!
//! Compilation is a *representation* change, never a semantic one:
//!
//! * materialising any view program from compiled plans yields exactly the
//!   universe the tree-walking interpreter yields, on hundreds of random
//!   universes, at 1 and 4 fixpoint workers — for a wide single-stratum
//!   recursive program and for a negation-stratified two-layer program;
//! * the §4 query battery sees identical answer sets whether each query is
//!   compiled or tree-walked;
//! * `FixpointStats` proves each rule body is compiled at most once per
//!   refresh, however many fixpoint iterations run;
//! * compiled and interpreted refreshes of the same engine produce
//!   byte-identical persisted snapshots.

use idl_eval::rules::RuleEngine;
use idl_eval::{EvalOptions, Evaluator};
use idl_lang::{parse_program, parse_statement, Statement};
use idl_repro as _;
use idl_storage::Store;
use idl_workload::random::{random_store, RandomConfig};
use idl_workload::stock::{generate_sharded_store, sharded_union_rules, ShardedStockConfig};
use proptest::prelude::*;

/// §4-style query shapes run against the materialised stores: selection,
/// higher-order enumeration, joins, negation, ranges.
const BATTERY: &[&str] = &[
    "?.db0.r0(.a=V)",
    "?.D.R(.a=V)",
    "?.D.R(.A=7)",
    "?.db1.r1(.a=X, .b=Y)",
    "?.db0.r0(.a=V), .db1.r1(.a=V)",
    "?.db0.r0(.a=V), .db0.r0¬(.b=V)",
    "?.D.R(.a>0)",
    "?.db2.r2(.a>0, .a<20)",
    "?.X.Y(.c=V), X != db0",
    "?.agg.A(.val=V)",
];

/// One wide stratum: wildcard bodies make every rule's input overlap every
/// head, so all five rules iterate together — the shape where compiled
/// plans are reused across the most iterations.
const WIDE_RECURSIVE: &str = "
    .agg.pa(.db=D, .val=V) <- .D.R(.a=V) ;
    .agg.pb(.db=D, .val=V) <- .D.R(.b=V) ;
    .agg.pc(.db=D, .val=V) <- .D.R(.c=V) ;
    .agg.pd(.db=D, .val=V) <- .D.R(.d=V) ;
    .agg.ab(.val=V) <- .agg.pa(.val=V), .agg.pb(.val=V) ;
";

/// Two strata with concrete bodies: six independent collectors, then four
/// consumers including a negated subgoal and a comparison constraint.
const STRATIFIED_NEGATION: &str = "
    .agg.a00(.val=V) <- .db0.r0(.a=V) ;
    .agg.a01(.val=V) <- .db0.r1(.b=V) ;
    .agg.a02(.val=V) <- .db1.r0(.c=V) ;
    .agg.a03(.val=V) <- .db1.r1(.a=V) ;
    .agg.a04(.val=V) <- .db2.r0(.b=V) ;
    .agg.a05(.val=V) <- .db2.r2(.d=V) ;
    .top.join(.val=V) <- .agg.a00(.val=V), .agg.a03(.val=V) ;
    .top.only0(.val=V) <- .agg.a00(.val=V), .agg.a04¬(.val=V) ;
    .top.large(.val=V) <- .agg.a01(.val=V), V > 5 ;
    .top.pair(.x=V, .y=W) <- .agg.a02(.val=V), .agg.a05(.val=W) ;
";

fn rule_engine(src: &str) -> RuleEngine {
    let rules: Vec<_> = parse_program(src)
        .unwrap()
        .into_iter()
        .map(|s| match s {
            Statement::Rule(r) => r,
            other => panic!("expected a rule, got {other}"),
        })
        .collect();
    RuleEngine::new(rules).unwrap()
}

fn answers(store: &Store, src: &str, compile: bool) -> idl_eval::AnswerSet {
    let Statement::Request(req) = parse_statement(src).unwrap() else { panic!("{src}") };
    Evaluator::new(store, EvalOptions::default().with_compile(compile))
        .query(&req)
        .unwrap_or_else(|e| panic!("{src} (compile={compile}): {e}"))
}

/// Materialises `program` over the seed's universe, compiled or not.
fn materialized(seed: u64, program: &RuleEngine, threads: usize, compile: bool) -> Store {
    let mut store = random_store(seed, &RandomConfig::default());
    let opts = EvalOptions::default().with_threads(threads).with_compile(compile);
    program
        .materialize(&mut store, opts)
        .unwrap_or_else(|e| panic!("{threads} threads, compile={compile}: {e}"));
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_fixpoint_matches_tree_walk(seed in 0u64..1_000_000) {
        for program_src in [WIDE_RECURSIVE, STRATIFIED_NEGATION] {
            let program = rule_engine(program_src);
            let reference = materialized(seed, &program, 1, false);
            for threads in [1usize, 4] {
                let compiled = materialized(seed, &program, threads, true);
                prop_assert_eq!(
                    reference.universe(),
                    compiled.universe(),
                    "universe diverged at {} threads (seed {})",
                    threads,
                    seed
                );
            }
            for src in BATTERY {
                prop_assert_eq!(
                    answers(&reference, src, false),
                    answers(&reference, src, true),
                    "answers diverged for {} (seed {})",
                    src,
                    seed
                );
            }
        }
    }

    #[test]
    fn compile_stats_are_coherent(seed in 0u64..1_000_000) {
        let program = rule_engine(STRATIFIED_NEGATION);

        let mut compiled = random_store(seed, &RandomConfig::default());
        let c_stats = program
            .materialize(&mut compiled, EvalOptions::default().with_threads(1).with_compile(true))
            .unwrap();
        // One compile per rule body on the rule set's first run,
        // independent of how many fixpoint iterations or rule evaluations
        // ran.
        prop_assert_eq!(c_stats.plans_compiled, program.rules().len());
        prop_assert!(c_stats.rule_evals >= c_stats.plans_compiled);

        let mut interp = random_store(seed, &RandomConfig::default());
        let i_stats = program
            .materialize(&mut interp, EvalOptions::default().with_threads(1).with_compile(false))
            .unwrap();
        prop_assert_eq!(i_stats.plans_compiled, 0, "tree walk never compiles");
        prop_assert_eq!(c_stats.facts_added, i_stats.facts_added);
        prop_assert_eq!(compiled.universe(), interp.universe());
    }
}

/// Satellite determinism check: a compiled refresh and an interpreted
/// refresh of the same universe persist byte-identical snapshots — the
/// acceptance bar for the whole-pipeline refactor.
#[test]
fn compiled_and_interpreted_snapshots_are_byte_identical() {
    let cfg = ShardedStockConfig::sized(8, 4, 10);
    let rules = sharded_union_rules(&cfg);
    let mut reference: Option<String> = None;
    for compile in [false, true, true, false] {
        for threads in [1usize, 4] {
            let mut engine = idl::Engine::from_store(generate_sharded_store(&cfg));
            let opts = engine.options().rebuild().threads(threads).compile(compile).build();
            engine.set_options(opts);
            engine.add_rules(&rules).unwrap();
            engine.refresh_views().unwrap();
            let json = idl_storage::persist::to_json(engine.store()).unwrap();
            match &reference {
                None => reference = Some(json),
                Some(r) => {
                    assert_eq!(&json, r, "snapshot diverged (compile={compile}, threads={threads})")
                }
            }
        }
    }
}
