//! Cross-mode differential battery for the semi-naive parallel fixpoint
//! (DESIGN.md "Parallel fixpoint", "Semi-naive delta scheduling").
//!
//! Neither the worker count, the delta scheduling, nor plan compilation
//! is allowed to be a *semantic* knob:
//!
//! * the naive reference schedule (re-run every rule every iteration, one
//!   worker, tree-walk interpreter — reachable via
//!   [`EvalOptions::with_semi_naive`])
//!   materialises, on hundreds of random universes, **byte-identical**
//!   universes to semi-naive runs at {1, 2, 4, 8} threads, compiled and
//!   tree-walk — for a wide single-stratum recursive program and for a
//!   negation-stratified two-layer program;
//! * the §4 query battery sees identical answer sets over the
//!   materialised stores;
//! * repeating one parallel refresh yields byte-identical snapshots
//!   (no iteration-order or thread-interleaving leakage into the output).

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
/// head, so all five rules are mutually recursive and iterate together —
/// the widest shape the worker pool sees.
const WIDE_RECURSIVE: &str = "
    .agg.pa(.db=D, .val=V) <- .D.R(.a=V) ;
    .agg.pb(.db=D, .val=V) <- .D.R(.b=V) ;
    .agg.pc(.db=D, .val=V) <- .D.R(.c=V) ;
    .agg.pd(.db=D, .val=V) <- .D.R(.d=V) ;
    .agg.ab(.val=V) <- .agg.pa(.val=V), .agg.pb(.val=V) ;
";

/// Two strata with concrete bodies: six independent collectors, then four
/// consumers including a negated subgoal (which forces the stratification)
/// and a comparison constraint.
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

fn answers(store: &Store, src: &str) -> idl_eval::AnswerSet {
    let Statement::Request(req) = parse_statement(src).unwrap() else { panic!("{src}") };
    Evaluator::new(store, EvalOptions::default())
        .query(&req)
        .unwrap_or_else(|e| panic!("{src}: {e}"))
}

/// Materialises `program` over the seed's universe under the given options.
fn materialized(seed: u64, program: &RuleEngine, opts: EvalOptions) -> Store {
    let mut store = random_store(seed, &RandomConfig::default());
    program.materialize(&mut store, opts).unwrap_or_else(|e| panic!("{opts:?}: {e}"));
    store
}

/// The canonical-JSON bytes a snapshot of `store` would contain.
fn universe_json(store: &Store) -> String {
    idl_storage::persist::to_json(store).unwrap()
}

/// The naive reference schedule: every rule, every iteration, one worker,
/// tree-walk interpreter.
fn naive_reference() -> EvalOptions {
    EvalOptions::default().with_threads(1).with_compile(false).with_semi_naive(false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cross-mode leg: naive ≡ semi-naive over
    /// {1, 2, 4, 8} threads × {compiled, tree-walk}, down to the bytes a
    /// snapshot would persist, plus identical §4 battery answers.
    #[test]
    fn seminaive_matches_naive_across_modes(seed in 0u64..1_000_000) {
        for program_src in [WIDE_RECURSIVE, STRATIFIED_NEGATION] {
            let program = rule_engine(program_src);
            let naive = materialized(seed, &program, naive_reference());
            let reference = universe_json(&naive);
            for threads in [1usize, 2, 4, 8] {
                for compile in [true, false] {
                    let opts = EvalOptions::default()
                        .with_threads(threads)
                        .with_compile(compile)
                        .with_semi_naive(true);
                    let semi = materialized(seed, &program, opts);
                    prop_assert_eq!(
                        &universe_json(&semi),
                        &reference,
                        "universe bytes diverged from naive at {} threads, compile={} (seed {})",
                        threads,
                        compile,
                        seed
                    );
                    for src in BATTERY {
                        prop_assert_eq!(
                            answers(&naive, src),
                            answers(&semi, src),
                            "answers diverged for {} at {} threads, compile={} (seed {})",
                            src,
                            threads,
                            compile,
                            seed
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_stats_are_coherent(seed in 0u64..1_000_000) {
        let program = rule_engine(STRATIFIED_NEGATION);

        let mut sequential = random_store(seed, &RandomConfig::default());
        let seq_stats = program
            .materialize(&mut sequential, EvalOptions::default().with_threads(1))
            .unwrap();

        let mut parallel = random_store(seed, &RandomConfig::default());
        let par_stats = program
            .materialize(&mut parallel, EvalOptions::default().with_threads(4))
            .unwrap();

        // Set-headed programs add exactly the distinct derived facts, so
        // the count is schedule-independent even though rule_evals and
        // iterations may not be.
        prop_assert_eq!(seq_stats.facts_added, par_stats.facts_added);
        prop_assert_eq!(par_stats.strata.len(), 2, "negation splits the program");
        let mut per_worker_total = 0usize;
        for s in &par_stats.strata {
            prop_assert!(s.workers >= 1 && s.workers <= 4);
            prop_assert_eq!(s.rule_evals_per_worker.len(), s.workers.max(1));
            per_worker_total += s.rule_evals_per_worker.iter().sum::<usize>();
        }
        prop_assert_eq!(
            per_worker_total, par_stats.rule_evals,
            "per-worker telemetry must account for every rule evaluation"
        );
        // Every task evaluation is either a full body or a delta shard.
        for stats in [&seq_stats, &par_stats] {
            prop_assert_eq!(
                stats.full_evals + stats.delta_evals,
                stats.rule_evals,
                "task accounting must partition rule_evals: {:?}",
                stats
            );
        }

        // Idempotence under parallelism: re-deriving adds nothing.
        let again = program
            .materialize(&mut parallel, EvalOptions::default().with_threads(4))
            .unwrap();
        prop_assert_eq!(again.facts_added, 0);
        prop_assert_eq!(sequential.universe(), parallel.universe());
    }
}

/// Satellite determinism check: the *same* parallel refresh, repeated,
/// produces byte-identical snapshots — thread interleavings never leak
/// into the persisted universe.
#[test]
fn parallel_refresh_snapshots_are_byte_identical() {
    let cfg = ShardedStockConfig::sized(8, 4, 10);
    let rules = sharded_union_rules(&cfg);
    let mut reference: Option<String> = None;
    for run in 0..10 {
        let mut engine = idl::Engine::from_store(generate_sharded_store(&cfg));
        let opts = engine.options().rebuild().threads(4).build();
        engine.set_options(opts);
        engine.add_rules(&rules).unwrap();
        engine.refresh_views().unwrap();
        let json = idl_storage::persist::to_json(engine.store()).unwrap();
        match &reference {
            None => reference = Some(json),
            Some(r) => assert_eq!(&json, r, "refresh {run} diverged from the first"),
        }
    }

    // the naive reference schedule persists exactly those bytes too
    let mut engine = idl::Engine::from_store(generate_sharded_store(&cfg));
    let opts = engine.options().rebuild().threads(1).semi_naive(false).build();
    engine.set_options(opts);
    engine.add_rules(&rules).unwrap();
    engine.refresh_views().unwrap();
    let naive_json = idl_storage::persist::to_json(engine.store()).unwrap();
    assert_eq!(Some(&naive_json), reference.as_ref(), "naive refresh diverged");

    // and the on-disk snapshot writer emits exactly those bytes
    let path = std::env::temp_dir().join(format!("idl_par_det_{}.json", std::process::id()));
    let mut engine = idl::Engine::from_store(generate_sharded_store(&cfg));
    let opts = engine.options().rebuild().threads(4).build();
    engine.set_options(opts);
    engine.add_rules(&rules).unwrap();
    engine.refresh_views().unwrap();
    engine.save_snapshot(&path).unwrap();
    let on_disk = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(Some(on_disk.trim_end().to_string()), reference.map(|r| r.trim_end().to_string()));
}
