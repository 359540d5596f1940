//! Property-based differential testing (DESIGN.md §7).
//!
//! * the planned/indexed evaluator and the naive reference evaluator agree
//!   on random universes for a battery of query shapes;
//! * the §5 decree semantics holds on random ground facts: after `+e`,
//!   `?e` is true; after `-e`, `?e` is false;
//! * request atomicity: a failing request leaves the universe unchanged.

use idl_eval::{EvalOptions, Evaluator};
use idl_lang::{parse_statement, Statement};
use idl_object::Value;
use idl_repro as _;
use idl_storage::Store;
use idl_workload::random::{random_store, RandomConfig};
use proptest::prelude::*;

/// Query shapes exercising selection, higher-order enumeration, joins,
/// negation and ranges over the random universes' attribute pool.
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
    "?.db0.r0(.A=V), .db1.r0(.A=W)",
];

fn answers(store: &Store, src: &str, opts: EvalOptions) -> idl_eval::AnswerSet {
    let Statement::Request(req) = parse_statement(src).unwrap() else { panic!("{src}") };
    Evaluator::new(store, opts).query(&req).unwrap_or_else(|e| panic!("{src}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planner_and_indexes_preserve_answers(seed in 0u64..10_000) {
        let cfg = RandomConfig::default();
        let store = random_store(seed, &cfg);
        for src in BATTERY {
            let naive = answers(&store, src, EvalOptions::naive());
            let planned = answers(
                &store,
                src,
                EvalOptions { use_indexes: false, reorder: true, ..EvalOptions::default() },
            );
            let indexed = answers(&store, src, EvalOptions::default());
            prop_assert_eq!(&naive, &planned, "planner changed answers for {} (seed {})", src, seed);
            prop_assert_eq!(&naive, &indexed, "indexes changed answers for {} (seed {})", src, seed);
        }
    }

    #[test]
    fn decree_semantics_plus_then_minus(
        a in -50i64..50,
        b in prop::sample::select(vec!["x", "y", "zz", "hello world"]),
        c in -500i64..500,
    ) {
        // a random ground fact
        let c = c as f64 / 10.0;
        let fact = format!("(.a={a}, .b=\"{b}\", .c={c})");
        let mut store = Store::new();
        store.create_relation("db", "r").unwrap();
        let registry = idl_eval::ProgramRegistry::new();
        let derived = idl_eval::rules::DerivedCatalog::empty();
        let schemas = idl_storage::SchemaSet::new();

        let run = |store: &mut Store, src: &str| {
            let Statement::Request(req) = parse_statement(src).unwrap() else { panic!() };
            let opts = EvalOptions::default();
            idl_eval::run_request(store, &registry, &derived, &schemas, &req, opts, None).unwrap()
        };

        // +e then ?e is true (decree of truth henceforth)
        run(&mut store, &format!("?.db.r+{fact}"));
        let now_true = run(&mut store, &format!("?.db.r{fact}")).answers.is_true();
        prop_assert!(now_true);

        // inserting again is a no-op (sets are value-based)
        let out = run(&mut store, &format!("?.db.r+{fact}"));
        prop_assert_eq!(out.stats.inserted, 0);
        prop_assert_eq!(store.relation("db", "r").unwrap().len(), 1);

        // -e then ?e is false (decree of falsehood henceforth)
        run(&mut store, &format!("?.db.r-{fact}"));
        let now_false = !run(&mut store, &format!("?.db.r{fact}")).answers.is_true();
        prop_assert!(now_false);
    }

    #[test]
    fn failed_requests_change_nothing(seed in 0u64..10_000) {
        let cfg = RandomConfig::default();
        let mut store = random_store(seed, &cfg);
        let before = store.universe().clone();
        let registry = idl_eval::ProgramRegistry::new();
        let derived = idl_eval::rules::DerivedCatalog::empty();
        // first item mutates, second always errors (unbound make-true)
        let Statement::Request(req) =
            parse_statement("?.db0.r0+(.a=1,.b=2), .db0.r0+(.a=Q)").unwrap()
        else {
            panic!()
        };
        let err = idl_eval::run_request(
            &mut store,
            &registry,
            &derived,
            &idl_storage::SchemaSet::new(),
            &req,
            EvalOptions::default(),
            None,
        );
        prop_assert!(err.is_err());
        prop_assert_eq!(store.universe(), &before);
    }

    #[test]
    fn view_materialisation_is_deterministic_and_idempotent(seed in 0u64..10_000) {
        use idl_eval::rules::RuleEngine;
        use idl_lang::parse_program;
        let rules_src = "
            .agg.all(.db=D, .rel=R, .val=V) <- .D.R(.a=V) ;
            .agg.large(.val=V) <- .agg.all(.val=V), V > 10 ;
        ";
        let rules: Vec<_> = parse_program(rules_src)
            .unwrap()
            .into_iter()
            .map(|s| match s {
                Statement::Rule(r) => r,
                _ => unreachable!(),
            })
            .collect();
        let engine = RuleEngine::new(rules).unwrap();

        let cfg = RandomConfig::default();
        let mut s1 = random_store(seed, &cfg);
        let mut s2 = random_store(seed, &cfg);
        engine.materialize(&mut s1, EvalOptions::default()).unwrap();
        engine.materialize(&mut s2, EvalOptions::naive()).unwrap();
        prop_assert_eq!(s1.universe(), s2.universe(), "options must not affect fixpoints");

        let snapshot = s1.universe().clone();
        let again = engine.materialize(&mut s1, EvalOptions::default()).unwrap();
        prop_assert_eq!(again.facts_added, 0, "idempotent re-derivation");
        prop_assert_eq!(s1.universe(), &snapshot);
    }

    #[test]
    fn snapshot_round_trip_random_universe(seed in 0u64..10_000) {
        let cfg = RandomConfig::default();
        let store = random_store(seed, &cfg);
        let json = idl_storage::persist::to_json(&store).unwrap();
        let back = idl_storage::persist::from_json(&json).unwrap();
        prop_assert_eq!(store.universe(), back.universe());
    }

    #[test]
    fn aggregate_variable_binding_is_total(seed in 0u64..10_000) {
        // `=R` binds any relation object; every relation the catalog lists
        // must be reachable this way (aggregate variables, §4.1).
        let cfg = RandomConfig::default();
        let store = random_store(seed, &cfg);
        let a = answers(&store, "?.D.R=Rel", EvalOptions::default());
        let mut from_catalog = 0usize;
        for db in store.database_names() {
            from_catalog += store.relation_names(db.as_str()).unwrap().len();
        }
        prop_assert_eq!(a.len(), from_catalog);
        for s in a.iter() {
            let rel = s.get(&idl_lang::Var::new("Rel")).unwrap();
            prop_assert!(matches!(rel, Value::Set(_)));
        }
    }
}
