//! Concurrency guarantees: the store is `Send + Sync` for shared read
//! access (index/statistics caches are internally synchronised), so one
//! universe can serve parallel query threads.

use idl::{Engine, EngineOptions};
use idl_eval::rules::RuleEngine;
use idl_eval::{EvalOptions, Evaluator};
use idl_lang::{parse_program, parse_statement, Statement};
use idl_repro as _;
use idl_storage::Store;
use idl_workload::stock::{
    generate_sharded_store, generate_store, shard_db, sharded_union_rules, ShardedStockConfig,
    StockConfig,
};
use std::sync::{Arc, RwLock};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn store_and_values_are_send_sync() {
    assert_send_sync::<Store>();
    assert_send_sync::<idl_object::Value>();
    assert_send_sync::<idl_eval::AnswerSet>();
}

#[test]
fn parallel_readers_share_one_store() {
    let store = Arc::new(generate_store(&StockConfig::sized(8, 20)));
    let queries = [
        "?.euter.r(.stkCode=stk001, .clsPrice=P)",
        "?.chwab.r(.S>0)",
        "?.ource.S(.clsPrice>50)",
        "?.X.Y(.clsPrice=P)",
    ];
    // Reference answers single-threaded.
    let expected: Vec<_> = queries
        .iter()
        .map(|q| {
            let Statement::Request(req) = parse_statement(q).unwrap() else { panic!() };
            Evaluator::with_defaults(&store).query(&req).unwrap()
        })
        .collect();

    let mut handles = Vec::new();
    for _round in 0..4 {
        for (i, q) in queries.iter().enumerate() {
            let store = Arc::clone(&store);
            let q = q.to_string();
            let expect = expected[i].clone();
            handles.push(std::thread::spawn(move || {
                let Statement::Request(req) = parse_statement(&q).unwrap() else { panic!() };
                // half the threads stress the index-cache path
                let opts = if i % 2 == 0 { EvalOptions::default() } else { EvalOptions::naive() };
                let got = Evaluator::new(&store, opts).query(&req).unwrap();
                assert_eq!(got, expect, "{q}");
            }));
        }
    }
    for h in handles {
        h.join().expect("reader thread panicked");
    }
}

/// A parallel fixpoint writer (which spawns its own worker pool inside the
/// write lock) racing reader threads on the same shared store. Because
/// re-materialising a set-headed program is idempotent, every read-locked
/// observation must equal the reference contents, no matter how the
/// refreshes interleave with the reads.
#[test]
fn parallel_refresh_races_concurrent_readers() {
    let cfg = ShardedStockConfig::sized(6, 3, 8);
    let rules: Vec<_> = parse_program(&sharded_union_rules(&cfg))
        .unwrap()
        .into_iter()
        .map(|s| match s {
            Statement::Rule(r) => r,
            other => panic!("expected a rule, got {other}"),
        })
        .collect();
    let program = Arc::new(RuleEngine::new(rules).unwrap());
    let opts = EvalOptions::default().with_threads(4);

    let mut store = generate_sharded_store(&cfg);
    program.materialize(&mut store, opts).unwrap();
    let reference = store.universe().clone();
    let shared = Arc::new(RwLock::new(store));

    let queries = ["?.dbU.q(.stk=S, .clsPrice=P)", "?.dbHi.R(.stk=S)", "?.feed02.r(.clsPrice>0)"];
    let expected: Vec<_> = {
        let guard = shared.read().unwrap();
        queries
            .iter()
            .map(|q| {
                let Statement::Request(req) = parse_statement(q).unwrap() else { panic!() };
                Evaluator::with_defaults(&guard).query(&req).unwrap()
            })
            .collect()
    };

    let mut handles = Vec::new();
    for _ in 0..2 {
        let shared = Arc::clone(&shared);
        let program = Arc::clone(&program);
        handles.push(std::thread::spawn(move || {
            for _ in 0..5 {
                let mut guard = shared.write().unwrap();
                // nested parallelism: the fixpoint's own workers run while
                // this thread holds the write lock
                program.materialize(&mut guard, opts).unwrap();
            }
        }));
    }
    for (i, q) in queries.iter().enumerate() {
        let shared = Arc::clone(&shared);
        let q = q.to_string();
        let expect = expected[i].clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..10 {
                let guard = shared.read().unwrap();
                let Statement::Request(req) = parse_statement(&q).unwrap() else { panic!() };
                let got = Evaluator::with_defaults(&guard).query(&req).unwrap();
                assert_eq!(got, expect, "{q}");
            }
        }));
    }
    for h in handles {
        h.join().expect("racing thread panicked");
    }
    assert_eq!(shared.read().unwrap().universe(), &reference);
}

/// Delta repair at 4 worker threads after base deletions: the parallel
/// repair pass must propagate the deletions through both strata and land
/// on exactly the universe a sequential from-scratch rebuild produces.
#[test]
fn delta_repair_under_parallelism_propagates_deletions() {
    let cfg = ShardedStockConfig::sized(6, 3, 8);
    let rules = sharded_union_rules(&cfg);
    let deletions = [
        // one stock out of shard 0, every quote out of shard 1
        "?.feed00.r-(.stkCode=f00stk000)",
        "?.feed01.r-(.clsPrice>0)",
    ];

    let mut inc = Engine::from_store(generate_sharded_store(&cfg));
    inc.set_options(EngineOptions::builder().auto_refresh(false).threads(4).build());
    inc.add_rules(&rules).unwrap();
    inc.refresh_views().unwrap();
    let union_before = inc.store().relation("dbU", "q").unwrap().len();

    for d in &deletions {
        inc.update(d).unwrap();
    }
    let runs = inc.maintenance_runs();
    let stats = inc.refresh_views_if_stale().unwrap();
    assert_eq!(inc.maintenance_runs(), runs + 1, "one delta repair, not a rebuild: {stats:?}");
    assert!(stats.maintenance.views_maintained > 0, "base deletions must reach the views");
    assert!(inc.views_fresh_now());
    assert!(stats.strata.iter().any(|s| s.workers > 1), "the repair should use the worker pool");

    // deletions propagated into the union…
    let union_after = inc.store().relation("dbU", "q").unwrap().len();
    assert_eq!(union_after, union_before - 8 - 24, "8 quotes of f00stk000, all 24 of feed01");
    // …and across the stratum boundary
    assert!(inc.store().relation("dbHi", "h1").unwrap().is_empty());

    // sequential from-scratch rebuild over identically edited base data
    let mut full = Engine::from_store(generate_sharded_store(&cfg));
    full.set_options(EngineOptions::builder().threads(1).build());
    for d in &deletions {
        full.update(d).unwrap();
    }
    full.add_rules(&rules).unwrap();
    full.refresh_views().unwrap();

    assert_eq!(
        inc.store().universe(),
        full.store().universe(),
        "parallel delta repair must equal a sequential full rebuild"
    );
    // sanity: untouched shards kept their maxima
    for si in [0usize, 2, 3, 4, 5] {
        let db = shard_db(si);
        assert!(!inc.store().relation(&db, "r").unwrap().is_empty());
        assert!(!inc.store().relation("dbHi", &format!("h{si}")).unwrap().is_empty());
    }
}
