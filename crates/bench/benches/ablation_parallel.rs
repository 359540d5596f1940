//! B11 — parallel intra-stratum fixpoint ablation.
//!
//! Materialises the sharded two-stratum view program (one independent
//! rule per shard per stratum; stratum 2 is join-heavy per rule) with
//! 1 / 2 / 4 fixpoint worker threads. Differential correctness — identical
//! derived contents across thread counts — is asserted as a side effect.
//!
//! Expected shape: near-linear speedup while `threads ≤ shards` and the
//! per-rule join work dominates the sequential merge (Amdahl); threads=1
//! is the exact legacy sequential schedule, so its numbers double as the
//! pre-parallelism baseline. On a single-core host (check `nproc`) all
//! thread counts necessarily coincide modulo scheduler overhead — the
//! speedup needs real parallelism to materialise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idl::Engine;
use idl_eval::EvalOptions;
use idl_storage::Store;
use idl_workload::stock::{generate_sharded, sharded_union_rules, ShardedStockConfig};
use std::hint::black_box;
use std::time::Duration;

const SHARDS: usize = 16;
const STOCKS: usize = 8;
const DAYS: usize = 40;
const THREADS: &[usize] = &[1, 2, 4];

fn fresh_engine(universe: &idl_object::Value, rules: &str, threads: usize) -> Engine {
    let store = Store::from_universe(universe.clone()).expect("sharded universe is a tuple");
    let mut e = Engine::from_store(store);
    let opts = e.options().rebuild().threads(threads).build();
    e.set_options(opts);
    e.add_rules(rules).expect("sharded rules install");
    e
}

fn derived_fingerprint(e: &Engine) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for db in ["dbU", "dbHi"] {
        for rel in e.store().relation_names(db).expect("derived db exists") {
            let len = e.store().relation(db, rel.as_str()).expect("derived relation").len();
            out.push((format!("{db}.{rel}"), len));
        }
    }
    out
}

fn bench(c: &mut Criterion) {
    let cfg = ShardedStockConfig::sized(SHARDS, STOCKS, DAYS);
    let universe = generate_sharded(&cfg);
    let rules = sharded_union_rules(&cfg);

    // differential check: every thread count derives the same contents
    let mut reference: Option<(Vec<(String, usize)>, String)> = None;
    for &t in THREADS {
        let mut e = fresh_engine(&universe, &rules, t);
        let stats = e.refresh_views().expect("fixpoint converges");
        assert_eq!(stats.strata.len(), 2);
        let json = idl_storage::persist::to_json(e.store()).expect("store serialises");
        let fp = (derived_fingerprint(&e), json);
        match &reference {
            None => reference = Some(fp),
            Some(r) => {
                assert_eq!(fp.0, r.0, "derived contents differ at {t} threads");
                assert_eq!(fp.1, r.1, "snapshot differs at {t} threads");
            }
        }
    }

    let mut group = c.benchmark_group("B11_parallel_fixpoint");
    for &t in THREADS {
        group.bench_function(BenchmarkId::new("refresh", format!("{t}thr")), |b| {
            b.iter_batched(
                || fresh_engine(&universe, &rules, t),
                |mut e| black_box(e.refresh_views().unwrap().facts_added),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    // how much of the wall time the widest stratum spends per worker —
    // the 1-thread leg isolates the query itself from any pool residue
    for &t in &[1usize, 4] {
        group.bench_function(BenchmarkId::new("query_after_refresh", format!("{t}thr")), |b| {
            let mut e = fresh_engine(&universe, &rules, t);
            e.refresh_views().unwrap();
            let opts = EvalOptions::default();
            let req = idl_bench::request("?.dbU.q(.stk=S, .clsPrice>100)");
            b.iter(|| black_box(idl_bench::run_query(e.store(), &req, opts)))
        });
    }
    // small-delta refresh: one new quote lands in one feed, then the
    // repair diffs against the freshness point and runs the delta pass —
    // strata with no overlapping deltas are skipped entirely.
    for &t in &[1usize, 4] {
        group.bench_function(BenchmarkId::new("refresh_incremental", format!("{t}thr")), |b| {
            b.iter_batched(
                || {
                    let mut e = fresh_engine(&universe, &rules, t);
                    e.refresh_views().unwrap();
                    e.update("?.feed00.r+(.date=9/9/99, .stkCode=f0099, .clsPrice=500)").unwrap();
                    e
                },
                |mut e| black_box(e.refresh_views_if_stale().unwrap().facts_added),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    // the same one-quote update together with the repair that makes the
    // views fresh again (`maintain_update`), and a query against the
    // repaired views (`query_maintained`) — together the update-then-read
    // cost.
    {
        let mut e = fresh_engine(&universe, &rules, 1);
        e.refresh_views().unwrap();
        e.update("?.feed00.r+(.date=9/9/99, .stkCode=f0099, .clsPrice=500)").unwrap();
        e.refresh_views_if_stale().unwrap();
        assert_eq!(e.maintenance_runs(), 1, "the delta pass must absorb the bench update");
        assert!(e.views_fresh_now());
    }
    for &t in &[1usize, 4] {
        group.bench_function(BenchmarkId::new("maintain_update", format!("{t}thr")), |b| {
            b.iter_batched(
                || {
                    let mut e = fresh_engine(&universe, &rules, t);
                    e.refresh_views().unwrap();
                    e
                },
                |mut e| {
                    e.update("?.feed00.r+(.date=9/9/99, .stkCode=f0099, .clsPrice=500)").unwrap();
                    black_box(e.refresh_views_if_stale().unwrap().maintenance.views_maintained)
                },
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_function(BenchmarkId::new("query_maintained", format!("{t}thr")), |b| {
            let mut e = fresh_engine(&universe, &rules, t);
            e.refresh_views().unwrap();
            e.update("?.feed00.r+(.date=9/9/99, .stkCode=f0099, .clsPrice=500)").unwrap();
            e.refresh_views_if_stale().unwrap();
            assert!(e.views_fresh_now());
            let opts = EvalOptions::default();
            let req = idl_bench::request("?.dbU.q(.stk=S, .clsPrice>100)");
            b.iter(|| black_box(idl_bench::run_query(e.store(), &req, opts)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    targets = bench
}
criterion_main!(benches);
