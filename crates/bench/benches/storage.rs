//! B9 — storage substrate microbenchmarks.
//!
//! Baseline costs of the substrate the language sits on: point inserts,
//! predicate deletes, index build + probe, statistics, universe
//! serialisation. These numbers contextualise B1–B8 (how much of a query
//! is language overhead vs storage work).
//!
//! The universe roundtrips run twice — once through JSON (the `--save`
//! export) and once through the binary value container the page file
//! stores — so `BENCH_B9.json` keeps the serialization-tax comparison
//! honest. `BENCH_B9_SIZES=1` skips criterion and emits one JSON line per
//! universe size with the blob sizes of both encodings (the size axis in
//! `BENCH_B9.json`).

use criterion::{criterion_group, BenchmarkId, Criterion};
use idl_bench::stock_store;
use idl_object::{tuple, Value};
use idl_storage::{codec, persist, IndexKind, Store};
use std::hint::black_box;
use std::time::Duration;

const B9_SIZES: &[(usize, usize)] = &[(10, 50), (40, 150)];

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("B9_storage");
    for &(stocks, days) in B9_SIZES {
        let label = format!("{stocks}stk_x_{days}d");

        group.bench_function(BenchmarkId::new("insert_dedup", &label), |b| {
            let mut store = stock_store(stocks, days);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let t = tuple! { stkCode: "bench", clsPrice: i as i64 };
                black_box(store.insert("euter", "r", t).unwrap())
            })
        });

        group.bench_function(BenchmarkId::new("delete_where_miss", &label), |b| {
            let mut store = stock_store(stocks, days);
            b.iter(|| {
                black_box(
                    store
                        .delete_where("euter", "r", |t| {
                            t.attr("stkCode") == Some(&Value::str("no_such"))
                        })
                        .unwrap(),
                )
            })
        });

        group.bench_function(BenchmarkId::new("index_build", &label), |b| {
            b.iter_batched(
                || stock_store(stocks, days),
                |store| {
                    let idx = store.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
                    black_box(idx.distinct_keys())
                },
                criterion::BatchSize::LargeInput,
            )
        });

        group.bench_function(BenchmarkId::new("index_probe_cached", &label), |b| {
            let store = stock_store(stocks, days);
            store.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
            let key = Value::str("stk001");
            b.iter(|| {
                let idx = store.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
                black_box(idx.lookup_eq(&key).len())
            })
        });

        group.bench_function(BenchmarkId::new("stats", &label), |b| {
            b.iter_batched(
                || stock_store(stocks, days),
                |store| black_box(store.stats("euter", "r").unwrap().cardinality),
                criterion::BatchSize::LargeInput,
            )
        });

        group.bench_function(BenchmarkId::new("snapshot_json_roundtrip", &label), |b| {
            let store = stock_store(stocks, days);
            b.iter(|| {
                let json = persist::to_json(&store).unwrap();
                let back = persist::from_json(&json).unwrap();
                black_box(back.database_names().len())
            })
        });

        group.bench_function(BenchmarkId::new("value_binary_roundtrip", &label), |b| {
            let store = stock_store(stocks, days);
            b.iter(|| {
                let blob = codec::encode_value(store.universe());
                let back = Store::from_universe(codec::decode_value(&blob).unwrap()).unwrap();
                black_box(back.database_names().len())
            })
        });

        group.bench_function(BenchmarkId::new("txn_snapshot_rollback", &label), |b| {
            let mut store = stock_store(stocks, days);
            b.iter(|| {
                store.begin();
                store.insert("euter", "r", tuple! { stkCode: "x", clsPrice: 1i64 }).unwrap();
                store.rollback().unwrap();
                black_box(store.version())
            })
        });
    }
    group.finish();
}

/// The size axis behind `BENCH_B9.json`: one JSON line per universe
/// size, bytes of the JSON universe vs the binary value container.
fn run_sizes() {
    println!("[");
    let mut first = true;
    for &(stocks, days) in B9_SIZES {
        let store = stock_store(stocks, days);
        let json = persist::to_json(&store).unwrap().len();
        let binary = codec::encode_value(store.universe()).len();
        if !first {
            println!(",");
        }
        first = false;
        print!(
            "  {{\"size\": \"{stocks}stk_x_{days}d\", \"json_bytes\": {json}, \
             \"binary_bytes\": {binary}, \"ratio\": {:.2}}}",
            json as f64 / binary as f64
        );
    }
    println!("\n]");
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    targets = bench
}

fn main() {
    if std::env::var("BENCH_B9_SIZES").is_ok() {
        run_sizes();
        return;
    }
    benches();
}
