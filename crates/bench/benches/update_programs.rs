//! B5 — update-program translation overhead (§7.1).
//!
//! `insStk`/`delStk` translate one logical update into three physical
//! updates, one per schema. This bench compares a program call against the
//! equivalent hand-written direct updates, isolating the program
//! machinery's cost (parameter binding, signature checks, clause
//! dispatch).
//!
//! Expected shape: a small constant factor over direct updates,
//! independent of database size (both paths are index/point updates).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idl::Engine;
use idl_bench::stock_store;
use std::hint::black_box;
use std::time::Duration;

fn program_engine(stocks: usize, days: usize) -> Engine {
    let mut e = Engine::from_store(stock_store(stocks, days));
    // programs only — no views, so nothing re-materialises between calls
    e.execute(idl::transparency::standard_update_programs()).unwrap();
    e
}

const B5_SIZES: &[(usize, usize)] = &[(10, 50), (40, 150)];

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("B5_update_programs");
    for &(stocks, days) in B5_SIZES {
        let label = format!("{stocks}stk_x_{days}d");

        // program call: insert then delete the same quote (net zero state)
        group.bench_function(BenchmarkId::new("insStk_delStk_program", &label), |b| {
            let mut e = program_engine(stocks, days);
            b.iter(|| {
                e.update("?.dbU.insStk(.stk=bench, .date=3/3/85, .price=1)").unwrap();
                let st = e.update("?.dbU.delStk(.stk=bench)").unwrap();
                black_box(st)
            })
        });

        // hand-written direct equivalents (same net effect)
        group.bench_function(BenchmarkId::new("insert_delete_direct", &label), |b| {
            let mut e = program_engine(stocks, days);
            b.iter(|| {
                e.update(
                    "?.euter.r+(.stkCode=bench,.date=3/3/85,.clsPrice=1), \
                      .chwab.r(.date=3/3/85, +.bench=1), \
                      .ource.bench+(.date=3/3/85,.clsPrice=1)",
                )
                .unwrap();
                let st = e
                    .update(
                        "?.euter.r-(.stkCode=bench), \
                          .chwab.r(.bench-=X), \
                          .ource.bench-(.date=D)",
                    )
                    .unwrap();
                black_box(st)
            })
        });

        // metadata-heavy removal via rmStk
        group.bench_function(BenchmarkId::new("rmStk_program", &label), |b| {
            let mut e = program_engine(stocks, days);
            b.iter(|| {
                e.update("?.dbU.insStk(.stk=bench, .date=3/3/85, .price=1)").unwrap();
                let st = e.update("?.dbU.rmStk(.stk=bench)").unwrap();
                black_box(st)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1000));
    targets = bench
}
criterion_main!(benches);
