//! B3 — unified view materialisation (§6).
//!
//! Cost of deriving `dbI.p` — the database-transparency view over all
//! three schemata — as a function of (#stocks × #days). Per-schema
//! contribution measured by materialising single-source variants.
//!
//! Expected shape: roughly linear in total quote count; the chwab source
//! costs the most per fact (attribute enumeration per row).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idl::Engine;
use idl_bench::{size_label, stock_store, SIZES};
use std::hint::black_box;
use std::time::Duration;

const FROM_EUTER: &str =
    ".dbI.p(.date=D,.stk=S,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P) ;";
const FROM_CHWAB: &str =
    ".dbI.p(.date=D,.stk=S,.clsPrice=P) <- .chwab.r(.date=D,.S=P), S != date ;";
const FROM_OURCE: &str = ".dbI.p(.date=D,.stk=S,.clsPrice=P) <- .ource.S(.date=D,.clsPrice=P) ;";

const THREADS: &[usize] = &[1, 4];

/// One-off report of rule-plan compilation on this workload: the first
/// refresh compiles each rule body once, every later refresh compiles
/// nothing — printed so bench runs record it alongside the timings.
fn report_plans_compiled(rules: &str) {
    let mut e = Engine::from_store(stock_store(10, 50));
    e.add_rules(rules).unwrap();
    let cold = e.refresh_views().unwrap();
    let warm = e.refresh_views().unwrap();
    println!(
        "B3 rule plans: cold refresh compiled {}, warm refresh compiled {}",
        cold.plans_compiled, warm.plans_compiled
    );
}

fn bench(c: &mut Criterion) {
    report_plans_compiled(&format!("{FROM_EUTER}{FROM_CHWAB}{FROM_OURCE}"));
    let mut group = c.benchmark_group("B3_unified_view");
    for &(stocks, days) in SIZES {
        let variants: &[(&str, String)] = &[
            ("all_sources", format!("{FROM_EUTER}{FROM_CHWAB}{FROM_OURCE}")),
            ("euter_only", FROM_EUTER.to_string()),
            ("chwab_only", FROM_CHWAB.to_string()),
            ("ource_only", FROM_OURCE.to_string()),
        ];
        for (name, rules) in variants {
            // the threads axis only matters where several rules share a
            // stratum — sweep it on the 3-rule union, pin single-rule
            // variants to the sequential path
            let threads: &[usize] = if *name == "all_sources" { THREADS } else { &[1] };
            for &t in threads {
                let label = if threads.len() > 1 {
                    format!("{}_{t}thr", size_label(stocks, days))
                } else {
                    size_label(stocks, days)
                };
                group.bench_function(BenchmarkId::new(*name, label), |b| {
                    b.iter_batched(
                        || {
                            let mut e = Engine::from_store(stock_store(stocks, days));
                            let opts = e.options().rebuild().threads(t).build();
                            e.set_options(opts);
                            e.add_rules(rules).unwrap();
                            e
                        },
                        |mut e| black_box(e.refresh_views().unwrap().facts_added),
                        criterion::BatchSize::LargeInput,
                    )
                });
            }
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1200));
    targets = bench
}
criterion_main!(benches);
