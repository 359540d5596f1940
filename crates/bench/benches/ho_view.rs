//! B4 — higher-order view expansion (§6).
//!
//! `dbO.S(date, clsPrice) <- dbI.p(...)` defines *one relation per stock*.
//! This bench fixes the number of days and sweeps the number of stocks, so
//! the derived-relation count is the independent variable.
//!
//! Expected shape: total cost grows linearly in #stocks (one derived
//! relation each); per-relation cost stays flat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idl::Engine;
use idl_bench::stock_store;
use std::hint::black_box;
use std::time::Duration;

const RULES: &str = "
    .dbI.p(.date=D,.stk=S,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P) ;
    .dbO.S(.date=D,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P) ;
";

const STOCK_COUNTS: &[usize] = &[5, 10, 20, 40, 80];
const DAYS: usize = 20;
const THREADS: &[usize] = &[1, 4];

/// Rule-plan compiles on the higher-order view program: both rule bodies
/// compile once, on the first refresh, and never again, regardless of how
/// many derived relations the heads expand into.
fn report_plans_compiled() {
    let mut e = Engine::from_store(stock_store(10, DAYS));
    e.add_rules(RULES).unwrap();
    let cold = e.refresh_views().unwrap();
    let warm = e.refresh_views().unwrap();
    println!(
        "B4 rule plans: cold refresh compiled {}, warm refresh compiled {}",
        cold.plans_compiled, warm.plans_compiled
    );
}

fn bench(c: &mut Criterion) {
    report_plans_compiled();
    let mut group = c.benchmark_group("B4_ho_view_expansion");
    for &stocks in STOCK_COUNTS {
        for &threads in THREADS {
            let id = BenchmarkId::new("derive_dbO", format!("{stocks}stk_{threads}thr"));
            group.bench_function(id, |b| {
                b.iter_batched(
                    || {
                        let mut e = Engine::from_store(stock_store(stocks, DAYS));
                        let opts = e.options().rebuild().threads(threads).build();
                        e.set_options(opts);
                        e.add_rules(RULES).unwrap();
                        e
                    },
                    |mut e| {
                        let stats = e.refresh_views().unwrap();
                        // sanity: one derived relation per stock
                        let rels = e.store().relation_names("dbO").unwrap().len();
                        assert_eq!(rels, stocks);
                        black_box(stats.facts_added)
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
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
