//! B8 — naive vs semi-naive fixpoint (§6 / DESIGN.md).
//!
//! The rule engine's semi-naive mode skips rules whose inputs did not
//! change in the previous iteration (relation-granularity deltas). This
//! bench materialises a three-level view chain (unified → customized →
//! summary) both ways.
//!
//! Expected shape: semi-naive does strictly fewer rule evaluations and
//! wins more as the chain deepens; both produce identical universes
//! (asserted).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idl_bench::stock_store;
use idl_eval::rules::RuleEngine;
use idl_eval::EvalOptions;
use idl_lang::{parse_program, Statement};
use std::hint::black_box;
use std::time::Duration;

const CHAIN: &str = "
    .dbI.p(.date=D,.stk=S,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P) ;
    .dbI.p(.date=D,.stk=S,.clsPrice=P) <- .ource.S(.date=D,.clsPrice=P) ;
    .dbE.r(.date=D,.stkCode=S,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P) ;
    .dbO.S(.date=D,.clsPrice=P) <- .dbE.r(.date=D,.stkCode=S,.clsPrice=P) ;
    .dbSum.stocks(.stk=S) <- .dbO.S(.clsPrice=P) ;
";

fn rules() -> Vec<idl_lang::Rule> {
    parse_program(CHAIN)
        .unwrap()
        .into_iter()
        .map(|s| match s {
            Statement::Rule(r) => r,
            _ => panic!("chain contains only rules"),
        })
        .collect()
}

const B8_SIZES: &[(usize, usize)] = &[(5, 20), (10, 50), (20, 100)];

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("B8_ablation_seminaive");
    for &(stocks, days) in B8_SIZES {
        let label = format!("{stocks}stk_x_{days}d");
        for (mode, semi) in [("semi_naive", true), ("naive", false)] {
            group.bench_function(BenchmarkId::new(mode, &label), |b| {
                let opts = EvalOptions::default().with_semi_naive(semi);
                b.iter_batched(
                    || (RuleEngine::new(rules()).unwrap(), stock_store(stocks, days)),
                    |(engine, mut store)| {
                        let stats = engine.materialize(&mut store, opts).unwrap();
                        black_box((stats.rule_evals, stats.facts_added))
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        }
        // correctness + work-count sanity at this size
        let engine = RuleEngine::new(rules()).unwrap();
        let mut s1 = stock_store(stocks, days);
        let st1 =
            engine.materialize(&mut s1, EvalOptions::default().with_semi_naive(true)).unwrap();
        let mut s2 = stock_store(stocks, days);
        let st2 =
            engine.materialize(&mut s2, EvalOptions::default().with_semi_naive(false)).unwrap();
        assert_eq!(s1.universe(), s2.universe());
        assert!(st1.rule_evals <= st2.rule_evals);
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
