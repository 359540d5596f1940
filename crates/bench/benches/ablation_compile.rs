//! B12 — compile ablation (plan IR vs tree walk, cold vs warm plans).
//!
//! Two axes over the same workloads:
//!
//! * **query path** — the E1-style battery evaluated `interpreted`
//!   (tree walk), `compiled_cold` (compile on every call, no cache) and
//!   `compiled_warm` (memoized [`PlanCache`], compile amortised away);
//! * **view path** — materialising the unified-view program with the
//!   interpreter, with a fresh rule set per refresh (its first run
//!   compiles every body), and with one rule set reused across refreshes
//!   (its plans compiled once, before the measurement).
//!
//! Expected shape: warm ≈ cold ≥ interpreted on scan-heavy inputs
//! (compilation is cheap — a few µs per body — so the cache matters only
//! for tiny, frequent requests); all three agree exactly (asserted).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idl_bench::{request, run_query, size_label, stock_store, SIZES};
use idl_eval::rules::RuleEngine;
use idl_eval::{EvalOptions, Evaluator, PlanCache};
use idl_lang::{parse_program, Statement};
use std::hint::black_box;
use std::time::Duration;

const STOCKS: usize = 20;
const DAYS: usize = 100;

const VIEW_RULES: &str = "
    .dbI.p(.date=D,.stk=S,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P) ;
    .dbI.p(.date=D,.stk=S,.clsPrice=P) <- .chwab.r(.date=D,.S=P), S != date ;
    .dbI.p(.date=D,.stk=S,.clsPrice=P) <- .ource.S(.date=D,.clsPrice=P) ;
";

fn view_program() -> RuleEngine {
    let rules: Vec<_> = parse_program(VIEW_RULES)
        .unwrap()
        .into_iter()
        .map(|s| match s {
            Statement::Rule(r) => r,
            other => panic!("expected a rule, got {other}"),
        })
        .collect();
    RuleEngine::new(rules).unwrap()
}

fn bench_queries(c: &mut Criterion) {
    let store = stock_store(STOCKS, DAYS);
    let battery = [
        ("selective_eq", "?.euter.r(.clsPrice>100, .stkCode=stk003, .date=D)"),
        ("ho_attr_scan", "?.chwab.r(.S>180)"),
        ("join", "?.euter.r(.stkCode=S,.clsPrice=P), .ource.S(.clsPrice=P)"),
    ];
    let mut group = c.benchmark_group("B12_ablation_compile");
    for (name, src) in battery {
        let req = request(src);
        let interpreted = EvalOptions::default().with_compile(false);
        let compiled = EvalOptions::default().with_compile(true);
        let reference = run_query(&store, &req, interpreted);
        assert_eq!(run_query(&store, &req, compiled), reference, "{name}");

        group.bench_function(BenchmarkId::new(name, "interpreted"), |b| {
            b.iter(|| black_box(run_query(&store, &req, interpreted)))
        });
        // `eval_items` with compile on recompiles per call — the cold path.
        group.bench_function(BenchmarkId::new(name, "compiled_cold"), |b| {
            b.iter(|| black_box(run_query(&store, &req, compiled)))
        });
        // Warm path: the memoized cache hands back the same Arc'd plan.
        let mut cache = PlanCache::new();
        let plan = cache.get_or_compile(&req.items, compiled).unwrap();
        group.bench_function(BenchmarkId::new(name, "compiled_warm"), |b| {
            let ev = Evaluator::new(&store, compiled);
            b.iter(|| {
                black_box(ev.eval_compiled(&plan, vec![idl_eval::Subst::new()]).unwrap().len())
            })
        });
    }
    group.finish();
}

fn bench_views(c: &mut Criterion) {
    let program = view_program();
    let mut group = c.benchmark_group("B12_ablation_compile_views");
    for &(stocks, days) in SIZES {
        let configs: &[(&str, bool, bool)] = &[
            ("interpreted", false, false),
            ("compiled_cold", true, false),
            ("compiled_warm", true, true),
        ];
        for &(name, compile, warm) in configs {
            // A warm rule set keeps its plans across refreshes (as in
            // `Engine`); cold builds a fresh rule set, which compiles every
            // body, on every refresh.
            let opts = EvalOptions::default().with_compile(compile);
            if warm {
                program.materialize(&mut stock_store(stocks, days), opts).unwrap();
            }
            group.bench_function(BenchmarkId::new(name, size_label(stocks, days)), |b| {
                b.iter_batched(
                    || (stock_store(stocks, days), (!warm).then(view_program)),
                    |(mut store, fresh)| {
                        let program = fresh.as_ref().unwrap_or(&program);
                        let stats = program.materialize(&mut store, opts).unwrap();
                        if warm {
                            assert_eq!(stats.plans_compiled, 0, "warm rule set recompiled");
                        }
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
    targets = bench_queries, bench_views
}
criterion_main!(benches);
