//! B17 — checkpoint ablation: what in-place checkpoints buy on the
//! durable write path.
//!
//! One update then `checkpoint()` over the 40×150 stock universe on a
//! [`SimVfs`] (no device latency — the numbers isolate encoding and
//! page-file work), under two policies:
//!
//! * `full`  — `CheckpointPolicy::Full`: every checkpoint rewrites the
//!   whole page file;
//! * `delta` — the auto policy: only the dirtied relation's B-tree is
//!   edited in place.
//!
//! Expected shape: `delta` beats `full` by orders of magnitude (work
//! proportional to the dirty slot, not the universe).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idl::durable::{CheckpointPolicy, DurabilityOptions, SyncPolicy};
use idl::Engine;
use idl::{FaultPlan, SimVfs, Vfs};
use idl_bench::stock_engine;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const STOCKS: usize = 40;
const DAYS: usize = 150;

/// An open durable engine over a fresh in-memory vfs, seeded with the
/// stock universe and a full base checkpoint already on disk.
fn seeded(checkpoint: CheckpointPolicy) -> Engine {
    let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(FaultPlan::none(0)));
    let opts = DurabilityOptions { checkpoint, sync: SyncPolicy::Never, ..Default::default() };
    let mut d = Engine::open_with_vfs("/b17", vfs, opts, |e| {
        *e = stock_engine(STOCKS, DAYS);
        Ok(())
    })
    .expect("durable engine opens");
    d.update("?.db.touch+(.k=0)").expect("seed update");
    d.checkpoint().expect("base checkpoint");
    d
}

fn bench_checkpoint(c: &mut Criterion) {
    let label = format!("{STOCKS}stk_x_{DAYS}d");
    let mut group = c.benchmark_group("B17_codec_checkpoint");
    let modes: &[(&str, CheckpointPolicy)] =
        &[("full", CheckpointPolicy::Full), ("delta", CheckpointPolicy::default())];
    for &(name, policy) in modes {
        group.bench_function(BenchmarkId::new(name, &label), |b| {
            let mut d = seeded(policy);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                d.update(&format!("?.db.touch+(.k={i})")).expect("update");
                black_box(d.checkpoint().expect("checkpoint"))
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
        .measurement_time(Duration::from_millis(1500));
    targets = bench_checkpoint
}
criterion_main!(benches);
