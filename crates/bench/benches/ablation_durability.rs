//! B13 — durability ablation: what crash safety costs per update.
//!
//! Drives batches of mutating requests through [`Engine`] on the
//! real file system under the two sync policies:
//!
//! * `framed_fsync`   — CRC-framed records, fsync before every ack (the
//!   crash-safe default; pays one `fsync` per mutation);
//! * `framed_nosync`  — framed records, no fsync (OS-buffered appends:
//!   isolates the framing/CRC cost from the sync cost);
//!
//! plus an `in_memory` baseline (plain [`Engine`], no durability at all).
//! A second group measures **recovery**: `Engine::open` replaying
//! a log of `RECOVER_RECORDS` records.
//!
//! Expected shape: `framed_nosync` is a small constant over `in_memory`
//! (framing adds a CRC and 17 header bytes per record — noise next to
//! evaluation); `framed_fsync` is dominated by device sync latency, which
//! is the honest price of zero acked-update loss. Recovery is linear in
//! log length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idl::durable::SyncPolicy;
use idl::Engine;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Mutating requests per measured batch.
const BATCH: usize = 32;
/// Log length for the recovery-replay group.
const RECOVER_RECORDS: usize = 512;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn bench_root() -> PathBuf {
    std::env::temp_dir().join(format!("idl-b13-{}", std::process::id()))
}

fn fresh_dir() -> PathBuf {
    bench_root().join(format!("run-{}", DIR_COUNTER.fetch_add(1, Ordering::Relaxed)))
}

fn batch_statements(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("?.db.r+(.a={i}, .b={})", i * 7 % 101)).collect()
}

const MODES: &[(&str, SyncPolicy)] =
    &[("framed_fsync", SyncPolicy::Always), ("framed_nosync", SyncPolicy::Never)];

fn open_mode(dir: PathBuf, sync: SyncPolicy) -> Engine {
    let opts = idl::EngineOptions::builder().sync(sync).durability();
    Engine::open_with_vfs(dir, std::sync::Arc::new(idl::RealVfs::new()), opts, |_| Ok(()))
        .expect("open durable engine")
}

fn bench_updates(c: &mut Criterion) {
    let stmts = batch_statements(BATCH);
    let mut group = c.benchmark_group("B13_durability_update");
    for &(name, sync) in MODES {
        group.bench_function(BenchmarkId::new("batch", name), |b| {
            b.iter_batched(
                || open_mode(fresh_dir(), sync),
                |mut d| {
                    for s in &stmts {
                        d.update(s).expect("durable update");
                    }
                    black_box(d.last_lsn())
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.bench_function(BenchmarkId::new("batch", "in_memory"), |b| {
        b.iter_batched(
            Engine::new,
            |mut e| {
                for s in &stmts {
                    e.update(s).expect("in-memory update");
                }
                black_box(e.store().relation("db", "r").map(|r| r.len()).unwrap_or(0))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let stmts = batch_statements(RECOVER_RECORDS);
    let mut group = c.benchmark_group("B13_durability_recovery");
    // build one long log, replay it per iteration
    let dir = fresh_dir();
    {
        let mut d = open_mode(dir.clone(), SyncPolicy::Never);
        for s in &stmts {
            d.update(s).expect("seed update");
        }
    }
    group.bench_function(BenchmarkId::new("replay_512", "framed"), |b| {
        b.iter(|| {
            let d = open_mode(dir.clone(), SyncPolicy::Never);
            let stats = d.durability_stats();
            assert_eq!(stats.records_recovered as usize, RECOVER_RECORDS);
            black_box(stats.records_recovered)
        })
    });
    group.finish();
    std::fs::remove_dir_all(bench_root()).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    targets = bench_updates, bench_recovery
}
criterion_main!(benches);
