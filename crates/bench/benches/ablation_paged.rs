//! B18 — paged-storage ablation: what the buffer pool costs and buys.
//!
//! Builds one checkpointed universe (40 relations, ~50 rows each) whose
//! page file is far larger than the small pools, then measures three
//! things across pool sizes:
//!
//! * `B18_paged_query` — a §4 battery query through the *engine* on a
//!   recovered instance. Queries always run against the in-memory
//!   universe, so a durable engine must price-match a plain in-memory
//!   [`Engine`] here; the pool only shapes the write/recovery path,
//!   never steady-state evaluation.
//! * `B18_paged_scan` — reading every relation straight off the page
//!   file (`storage_read_relation`), which *does* go through the buffer
//!   pool. A pool smaller than the file re-faults pages every round
//!   (perpetually cold: misses + evictions each scan); a pool that holds
//!   the whole file serves round two onward from memory (warm). The
//!   pool-size axis is the cold→warm curve.
//! * `B18_paged_recovery` — `Engine::open` replaying the same
//!   checkpoint: the page-file catalog walk.
//!
//! Differential asserts ride along: every pool size recovers the bytes
//! an in-memory engine holds after the same updates, the tiny pool
//! demonstrably evicts, and the big pool's steady-state scan is all hits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idl::{Engine, StorageSpec};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const DBS: usize = 4;
const RELS: usize = 10;
const ROWS: usize = 50;

/// Pool sizes for the scan/recovery axes: 2 pages is pathological
/// (every scan round evicts), 8 is a small working set, 1024 holds the
/// whole file (the engine default).
const POOLS: &[usize] = &[2, 8, 1024];

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn bench_root() -> PathBuf {
    std::env::temp_dir().join(format!("idl-b18-{}", std::process::id()))
}

fn fresh_dir() -> PathBuf {
    bench_root().join(format!("run-{}", DIR_COUNTER.fetch_add(1, Ordering::Relaxed)))
}

fn spec_name(spec: StorageSpec) -> String {
    spec.to_string()
}

fn open(dir: PathBuf, spec: StorageSpec) -> Engine {
    let opts = idl::DurabilityOptions { storage: spec, ..Default::default() };
    Engine::open_with_vfs(dir, std::sync::Arc::new(idl::RealVfs::new()), opts, |_| Ok(()))
        .expect("open durable engine")
}

/// The benchmark universe's updates.
fn updates() -> impl Iterator<Item = String> {
    (0..DBS).flat_map(|db| {
        (0..RELS).flat_map(move |rel| {
            (0..ROWS).map(move |i| format!("?.d{db}.r{rel}+(.a={i}, .b=\"row-{db}-{rel}-{i:04}\")"))
        })
    })
}

/// Populates `dir` with the benchmark universe and a full checkpoint,
/// so reopen cost is the page file's recovery path, not log replay.
fn build_universe(dir: PathBuf, spec: StorageSpec) -> PathBuf {
    let mut d = open(dir.clone(), spec);
    for s in updates() {
        d.update(&s).expect("populate");
    }
    d.checkpoint_full().expect("checkpoint");
    dir
}

/// Reads every relation straight off the storage backend.
fn scan_storage(d: &mut Engine) -> usize {
    let mut rows = 0;
    for db in 0..DBS {
        for rel in 0..RELS {
            let v = d
                .storage_read_relation(&format!("d{db}"), &format!("r{rel}"))
                .expect("storage read")
                .expect("relation present");
            rows += v.as_set().map(|s| s.len()).unwrap_or(1);
        }
    }
    rows
}

fn bench_paged(c: &mut Criterion) {
    let mut in_memory = Engine::new();
    for s in updates() {
        in_memory.update(&s).expect("populate in memory");
    }
    let paged_dirs: Vec<(usize, PathBuf)> = POOLS
        .iter()
        .map(|&pool| (pool, build_universe(fresh_dir(), StorageSpec::Paged { pool_pages: pool })))
        .collect();

    // differential assert: every pool size recovers the in-memory
    // engine's bytes, and the page file really does dwarf the small pools
    let want = in_memory.universe_json().expect("in-memory universe");
    for &(pool, ref dir) in &paged_dirs {
        let spec = StorageSpec::Paged { pool_pages: pool };
        let mut d = open(dir.clone(), spec);
        assert_eq!(
            d.universe_json().expect("paged universe"),
            want,
            "paged:{pool} recovered different bytes than the in-memory engine"
        );
        let stats = d.durability_stats();
        assert!(
            stats.storage_pages > 8,
            "page file too small to exercise the pool ({} pages)",
            stats.storage_pages
        );
        if pool == 2 {
            scan_storage(&mut d);
            let pool_stats = d.durability_stats().pool.expect("pool stats");
            assert!(pool_stats.evictions > 0, "2-page pool never evicted");
        }
    }

    // Warm engine-query latency: durable must price-match in-memory.
    let query = "?.d0.r3(.a>40, .b=Y)";
    let mut group = c.benchmark_group("B18_paged_query");
    group.bench_function(BenchmarkId::new("warm", "in_memory"), |b| {
        b.iter(|| black_box(in_memory.query(query).expect("query").len()))
    });
    for &(pool, ref dir) in &paged_dirs {
        let spec = StorageSpec::Paged { pool_pages: pool };
        let mut d = open(dir.clone(), spec);
        group.bench_function(BenchmarkId::new("warm", spec_name(spec)), |b| {
            b.iter(|| black_box(d.query(query).expect("query").len()))
        });
    }
    group.finish();

    // Cold→warm storage scans: the pool-size axis. 2 pages re-faults
    // every round; 1024 serves from memory after round one.
    let mut group = c.benchmark_group("B18_paged_scan");
    for &(pool, ref dir) in &paged_dirs {
        let spec = StorageSpec::Paged { pool_pages: pool };
        let mut d = open(dir.clone(), spec);
        scan_storage(&mut d); // round one: fault everything in once
        if pool == *POOLS.last().unwrap() {
            let before = d.durability_stats().pool.expect("pool stats");
            scan_storage(&mut d);
            let after = d.durability_stats().pool.expect("pool stats");
            assert_eq!(before.misses, after.misses, "warm scan on a full-file pool missed");
        }
        group.bench_function(BenchmarkId::new("scan_all", spec_name(spec)), |b| {
            b.iter(|| black_box(scan_storage(&mut d)))
        });
    }
    group.finish();

    // Recovery: reopening the checkpointed directory.
    let mut group = c.benchmark_group("B18_paged_recovery");
    for &(pool, ref dir) in &paged_dirs {
        let spec = StorageSpec::Paged { pool_pages: pool };
        group.bench_function(BenchmarkId::new("open", spec_name(spec)), |b| {
            b.iter(|| {
                let d = open(dir.clone(), spec);
                black_box(d.last_lsn())
            })
        });
    }
    group.finish();

    std::fs::remove_dir_all(bench_root()).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    targets = bench_paged
}
criterion_main!(benches);
