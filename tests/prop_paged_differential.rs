//! Durable-vs-in-memory differential battery (DESIGN.md "Paged storage
//! and the buffer pool").
//!
//! Durability must not be a *semantic* knob: for hundreds of random
//! update/checkpoint workloads, a durable engine on the page file — with
//! a deliberately tiny, eviction-forcing buffer pool — must present
//! **byte-identical** universes to a plain in-memory [`Engine`] running
//! the same updates (for which a checkpoint is a no-op), live, after
//! recovery, and under the §4 query battery. The oracle shares no
//! storage code with the engine under test: no log, no page file, no
//! recovery. The worker-thread count and plan compilation are folded
//! into the seed so the matrix covers {1, 4} threads × {compiled,
//! tree-walk} without multiplying the case count.

use idl::{DurabilityOptions, Engine, EngineError, FaultPlan, SimVfs, StorageSpec, Vfs};
use idl_repro as _;
use proptest::prelude::*;
use std::sync::Arc;

/// One step of a generated workload.
#[derive(Clone, Debug)]
enum Op {
    /// `?.d{db}.r{rel}+(.a={a}, .b={b})`
    Insert { db: u8, rel: u8, a: i64, b: i64 },
    /// `?.d{db}.r{rel}-(.a={a})` — deletes every matching row (often
    /// none; collisions in the tiny key space make hits common).
    Delete { db: u8, rel: u8, a: i64 },
    /// An oversized row that exceeds the paged backend's inline-row
    /// budget, pushing its whole relation onto the blob path.
    Jumbo { db: u8, rel: u8, a: i64 },
    /// Checkpoint + log rotation (a no-op on the oracle).
    Checkpoint,
}

impl Op {
    fn source(&self) -> Option<String> {
        match self {
            Op::Insert { db, rel, a, b } => Some(format!("?.d{db}.r{rel}+(.a={a}, .b={b})")),
            Op::Delete { db, rel, a } => Some(format!("?.d{db}.r{rel}-(.a={a})")),
            Op::Jumbo { db, rel, a } => {
                Some(format!("?.d{db}.r{rel}+(.a={a}, .big={})", "x".repeat(1800)))
            }
            Op::Checkpoint => None,
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // weight via the selector range: 0-4 insert, 5-6 delete, 7 jumbo,
    // 8 checkpoint
    (0u8..9, 0u8..3, 0u8..3, 0i64..12, 0i64..12).prop_map(|(kind, db, rel, a, b)| match kind {
        0..=4 => Op::Insert { db, rel, a, b },
        5 | 6 => Op::Delete { db, rel, a },
        7 => Op::Jumbo { db, rel, a: a % 4 },
        _ => Op::Checkpoint,
    })
}

/// A small view layer so refreshes actually run rules — making the
/// thread-count and compile knobs meaningful — plus a negation to keep
/// the stratifier honest.
const RULES: &str = "
    .v.all(.db=D, .a=A) <- .D.R(.a=A) ;
    .v.pair(.x=A, .y=B) <- .d0.r0(.a=A), .d1.r1(.a=B) ;
    .v.only0(.a=A) <- .d0.r0(.a=A), .d1.r0¬(.a=A) ;
";

/// §4-style probes over base and derived relations.
const BATTERY: &[&str] = &[
    "?.d0.r0(.a=X, .b=Y)",
    "?.D.R(.a=X)",
    "?.v.all(.db=D, .a=A)",
    "?.v.pair(.x=X, .y=Y)",
    "?.v.only0(.a=A)",
    "?.d1.r2(.a>3)",
];

/// Rules and the thread/compile knobs, on the engine under test and the
/// oracle alike.
fn setup(e: &mut Engine, threads: usize, compile: bool) -> Result<(), EngineError> {
    e.add_rules(RULES)?;
    e.set_options(e.options().rebuild().threads(threads).compile(compile).build());
    Ok(())
}

fn open(
    vfs: &Arc<SimVfs>,
    pool: usize,
    threads: usize,
    compile: bool,
) -> Result<Engine, EngineError> {
    let v: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
    let storage = StorageSpec::Paged { pool_pages: pool };
    let opts = DurabilityOptions { storage, ..DurabilityOptions::default() };
    Engine::open_with_vfs("/diff", v, opts, move |e| setup(e, threads, compile))
}

/// Universe JSON and battery answers, views refreshed.
fn state(b: &mut Engine) -> (String, Vec<String>) {
    b.refresh_views().expect("refresh");
    let universe = b.universe_json().expect("universe json");
    let answers = BATTERY
        .iter()
        .map(|q| format!("{:?}", b.query(q).unwrap_or_else(|e| panic!("{q}: {e}"))))
        .collect();
    (universe, answers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// durable ≡ in-memory: same workload, same bytes — live, recovered,
    /// and under the query battery — with a pool small enough to evict.
    #[test]
    fn paged_storage_matches_in_memory_engine(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(op_strategy(), 1..32),
    ) {
        let threads = if seed & 1 == 0 { 1 } else { 4 };
        let compile = seed & 2 == 0;
        // 1–4 pool pages: always far below the page file the jumbo and
        // multi-relation workloads build, so commits and recovery evict
        let pool = 1 + (seed % 4) as usize;

        let vfs = Arc::new(SimVfs::new(FaultPlan::none(seed)));
        let mut durable = open(&vfs, pool, threads, compile).expect("open");
        let mut oracle = Engine::new();
        setup(&mut oracle, threads, compile).expect("oracle setup");
        for op in &ops {
            match op.source() {
                Some(src) => {
                    durable.update(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
                    oracle.update(&src).unwrap_or_else(|e| panic!("oracle {src}: {e}"));
                }
                None => {
                    durable.checkpoint().expect("checkpoint");
                }
            }
        }
        let want = state(&mut oracle);
        prop_assert_eq!(
            &state(&mut durable), &want,
            "live state diverges (threads={}, compile={}, pool={})", threads, compile, pool
        );
        drop(durable);

        let recovered = state(&mut open(&vfs, pool, threads, compile).expect("reopen"));
        prop_assert_eq!(
            &recovered, &want,
            "recovered state diverges (threads={}, compile={}, pool={})", threads, compile, pool
        );
        // a second reopen is byte-stable
        let again = state(&mut open(&vfs, pool, threads, compile).expect("second reopen"));
        prop_assert_eq!(recovered.0, again.0);
    }
}
