//! Building the system under test: load, checkpoint, reopen, serve — and
//! its in-process twins and the naive oracle.

use crate::config;
use crate::gen::{Universe, QUOTES};
use idl::{
    Backend, DurableEngine, Engine, EngineError, EngineOptions, EvalOptions, RealVfs, SyncPolicy,
    Vfs,
};
use idl_server::{serve, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A benchmark failure with its context (set-up, I/O, a wrong answer
/// that makes continuing pointless).
pub type BenchResult<T> = Result<T, String>;

pub fn ctx<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// A scratch directory under the output directory, removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl ScratchDir {
    pub fn new(out: &Path, label: &str) -> BenchResult<ScratchDir> {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = out.join(format!("data-{}-{n}-{label}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path).map_err(ctx("clear scratch dir"))?;
        }
        std::fs::create_dir_all(&path).map_err(ctx("create scratch dir"))?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn install(engine: &mut Engine) -> Result<(), EngineError> {
    engine.set_options(config::engine_options());
    idl::transparency::install_two_level_mapping(engine)
}

/// Loads the universe into a fresh durable directory: each schema's own
/// batched inserts under `SyncPolicy::Never` with no views installed
/// (nothing to maintain during the bulk load), then one full checkpoint.
pub fn load(dir: &Path, uni: &Universe, pool_pages: usize) -> BenchResult<()> {
    let opts = config::durability(SyncPolicy::Never, pool_pages);
    let mut d = DurableEngine::open_with_vfs(dir, Arc::new(RealVfs::new()), opts, |e| {
        e.set_options(config::engine_options());
        Ok(())
    })
    .map_err(ctx("open for load"))?;
    for stmt in uni.load_statements() {
        d.update(&stmt).map_err(ctx("load statement"))?;
    }
    d.checkpoint_full().map_err(ctx("checkpoint after load"))?;
    Ok(())
}

/// Opens a loaded directory the way it is served: `SyncPolicy::Always`,
/// the two-level mapping installed before the log tail replays.
pub fn open(
    dir: &Path,
    vfs: Arc<dyn Vfs>,
    pool_pages: usize,
) -> Result<DurableEngine, EngineError> {
    DurableEngine::open_with_vfs(
        dir,
        vfs,
        config::durability(SyncPolicy::Always, pool_pages),
        install,
    )
}

/// Asserts the loaded universe: 6 000 quotes in each schema and 6 000
/// rows in the unified view.
pub fn verify_loaded(backend: &mut dyn Backend) -> BenchResult<()> {
    for q in [
        "?.euter.r(.stkCode=S,.date=D,.clsPrice=P)",
        "?.chwab.r(.date=D,.S=P), S != date",
        "?.ource.S(.date=D,.clsPrice=P)",
        "?.dbI.p(.stk=S,.date=D,.clsPrice=P)",
    ] {
        let rows = backend.query(q).map_err(ctx("verify load"))?.len();
        if rows != QUOTES {
            return Err(format!("loaded universe is wrong: {q} has {rows} answers, not {QUOTES}"));
        }
    }
    Ok(())
}

/// A served durable engine.
pub struct Served {
    pub handle: ServerHandle,
    pub dir: ScratchDir,
}

/// generate → load → checkpoint → open → verify → serve (connect and
/// warm-up are the caller's, which owns the sessions).
pub fn serve_fresh(out: &Path, uni: &Universe) -> BenchResult<Served> {
    let dir = ScratchDir::new(out, "served")?;
    load(dir.path(), uni, config::SERVED_POOL_PAGES)?;
    let mut engine = open(dir.path(), Arc::new(RealVfs::new()), config::SERVED_POOL_PAGES)
        .map_err(ctx("open for serving"))?;
    verify_loaded(&mut engine)?;
    let handle = serve(Box::new(engine), config::server_config()).map_err(ctx("serve"))?;
    Ok(Served { handle, dir })
}

/// An in-memory engine with `options` holding the loaded universe and
/// the mapping.
fn in_memory(uni: &Universe, options: EngineOptions) -> BenchResult<Engine> {
    let mut e = Engine::new();
    e.set_options(options);
    for stmt in uni.load_statements() {
        e.update(&stmt).map_err(ctx("load in-memory engine"))?;
    }
    idl::transparency::install_two_level_mapping(&mut e).map_err(ctx("install mapping"))?;
    Ok(e)
}

/// The twin the traced pass re-executes layer calls on: the same
/// universe and mapping in memory, with the production options.
pub fn mem_twin(uni: &Universe) -> BenchResult<Engine> {
    in_memory(uni, config::engine_options())
}

/// The oracle: the same universe and mapping evaluated by the naive
/// reference configuration (tree walk, no indexes, no reordering, naive
/// fixpoint, no maintenance, one thread).
pub fn oracle(uni: &Universe) -> BenchResult<Engine> {
    let options = EngineOptions {
        eval: EvalOptions::naive(),
        auto_refresh: true,
        semi_naive: false,
        incremental_refresh: false,
    };
    let mut e = in_memory(uni, options)?;
    e.refresh_views().map_err(ctx("materialise oracle views"))?;
    Ok(e)
}
