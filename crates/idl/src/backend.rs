//! The server's seam over the engine, and snapshot-isolated reads.
//!
//! [`Backend`] is the object-safe surface the `idl-server` writer thread
//! drives: [`Engine`] is its one production implementation, whether in
//! memory or durable, and the server's tests wrap an engine in a fake
//! that slows one verb down. Everything else calls [`Engine`]'s own
//! methods.
//!
//! ```
//! use idl::{Backend, Engine};
//!
//! let mut b: Box<dyn Backend> = Box::new(Engine::with_stock_universe(vec![
//!     ("3/3/85", "hp", 50.0),
//! ]));
//! b.execute(".v.all(.s=S) <- .euter.r(.stkCode=S) ;")?;
//! assert!(b.query("?.v.all(.s=hp)")?.is_true());
//! # Ok::<(), idl::EngineError>(())
//! ```
//!
//! # Snapshot-isolated reads
//!
//! [`Backend::snapshot`] returns an [`EngineSnapshot`]: a point-in-time,
//! read-only view of the universe with views freshly materialised.
//! Thanks to the copy-on-write object model the snapshot is an **O(1)
//! handle copy**, not a deep copy — taking one costs nanoseconds
//! regardless of universe size, and the snapshot stays valid (and
//! byte-stable) while the engine continues mutating. This is the
//! mechanism behind the server's concurrent reads: many sessions evaluate
//! against published snapshots while a single writer advances the engine.

use crate::engine::{one_request, read_only, Engine};
use crate::error::EngineError;
use crate::outcome::Outcome;
use idl_eval::rules::FixpointStats;
use idl_eval::{AnswerSet, Evaluator, PlanCache, ProgramRegistry, Subst};
use idl_lang::Request;
use idl_storage::{DurabilityStats, StorageSpec, Store, Version};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The object-safe surface the server drives, with exactly the verbs it
/// (and the benchmark package) calls through it. Each method has the
/// contract of the [`Engine`] method of the same name.
pub trait Backend {
    /// [`Engine::execute`]: a multi-statement source text, one outcome
    /// per statement, logged when durable.
    fn execute(&mut self, src: &str) -> Result<Vec<Outcome>, EngineError>;

    /// [`Engine::query`]: one read-only request; writes are refused.
    fn query(&mut self, src: &str) -> Result<AnswerSet, EngineError>;

    /// [`Engine::update_group`]: single-request updates as one group
    /// commit, one positional result per source.
    fn update_group(&mut self, srcs: &[String]) -> Vec<Result<Outcome, EngineError>>;

    /// [`Engine::refresh_views`]: re-derives all views.
    fn refresh_views(&mut self) -> Result<FixpointStats, EngineError>;

    /// [`Engine::last_fixpoint_stats`]: the most recent view
    /// materialisation that actually ran rules.
    fn stats(&self) -> &FixpointStats;

    /// [`Engine::snapshot`]: a point-in-time read-only snapshot with
    /// views freshly materialised.
    fn snapshot(&mut self) -> Result<EngineSnapshot, EngineError>;

    /// [`Engine::durability_stats`] and [`Engine::storage_spec`] of a
    /// durable engine; `None` in memory.
    fn storage_stats(&self) -> Option<(DurabilityStats, StorageSpec)> {
        None
    }
}

impl Backend for Engine {
    fn execute(&mut self, src: &str) -> Result<Vec<Outcome>, EngineError> {
        Engine::execute(self, src)
    }

    fn query(&mut self, src: &str) -> Result<AnswerSet, EngineError> {
        Engine::query(self, src)
    }

    fn update_group(&mut self, srcs: &[String]) -> Vec<Result<Outcome, EngineError>> {
        Engine::update_group(self, srcs)
    }

    fn refresh_views(&mut self) -> Result<FixpointStats, EngineError> {
        Engine::refresh_views(self)
    }

    fn stats(&self) -> &FixpointStats {
        self.last_fixpoint_stats()
    }

    fn snapshot(&mut self) -> Result<EngineSnapshot, EngineError> {
        Engine::snapshot(self)
    }

    fn storage_stats(&self) -> Option<(DurabilityStats, StorageSpec)> {
        Some((self.durability_stats(), self.storage_spec()?))
    }
}

/// A point-in-time, read-only view of the universe.
///
/// Obtained from [`Engine::snapshot`]; holds its own [`Store`] built
/// from an O(1) copy-on-write clone of the universe tuple, so it is
/// unaffected by — and does not block — subsequent engine mutation.
/// Index/statistics caches are built lazily and shared between
/// concurrent readers of the same snapshot (the store's caches are
/// internally synchronised, so `&EngineSnapshot` is `Sync`); a snapshot
/// starts with the indexes the readers of the one before it built,
/// patched by what changed in between.
pub struct EngineSnapshot {
    pub(crate) store: Arc<Store>,
    version: Version,
    opts: idl_eval::EvalOptions,
    /// The engine's update programs, so a call to one is refused.
    programs: Arc<ProgramRegistry>,
}

impl EngineSnapshot {
    /// Snapshots an engine's current universe (no refresh — callers that
    /// need fresh views go through [`Engine::snapshot`]), adopting the
    /// indexes the readers of `prev`, the snapshot published before it,
    /// have built ([`Store::adopt_indexes`]).
    pub(crate) fn of(engine: &Engine, prev: Option<&Store>) -> Result<Self, EngineError> {
        let store = Store::from_universe(engine.store().universe().clone())?;
        if let Some(prev) = prev {
            store.adopt_indexes(prev);
        }
        Ok(EngineSnapshot {
            store: Arc::new(store),
            version: engine.store().version(),
            opts: engine.options().eval,
            programs: engine.programs_shared(),
        })
    }

    /// The store version this snapshot was taken at.
    pub fn version(&self) -> Version {
        self.version
    }

    /// The snapshotted store (read-only by construction).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Evaluates one pure-query request source against the snapshot.
    pub fn query(&self, src: &str) -> Result<AnswerSet, EngineError> {
        self.query_cached(src, None)
    }

    /// [`EngineSnapshot::query`] with a memoized plan cache (the server's
    /// hot path: one shared cache across sessions and snapshots). The
    /// cache mutex is held only around plan lookup/compilation, never
    /// during evaluation, so concurrent readers contend on compiling a
    /// plan at most once and then evaluate lock-free.
    pub fn query_cached(
        &self,
        src: &str,
        cache: Option<&std::sync::Mutex<PlanCache>>,
    ) -> Result<AnswerSet, EngineError> {
        self.query_request(&one_request(src)?, cache)
    }

    /// Evaluates one parsed pure-query request against the snapshot. A
    /// signed item or a call to a registered update program is refused
    /// with `E-USAGE`: both write.
    pub fn query_request(
        &self,
        req: &Request,
        cache: Option<&std::sync::Mutex<PlanCache>>,
    ) -> Result<AnswerSet, EngineError> {
        read_only(req, &self.programs)?;
        let ev = Evaluator::new(&self.store, self.opts);
        let substs = if self.opts.compile {
            let plan = match cache {
                Some(cache) => {
                    let mut cache = cache.lock().unwrap_or_else(|p| p.into_inner());
                    cache.get_or_compile(&req.items, self.opts)?
                }
                None => std::sync::Arc::new(idl_eval::compile_items(&req.items, self.opts)?),
            };
            ev.eval_compiled(&plan, vec![Subst::new()])?
        } else {
            ev.eval_items(&req.items, vec![Subst::new()])?
        };
        let named: BTreeSet<_> = req.vars().into_iter().filter(|v| !v.is_gensym()).collect();
        Ok(substs.into_iter().map(|s| s.project(&named)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idl_object::Name;
    use idl_storage::IndexKind;

    fn stock() -> Engine {
        Engine::with_stock_universe(vec![("3/3/85", "hp", 50.0), ("3/3/85", "ibm", 210.0)])
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut e = stock();
        e.add_rules(".v.big(.s=S) <- .euter.r(.stkCode=S, .clsPrice>100) ;").unwrap();
        let snap = e.snapshot().unwrap();
        assert_eq!(snap.query("?.v.big(.s=S)").unwrap().len(), 1);
        // subsequent writes don't bleed into the held snapshot
        e.update("?.euter.r+(.date=3/4/85,.stkCode=sun,.clsPrice=300)").unwrap();
        assert!(e.query("?.v.big(.s=sun)").unwrap().is_true());
        assert_eq!(snap.query("?.v.big(.s=S)").unwrap().len(), 1);
        assert!(!snap.query("?.euter.r(.stkCode=sun)").unwrap().is_true());
    }

    #[test]
    fn snapshot_and_engine_queries_refuse_writes_and_clauses() {
        let mut e = stock();
        e.execute(crate::transparency::standard_update_programs()).unwrap();
        let snap = e.snapshot().unwrap();
        let call = "?.dbU.insStk(.stk=sun, .date=3/9/85, .price=1)";
        // a query item beside a call does not launder it
        let mixed = "?.euter.r(.stkCode=S), .dbU.delStk(.stk=hp)";
        for src in ["?.euter.r+(.a=1)", ".a.b(.x=X) <- .c.d(.x=X)", call, mixed] {
            assert_eq!(snap.query(src).unwrap_err().code(), "E-USAGE", "{src}");
            assert_eq!(e.query(src).unwrap_err().code(), "E-USAGE", "{src}");
        }
        assert!(!e.query("?.euter.r(.stkCode=sun)").unwrap().is_true());
        // update runs the call as the update it is
        assert!(e.update(call).unwrap().stats().unwrap().total() > 0);
    }

    #[test]
    fn a_republished_snapshot_starts_with_the_indexes_its_readers_built() {
        let mut e = stock();
        e.add_rules(".v.all(.s=S,.p=P) <- .euter.r(.stkCode=S,.clsPrice=P) ;").unwrap();
        let probe = "?.v.all(.s=hp,.p=P), .euter.r(.stkCode=hp,.clsPrice=P)";
        let first = e.snapshot().unwrap();
        let p = first.query(probe).unwrap();
        let euter = |s: &EngineSnapshot| s.store().index("euter", "r", "stkCode", IndexKind::Hash);
        let built = euter(&first).unwrap();
        // a write elsewhere: euter's index is shared as it is
        e.update("?.chwab.r+(.date=3/9/85, .hp=1)").unwrap();
        let second = e.snapshot().unwrap();
        assert!(Arc::ptr_eq(&built, &euter(&second).unwrap()));
        // a write to euter (and through the view to v.all): both indexes
        // are patched, and answer as the engine does
        e.update("?.euter.r-(.stkCode=hp), .euter.r+(.date=3/9/85,.stkCode=hp,.clsPrice=7)")
            .unwrap();
        let third = e.snapshot().unwrap();
        let v_all = third.store().index("v", "all", "s", IndexKind::Hash).unwrap();
        let rebuilt = idl_storage::index::Index::build(
            IndexKind::Hash,
            third.store().relation("v", "all").unwrap(),
            &Name::new("s"),
        );
        assert_eq!(*v_all, rebuilt);
        assert_eq!(third.query(probe).unwrap(), e.query(probe).unwrap());
        assert_ne!(third.query(probe).unwrap(), p);
    }

    #[test]
    fn snapshot_queries_match_engine_queries() {
        let mut e = stock();
        e.add_rules(".v.all(.s=S,.p=P) <- .euter.r(.stkCode=S,.clsPrice=P) ;").unwrap();
        let cache = std::sync::Mutex::new(PlanCache::new());
        let snap = e.snapshot().unwrap();
        for q in
            ["?.v.all(.s=S,.p=P)", "?.euter.r(.stkCode=S, .clsPrice>100)", "?.X.Y(.clsPrice=P)"]
        {
            assert_eq!(snap.query_cached(q, Some(&cache)).unwrap(), e.query(q).unwrap(), "{q}");
        }
    }
}
