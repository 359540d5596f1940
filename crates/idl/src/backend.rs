//! The unified engine facade: one object-safe surface over [`Engine`]
//! and [`DurableEngine`](crate::DurableEngine).
//!
//! Before this module existed the CLI, tests and benches all branched on
//! durability (`Engine` vs `DurableEngine`, each with slightly different
//! method sets). [`Backend`] collapses the two behind one trait so a
//! caller — the `idl-server` network front-end most of all — can hold a
//! `Box<dyn Backend + Send>` and never care where durability comes from:
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

use crate::engine::{Engine, EngineOptions};
use crate::error::EngineError;
use crate::outcome::Outcome;
use idl_eval::analyze::BindingIssue;
use idl_eval::rules::FixpointStats;
use idl_eval::{AnswerSet, Evaluator, PlanCache, ProgramRegistry, Subst};
use idl_lang::{parse_program, Request, Statement};
use idl_storage::{Store, Version};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One object-safe surface over the durable and in-memory engines.
///
/// Mutating entry points (`execute`, `update`) go through the durability
/// layer when the backend has one: a [`crate::DurableEngine`] logs and
/// fsyncs before acknowledging, a plain [`Engine`] just executes.
pub trait Backend {
    /// Parses and executes a multi-statement source text, one outcome per
    /// statement, stopping at the first error. Durable backends append
    /// every mutating request to the operation log before acknowledging.
    fn execute(&mut self, src: &str) -> Result<Vec<Outcome>, EngineError>;

    /// Executes a source text expected to contain exactly one pure-query
    /// request, returning its answers. Never logs.
    fn query(&mut self, src: &str) -> Result<AnswerSet, EngineError>;

    /// Executes a source text expected to contain exactly one request
    /// (usually mutating), returning its outcome. Durable backends log
    /// before acknowledging.
    fn update(&mut self, src: &str) -> Result<Outcome, EngineError>;

    /// Executes a batch of independent single-request updates as one
    /// group commit: each source is executed in order and a durable
    /// backend coalesces every successful mutation into a single log
    /// append and a single fsync before any of them is acknowledged
    /// (all-or-prefix on crash — see `DurableEngine`). The default
    /// implementation simply loops over [`Backend::update`]; the group
    /// never aborts early, so callers get one result per source.
    fn update_group(&mut self, srcs: &[String]) -> Vec<Result<Outcome, EngineError>> {
        srcs.iter().map(|src| self.update(src)).collect()
    }

    /// Executes one statement of the SQL-flavoured sugar surface.
    fn execute_sql(&mut self, src: &str) -> Result<Outcome, EngineError>;

    /// Re-derives all views; returns the fixpoint statistics.
    fn refresh_views(&mut self) -> Result<FixpointStats, EngineError>;

    /// Statistics of the most recent view materialisation that actually
    /// ran rules (the `--stats` output).
    fn stats(&self) -> &FixpointStats;

    /// A point-in-time read-only snapshot with views freshly
    /// materialised (an O(1) copy-on-write handle clone; see the module
    /// docs).
    fn snapshot(&mut self) -> Result<EngineSnapshot, EngineError>;

    /// Current engine options.
    fn options(&self) -> EngineOptions;

    /// Replaces the engine options.
    fn set_options(&mut self, options: EngineOptions);

    /// Writes a durable checkpoint (page-file commit + log rotation).
    /// Errors with `E-USAGE` on a backend without durability.
    fn checkpoint(&mut self) -> Result<Outcome, EngineError>;

    /// Whether mutations are durably logged.
    fn is_durable(&self) -> bool;

    /// Durability counters (log appends/syncs, checkpoints, recovery
    /// work, storage backend and buffer-pool telemetry) for durable
    /// backends; `None` without durability.
    fn durability_stats(&self) -> Option<idl_storage::DurabilityStats> {
        None
    }

    /// The configured checkpoint-storage backend of a durable backend;
    /// `None` without durability.
    fn storage_spec(&self) -> Option<idl_storage::StorageSpec> {
        None
    }

    /// Whether a durability failure has poisoned this backend (always
    /// `false` without durability).
    fn is_poisoned(&self) -> bool;

    /// Static binding analysis of a request source, without executing.
    fn analyze(&self, src: &str) -> Result<Vec<BindingIssue>, EngineError>;

    /// Planner/compiled-plan display for each request in `src`.
    fn explain(&self, src: &str) -> Result<String, EngineError>;

    /// The universe serialised as canonical JSON.
    fn universe_json(&self) -> Result<String, EngineError>;

    /// Saves the universe as a JSON snapshot file.
    fn save_snapshot(&self, path: &std::path::Path) -> Result<(), EngineError>;
}

impl Backend for Engine {
    fn execute(&mut self, src: &str) -> Result<Vec<Outcome>, EngineError> {
        Engine::execute(self, src)
    }

    fn query(&mut self, src: &str) -> Result<AnswerSet, EngineError> {
        Engine::query(self, src)
    }

    fn update(&mut self, src: &str) -> Result<Outcome, EngineError> {
        let mut outcomes = Engine::execute(self, src)?;
        match outcomes.len() {
            1 => Ok(outcomes.pop().unwrap()),
            n => Err(EngineError::Usage(format!("expected exactly one statement, found {n}"))),
        }
    }

    fn execute_sql(&mut self, src: &str) -> Result<Outcome, EngineError> {
        Engine::execute_sql(self, src)
    }

    fn refresh_views(&mut self) -> Result<FixpointStats, EngineError> {
        Engine::refresh_views(self)
    }

    fn stats(&self) -> &FixpointStats {
        self.last_fixpoint_stats()
    }

    fn snapshot(&mut self) -> Result<EngineSnapshot, EngineError> {
        self.refresh_views_if_stale()?;
        EngineSnapshot::of(self)
    }

    fn options(&self) -> EngineOptions {
        Engine::options(self)
    }

    fn set_options(&mut self, options: EngineOptions) {
        Engine::set_options(self, options)
    }

    fn checkpoint(&mut self) -> Result<Outcome, EngineError> {
        Err(EngineError::Usage(
            "checkpoint requires a durable backend (open one with DurableEngine::open)".into(),
        ))
    }

    fn is_durable(&self) -> bool {
        false
    }

    fn is_poisoned(&self) -> bool {
        false
    }

    fn analyze(&self, src: &str) -> Result<Vec<BindingIssue>, EngineError> {
        Engine::analyze(self, src)
    }

    fn explain(&self, src: &str) -> Result<String, EngineError> {
        Engine::explain(self, src)
    }

    fn universe_json(&self) -> Result<String, EngineError> {
        Engine::universe_json(self)
    }

    fn save_snapshot(&self, path: &std::path::Path) -> Result<(), EngineError> {
        Engine::save_snapshot(self, path)
    }
}

/// A point-in-time, read-only view of the universe.
///
/// Obtained from [`Backend::snapshot`]; holds its own [`Store`] built
/// from an O(1) copy-on-write clone of the universe tuple, so it is
/// unaffected by — and does not block — subsequent engine mutation.
/// Index/statistics caches are rebuilt lazily per snapshot and shared
/// between concurrent readers of the same snapshot (the store's caches
/// are internally synchronised, so `&EngineSnapshot` is `Sync`).
pub struct EngineSnapshot {
    store: Store,
    version: Version,
    opts: idl_eval::EvalOptions,
    maintained: idl_eval::MaintainedViews,
    /// The engine's update programs, so a call to one is refused.
    programs: Arc<ProgramRegistry>,
}

impl EngineSnapshot {
    /// Snapshots an engine's current universe (no refresh — callers that
    /// need fresh views go through [`Backend::snapshot`]).
    pub(crate) fn of(engine: &Engine) -> Result<Self, EngineError> {
        Ok(EngineSnapshot {
            store: Store::from_universe(engine.store().universe().clone())?,
            version: engine.store().version(),
            opts: engine.options().eval,
            maintained: engine.maintained_views().clone(),
            programs: engine.programs_shared(),
        })
    }

    /// The store version this snapshot was taken at.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Per-view support bookkeeping carried from the engine's repair
    /// state — the views this snapshot serves were repaired (or rebuilt)
    /// up to [`EngineSnapshot::version`].
    pub fn maintained(&self) -> &idl_eval::MaintainedViews {
        &self.maintained
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
        let mut stmts = parse_program(src)?;
        let req = match (stmts.pop(), stmts.is_empty()) {
            (Some(Statement::Request(req)), true) => req,
            (Some(_), true) => {
                return Err(EngineError::Usage("snapshots answer requests, not clauses".into()))
            }
            _ => return Err(EngineError::Usage("expected exactly one statement".into())),
        };
        self.query_request(&req, cache)
    }

    /// Evaluates one parsed pure-query request against the snapshot. A
    /// signed item or a call to a registered update program is refused
    /// with `E-USAGE`: both write.
    pub fn query_request(
        &self,
        req: &Request,
        cache: Option<&std::sync::Mutex<PlanCache>>,
    ) -> Result<AnswerSet, EngineError> {
        let calls_program = || req.items.iter().any(|i| self.programs.match_call(i).is_some());
        if !req.is_pure_query() || calls_program() {
            return Err(EngineError::Usage(
                "snapshot reads are read-only; send updates to the engine".into(),
            ));
        }
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
    use crate::DurableEngine;

    fn stock() -> Engine {
        Engine::with_stock_universe(vec![("3/3/85", "hp", 50.0), ("3/3/85", "ibm", 210.0)])
    }

    #[test]
    fn dyn_backend_unifies_engine_and_durable() {
        let dir = std::env::temp_dir().join(format!("idl-backend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut backends: Vec<Box<dyn Backend>> =
            vec![Box::new(Engine::new()), Box::new(DurableEngine::open(&dir).unwrap())];
        for b in &mut backends {
            b.execute(".v.all(.a=A) <- .db.r(.a=A) ;").unwrap();
            let out = b.update("?.db.r+(.a=1)").unwrap();
            assert_eq!(out.stats().unwrap().inserted, 1);
            assert!(b.query("?.v.all(.a=1)").unwrap().is_true());
            assert!(!b.is_poisoned());
        }
        assert!(!backends[0].is_durable());
        assert!(backends[1].is_durable());
        // checkpoint: durable-only
        assert_eq!(backends[0].checkpoint().unwrap_err().code(), "E-USAGE");
        assert!(matches!(backends[1].checkpoint().unwrap(), Outcome::Checkpointed { lsn: 1 }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut e = stock();
        e.add_rules(".v.big(.s=S) <- .euter.r(.stkCode=S, .clsPrice>100) ;").unwrap();
        let snap = Backend::snapshot(&mut e).unwrap();
        assert_eq!(snap.query("?.v.big(.s=S)").unwrap().len(), 1);
        // subsequent writes don't bleed into the held snapshot
        e.update("?.euter.r+(.date=3/4/85,.stkCode=sun,.clsPrice=300)").unwrap();
        assert!(e.query("?.v.big(.s=sun)").unwrap().is_true());
        assert_eq!(snap.query("?.v.big(.s=S)").unwrap().len(), 1);
        assert!(!snap.query("?.euter.r(.stkCode=sun)").unwrap().is_true());
    }

    #[test]
    fn snapshot_rejects_updates_and_clauses() {
        let mut e = stock();
        let snap = Backend::snapshot(&mut e).unwrap();
        assert_eq!(snap.query("?.euter.r+(.a=1)").unwrap_err().code(), "E-USAGE");
        assert_eq!(snap.query(".a.b(.x=X) <- .c.d(.x=X)").unwrap_err().code(), "E-USAGE");
    }

    #[test]
    fn snapshot_refuses_update_program_calls() {
        let mut e = stock();
        e.execute(crate::transparency::standard_update_programs()).unwrap();
        let snap = Backend::snapshot(&mut e).unwrap();
        let call = "?.dbU.insStk(.stk=sun, .date=3/9/85, .price=1)";
        assert_eq!(snap.query(call).unwrap_err().code(), "E-USAGE");
        // a query item beside the call does not launder it
        let mixed = "?.euter.r(.stkCode=S), .dbU.delStk(.stk=hp)";
        assert_eq!(snap.query(mixed).unwrap_err().code(), "E-USAGE");
        assert!(!snap.query("?.euter.r(.stkCode=sun)").unwrap().is_true());
        // the engine itself runs the call as the update it is
        assert!(e.update(call).unwrap().total() > 0);
    }

    #[test]
    fn snapshot_queries_match_engine_queries() {
        let mut e = stock();
        e.add_rules(".v.all(.s=S,.p=P) <- .euter.r(.stkCode=S,.clsPrice=P) ;").unwrap();
        let cache = std::sync::Mutex::new(PlanCache::new());
        let snap = Backend::snapshot(&mut e).unwrap();
        for q in
            ["?.v.all(.s=S,.p=P)", "?.euter.r(.stkCode=S, .clsPrice>100)", "?.X.Y(.clsPrice=P)"]
        {
            assert_eq!(snap.query_cached(q, Some(&cache)).unwrap(), e.query(q).unwrap(), "{q}");
        }
    }
}
