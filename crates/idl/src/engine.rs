//! The engine: store + view catalog + program registry + execution loop,
//! and — when opened on a directory — its durability.

use crate::backend::EngineSnapshot;
use crate::durable::{not_durable, Durability};
use crate::error::EngineError;
use crate::outcome::Outcome;
use idl_eval::analyze::BindingIssue;
use idl_eval::rules::{DerivedCatalog, DerivedScope, FixpointStats};
use idl_eval::update::UpdateStats;
use idl_eval::{diff_update, MaintainedViews, PredPat};
use idl_eval::{run_request, AnswerSet, EvalOptions, PlanCache, ProgramRegistry, RuleEngine};
use idl_lang::{parse_program, Request, Rule, Statement};
use idl_object::Value;
use idl_storage::schema::{self, RelationSchema, SchemaSet, Violation};
use idl_storage::{ChangeScope, Store, Version};
use std::sync::Arc;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Evaluator options (planner / index toggles, result limit).
    pub eval: EvalOptions,
    /// Refresh stale materialised views automatically before each request
    /// that may read a view (on by default); a request that only writes
    /// base data leaves the repair to the next read. When off, call
    /// [`Engine::refresh_views`] manually.
    pub auto_refresh: bool,
    /// No effect: [`EvalOptions::semi_naive`] alone selects the fixpoint
    /// schedule. Kept because the benchmark builds this struct by literal.
    pub semi_naive: bool,
    /// No effect: [`EvalOptions::maintain`] alone chooses delta repair or
    /// full rebuild. Kept because the benchmark builds this struct by
    /// literal.
    pub incremental_refresh: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            eval: EvalOptions::default(),
            auto_refresh: true,
            semi_naive: true,
            incremental_refresh: true,
        }
    }
}

impl EngineOptions {
    /// A builder starting from the default configuration. This is the one
    /// construction path shared by CLI flag parsing and the server config
    /// (see [`EngineOptionsBuilder`]).
    pub fn builder() -> EngineOptionsBuilder {
        EngineOptionsBuilder::default()
    }

    /// A builder seeded from this configuration — the idiom for adjusting
    /// a live engine: `e.set_options(e.options().rebuild().threads(4).build())`.
    pub fn rebuild(self) -> EngineOptionsBuilder {
        EngineOptionsBuilder { engine: self, ..EngineOptionsBuilder::default() }
    }
}

/// The single builder behind every engine configuration path.
///
/// Collapses what used to be scattered `with_*` methods on
/// [`EngineOptions`] and [`crate::DurabilityOptions`]: the CLI's flag
/// parser, the server's config file/flags, and tests all construct from
/// this one type, then split the result with [`EngineOptionsBuilder::build`]
/// (engine side) and [`EngineOptionsBuilder::durability`] (log side).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineOptionsBuilder {
    engine: EngineOptions,
    durability: crate::durable::DurabilityOptions,
}

impl EngineOptionsBuilder {
    /// Fixpoint worker threads for view materialisation (the CLI's
    /// `--threads`; `1` forces the sequential path).
    pub fn threads(mut self, threads: usize) -> Self {
        self.engine.eval = self.engine.eval.with_threads(threads);
        self
    }

    /// Plan compilation on/off (the CLI's `--no-compile` selects the
    /// tree-walk reference interpreter).
    pub fn compile(mut self, compile: bool) -> Self {
        self.engine.eval = self.engine.eval.with_compile(compile);
        self
    }

    /// Abort any request whose intermediate result exceeds this many
    /// substitutions (`E-LIMIT`); the server sets this per config.
    pub fn max_results(mut self, limit: Option<usize>) -> Self {
        self.engine.eval.max_results = limit;
        self
    }

    /// Automatic view refresh before requests that may read a view (on by
    /// default).
    pub fn auto_refresh(mut self, on: bool) -> Self {
        self.engine.auto_refresh = on;
        self
    }

    /// Relation-granularity semi-naive fixpoints (on by default; off is
    /// the naive re-run-everything reference mode).
    pub fn semi_naive(mut self, on: bool) -> Self {
        self.engine.semi_naive = on;
        self.engine.eval = self.engine.eval.with_semi_naive(on);
        self
    }

    /// Sets [`EngineOptions::incremental_refresh`], which has no effect.
    pub fn incremental_refresh(mut self, on: bool) -> Self {
        self.engine.incremental_refresh = on;
        self
    }

    /// Incremental view repair (on by default): stale views catch up with
    /// the base changes since they were last fresh through the delta
    /// pass. Off rebuilds every view instead, the refresh-the-world
    /// differential reference mode.
    pub fn maintain(mut self, on: bool) -> Self {
        self.engine.eval = self.engine.eval.with_maintain(on);
        self
    }

    /// Log/checkpoint fsync policy for durable backends (the CLI's
    /// `--fsync`).
    pub fn sync(mut self, sync: crate::durable::SyncPolicy) -> Self {
        self.durability.sync = sync;
        self
    }

    /// Full-vs-in-place checkpoint policy for durable backends (the CLI's
    /// `--checkpoint full`).
    pub fn checkpoint_policy(mut self, policy: crate::durable::CheckpointPolicy) -> Self {
        self.durability.checkpoint = policy;
        self
    }

    /// Buffer-pool capacity in pages of a durable backend's page file
    /// (the CLI's `--pool-pages`).
    pub fn pool_pages(mut self, pages: usize) -> Self {
        self.durability.storage = idl_storage::StorageSpec::Paged { pool_pages: pages };
        self
    }

    /// The engine-side configuration.
    pub fn build(self) -> EngineOptions {
        self.engine
    }

    /// The durability-side configuration (pass to
    /// [`Engine::open_with_vfs`]).
    pub fn durability(self) -> crate::durable::DurabilityOptions {
        self.durability
    }
}

/// The IDL engine (see the crate docs for an overview): in memory when
/// built with [`Engine::new`] and friends, durable when opened on a
/// directory with [`Engine::open`]. The same front doors serve both; a
/// durable engine logs every request that wrote before acknowledging it.
pub struct Engine {
    store: Store,
    rules: Vec<Rule>,
    compiled: Option<RuleEngine>,
    /// Shared with every [`crate::backend::EngineSnapshot`], which refuses
    /// program calls.
    programs: Arc<ProgramRegistry>,
    derived: DerivedCatalog,
    options: EngineOptions,
    /// The freshness point: the store version at which the views last
    /// matched the base data, and an O(1) copy-on-write clone of the
    /// universe at that version. Repair diffs the current universe
    /// against it to recover the row delta of every write since. `None`
    /// means the views must be rebuilt.
    fresh: Option<(Version, Value)>,
    /// Declared keys/types/foreign-keys, checked after each update request.
    schemas: SchemaSet,
    /// Maintain the queryable `sys` catalog database.
    sys_enabled: bool,
    /// Memoized physical plans of request bodies, keyed by canonical
    /// expression hash. Rule bodies compile once inside `compiled`.
    plan_cache: PlanCache,
    /// Statistics of the most recent view materialisation (the `--stats`
    /// CLI output); default until the first refresh actually runs rules.
    last_stats: FixpointStats,
    /// How many repairs the delta pass absorbed (vs falling back to a
    /// full rebuild) since startup.
    maintenance_runs: u64,
    /// The page file and operation log of an engine opened on a
    /// directory; `None` in memory.
    pub(crate) durable: Option<Box<Durability>>,
    /// The store of the snapshot last published, whose indexes the next
    /// snapshot adopts.
    published: Option<Arc<Store>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine over an empty universe.
    pub fn new() -> Self {
        Engine::from_store(Store::new())
    }

    /// An engine over an existing universe object.
    pub fn from_universe(universe: Value) -> Result<Self, EngineError> {
        Ok(Engine::from_store(Store::from_universe(universe)?))
    }

    /// An engine over an existing store.
    pub fn from_store(store: Store) -> Self {
        Engine {
            store,
            rules: Vec::new(),
            compiled: None,
            programs: Arc::default(),
            derived: DerivedCatalog::empty(),
            options: EngineOptions::default(),
            fresh: None,
            schemas: SchemaSet::new(),
            sys_enabled: false,
            plan_cache: PlanCache::new(),
            last_stats: FixpointStats::default(),
            maintenance_runs: 0,
            durable: None,
            published: None,
        }
    }

    /// An engine preloaded with the paper's three-schema stock universe.
    pub fn with_stock_universe<'a, I>(quotes: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, &'a str, f64)> + Clone,
    {
        let u = idl_object::universe::stock_universe(quotes);
        Engine::from_store(Store::from_universe(u).expect("stock universe is a tuple"))
    }

    /// The underlying store (read-only).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Current options.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    /// Replaces the options (e.g. to run in naive mode for an ablation).
    pub fn set_options(&mut self, options: EngineOptions) {
        self.options = options;
    }

    /// The relation-granular catalog of view-materialised state.
    pub fn derived_catalog(&self) -> &DerivedCatalog {
        &self.derived
    }

    /// Installed rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The program registry.
    pub fn programs(&self) -> &ProgramRegistry {
        &self.programs
    }

    /// The program registry, shared (an O(1) handle clone).
    pub(crate) fn programs_shared(&self) -> Arc<ProgramRegistry> {
        Arc::clone(&self.programs)
    }

    // ---- statement execution -------------------------------------------
    //
    // One front door per verb. Each request runs through `run`; a durable
    // engine appends the canonical text of every request that wrote to
    // its log (and syncs it) before the outcome is returned.

    /// Parses and executes a multi-statement source text, returning one
    /// outcome per statement. Execution stops at the first error.
    pub fn execute(&mut self, src: &str) -> Result<Vec<Outcome>, EngineError> {
        let stmts = parse_program(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.execute_statement(stmt)?);
        }
        Ok(out)
    }

    /// Executes one parsed statement. Rules and program clauses install
    /// in memory only: a durable engine reinstalls them through the
    /// `setup` callback of [`Engine::open_with`].
    pub fn execute_statement(&mut self, stmt: Statement) -> Result<Outcome, EngineError> {
        self.check_poisoned()?;
        match stmt {
            Statement::Request(req) => {
                let (answers, stats) = self.run(&req)?;
                if let Some(d) = self.durable.as_deref_mut().filter(|_| stats.total() > 0) {
                    d.append(&[req.to_string()])?;
                }
                Ok(Outcome::Answers { answers, stats })
            }
            Statement::Rule(rule) => {
                self.add_rule(rule)?;
                Ok(Outcome::RuleAdded)
            }
            Statement::Program(clause) => {
                Arc::make_mut(&mut self.programs).register(&clause)?;
                Ok(Outcome::ProgramRegistered)
            }
        }
    }

    /// [`Engine::execute_statement`] under the name the benchmark
    /// package calls it by.
    pub fn apply(&mut self, stmt: Statement) -> Result<Outcome, EngineError> {
        self.execute_statement(stmt)
    }

    /// Executes a source text holding exactly one request — a query, an
    /// update or a program call — and returns its outcome. Anything else
    /// is refused with `E-USAGE` before it runs.
    pub fn update(&mut self, src: &str) -> Result<Outcome, EngineError> {
        self.execute_statement(Statement::Request(one_request(src)?))
    }

    /// Executes single-request updates in order — one caller's dependent
    /// writes or several callers' — with **one** coalesced log append and
    /// **one** fsync covering every write in the group (group commit) when
    /// durable. Each entry sees the writes of the entries before it; none
    /// repairs the views unless it may read one, so the group leaves one
    /// repair to the next read. Results are positional; a failing entry
    /// never aborts the rest, and no entry is acknowledged
    /// before the whole group is durable. If the append or sync fails,
    /// every entry that wrote is un-acknowledged (its `Ok` becomes the
    /// durability error), the partial append is truncated back to the
    /// last synced prefix, and the engine poisons — the single-update
    /// fail-stop discipline applied to the group as a unit. Crash-wise the
    /// log can only hold an in-order *prefix* of the group's records
    /// (framed records land sequentially and recovery truncates the torn
    /// tail), so a crash inside the window loses only unacknowledged
    /// updates.
    pub fn update_group(&mut self, srcs: &[String]) -> Vec<Result<Outcome, EngineError>> {
        if let Err(e) = self.check_poisoned() {
            return srcs.iter().map(|_| Err(e.clone())).collect();
        }
        let mut results = Vec::with_capacity(srcs.len());
        // the result index and canonical text of each request that wrote
        let (mut wrote, mut records) = (Vec::new(), Vec::new());
        for (i, src) in srcs.iter().enumerate() {
            results.push(one_request(src).and_then(|req| {
                let (answers, stats) = self.run(&req)?;
                if self.durable.is_some() && stats.total() > 0 {
                    wrote.push(i);
                    records.push(req.to_string());
                }
                Ok(Outcome::Answers { answers, stats })
            }));
        }
        let Some(d) = self.durable.as_deref_mut().filter(|_| !records.is_empty()) else {
            return results;
        };
        match d.append(&records) {
            Ok(()) => d.count_group(records.len()),
            Err(e) => {
                for &i in &wrote {
                    results[i] = Err(e.clone());
                }
            }
        }
        results
    }

    /// Executes a source text holding exactly one read-only request and
    /// returns its answers. A signed item or a call to a registered
    /// update program is refused with `E-USAGE` and no effect: writes go
    /// through [`Engine::update`].
    pub fn query(&mut self, src: &str) -> Result<AnswerSet, EngineError> {
        let req = one_request(src)?;
        read_only(&req, &self.programs)?;
        self.check_poisoned()?;
        Ok(self.run(&req)?.0)
    }

    /// Executes one statement of the SQL-flavoured sugar surface
    /// (§8's "language with enough syntactic sugar"), translating it to an
    /// IDL request. Higher-order table names work:
    /// `SELECT S, clsPrice FROM ource.S WHERE clsPrice > 200`. Refused
    /// with `E-USAGE` on a durable engine.
    pub fn execute_sql(&mut self, src: &str) -> Result<Outcome, EngineError> {
        if self.durable.is_some() {
            return Err(EngineError::Usage(
                "SQL-sugar mutations would bypass the operation log; not available on a durable engine"
                    .into(),
            ));
        }
        let stmt = idl_lang::sugar::parse_sugar(src)?;
        self.execute_statement(stmt)
    }

    /// Checkpoints under the configured [`crate::CheckpointPolicy`]: an
    /// in-place commit of only the slots dirtied since the last checkpoint
    /// when the policy allows, a full rewrite of the page file otherwise.
    /// Either way the log rotates empty afterwards — recovery is page
    /// file + log tail, each step individually atomic, and replay skips
    /// records the page file covers, so a crash anywhere in between is
    /// safe. `E-USAGE` in memory.
    pub fn checkpoint(&mut self) -> Result<Outcome, EngineError> {
        self.commit_checkpoint(false)
    }

    /// Forces a checkpoint that rewrites the whole page file (the
    /// `--checkpoint full` escape hatch). `E-USAGE` in memory.
    pub fn checkpoint_full(&mut self) -> Result<Outcome, EngineError> {
        self.commit_checkpoint(true)
    }

    fn commit_checkpoint(&mut self, full: bool) -> Result<Outcome, EngineError> {
        // Persist the rule fingerprint only when the views actually match
        // the universe being committed — adopting it at the next open
        // would otherwise claim freshness the data lacks.
        let state = self.views_fresh_now().then(|| MaintainedViews::for_rules(&self.rules));
        let d = self.durable.as_deref_mut().ok_or_else(|| not_durable("checkpoint"))?;
        d.checkpoint(&mut self.store, state.as_ref(), full)
    }

    /// A point-in-time read-only snapshot with views freshly
    /// materialised: an O(1) copy-on-write handle clone (see
    /// [`crate::backend`]).
    pub fn snapshot(&mut self) -> Result<EngineSnapshot, EngineError> {
        self.check_poisoned()?;
        self.refresh_views_if_stale()?;
        let snapshot = EngineSnapshot::of(self, self.published.as_deref())?;
        self.published = Some(Arc::clone(&snapshot.store));
        Ok(snapshot)
    }

    /// Refuses work on a durable engine after a log failure: its
    /// in-memory state holds a mutation the log could not acknowledge, so
    /// even answers would reflect un-durable data.
    fn check_poisoned(&self) -> Result<(), EngineError> {
        self.durable.as_ref().map_or(Ok(()), |d| d.check_poisoned())
    }

    /// Runs one request, in the store's one transaction: an error, a
    /// refused write or a declared-schema violation anywhere in it, program
    /// bodies included, rolls the whole request back. Whether it wrote is
    /// read from its outcome, never from its syntax: a §7.1 program call
    /// carries no sign but writes.
    /// Its base changes stay in the store journal until a request that
    /// may read a view, or [`Engine::snapshot`], repairs the views: one
    /// repair covers every write since they were last fresh.
    fn run(&mut self, req: &Request) -> Result<(AnswerSet, UpdateStats), EngineError> {
        // Without views the refresh only truncates the journal.
        if self.options.auto_refresh && (!self.has_views() || self.may_read_views(req)) {
            self.refresh_views_if_stale()?;
        } else {
            // The writes wait for the next view read: one journal record
            // per scope they touched is all the repair needs.
            self.store.compact_journal();
        }
        let outcome = run_request(
            &mut self.store,
            &self.programs,
            &self.derived,
            &self.schemas,
            req,
            self.options.eval,
            Some(&mut self.plan_cache),
        )?;
        Ok((outcome.answers, outcome.stats))
    }

    /// Whether anything reads the journal to catch up: rules or the `sys`
    /// catalog database.
    fn has_views(&self) -> bool {
        self.compiled.is_some() || self.sys_enabled
    }

    /// Whether `req` may read view-materialised state: its static read set
    /// (see [`ProgramRegistry::read_set`]) overlaps the derived catalog,
    /// or `sys` while the catalog database is enabled. A variable database
    /// position overlaps both, and a request the analysis cannot read
    /// counts as a view read.
    fn may_read_views(&self, req: &Request) -> bool {
        let Some(reads) = self.programs.read_set(&req.items) else { return true };
        let reads_sys = |r: &PredPat| r.db.as_ref().is_none_or(|db| db.as_str() == "sys");
        reads.iter().any(|r| self.derived.overlaps(r) || (self.sys_enabled && reads_sys(r)))
    }

    /// The base-data changes journalled since the freshness point, or
    /// `None` when there is no freshness point. Writes into `sys` and into
    /// derived state do not count.
    fn base_changes_since_fresh(&self) -> Option<Vec<ChangeScope>> {
        let (v, _) = self.fresh.as_ref()?;
        let base = self.store.changes_since(*v).iter().filter(|c| {
            let sys_write =
                matches!(&c.scope, ChangeScope::Database { db } if db.as_str() == "sys");
            !sys_write && self.derived.is_base_change(&c.scope)
        });
        Some(base.map(|c| c.scope.clone()).collect())
    }

    /// Whether the materialised views match the store right now (a
    /// freshness point and no base-data change journalled since). Durable
    /// checkpoints use this to decide whether the maintenance state is
    /// worth persisting alongside the universe.
    pub fn views_fresh_now(&self) -> bool {
        self.base_changes_since_fresh().is_some_and(|changes| changes.is_empty())
    }

    /// Moves the freshness point to the store's current version and
    /// drops the journal records before it: view repair reads the journal
    /// from the freshness point on, and a durable engine's store keeps
    /// what its next in-place checkpoint reads pinned.
    fn mark_fresh(&mut self) {
        let version = self.store.version();
        self.fresh = Some((version, self.store.universe().clone()));
        self.store.checkpoint(version);
    }

    /// Repairs the views with the delta pass: diffs the universe at the
    /// freshness point against the current one over `changes` and drives
    /// the row delta through the rule strata. Returns the pass's
    /// statistics once the views are fresh; `None` means the change is not
    /// expressible as row edits or the pass bailed, and the caller must
    /// rebuild.
    fn repair_views(
        &mut self,
        changes: &[ChangeScope],
    ) -> Result<Option<FixpointStats>, EngineError> {
        let Some((_, pre_universe)) = &self.fresh else { return Ok(None) };
        let Some(delta) = diff_update(pre_universe, self.store.universe(), changes) else {
            return Ok(None);
        };
        if delta.is_empty() {
            // A write that left the rows as they were (a retraction that
            // matched nothing, a rolled-back request): nothing to repair.
            self.mark_fresh();
            return Ok(Some(FixpointStats::default()));
        }
        let Some(compiled) = &self.compiled else { return Ok(None) };
        let stats = match compiled.maintain(&mut self.store, &delta, self.options.eval) {
            Ok(Some(stats)) => stats,
            Ok(None) => return Ok(None),
            Err(e) => {
                // A failed pass may leave derived state half-applied.
                self.fresh = None;
                return Err(e.into());
            }
        };
        self.install_sys_if_enabled()?;
        self.mark_fresh();
        self.maintenance_runs += 1;
        self.last_stats = stats.clone();
        Ok(Some(stats))
    }

    /// Adopts the view state a durable checkpoint recovered: when its rule
    /// fingerprint matches the installed rules, the recovered views are
    /// fresh. Returns `false` (and leaves the views stale, so the first
    /// read rebuilds them) otherwise. The `sys` catalog, when enabled, is
    /// rebuilt first: the schemas `setup` declared may differ from those
    /// the checkpoint's catalog describes.
    pub fn adopt_maintained_views(&mut self, state: MaintainedViews) -> bool {
        if !state.matches_rules(&self.rules) {
            return false;
        }
        if self.install_sys_if_enabled().is_err() {
            return false;
        }
        self.mark_fresh();
        true
    }

    /// How many repairs the delta pass absorbed since startup (the rest
    /// fell back to a full rebuild).
    pub fn maintenance_runs(&self) -> u64 {
        self.maintenance_runs
    }

    // ---- declared schemas & system catalog --------------------------------

    /// Declares key/type/foreign-key constraints for a relation (§2's
    /// "other metadata" extension). Future update requests that would
    /// violate them are rolled back with [`EngineError::Schema`]. Fails if
    /// the *current* contents already violate the declaration.
    pub fn declare_schema(
        &mut self,
        db: impl Into<idl_object::Name>,
        rel: impl Into<idl_object::Name>,
        schema: RelationSchema,
    ) -> Result<(), EngineError> {
        let db = db.into();
        let rel = rel.into();
        let mut candidate = self.schemas.clone();
        candidate.declare(db, rel, schema);
        let violations = candidate.check(&self.store);
        if !violations.is_empty() {
            return Err(EngineError::Schema(violations));
        }
        self.schemas = candidate;
        self.install_sys_if_enabled()
    }

    /// Reinstalls the `sys` catalog when it is enabled. A declaration
    /// changes no data, so the views keep their freshness point: writes
    /// into `sys` are not base changes.
    fn install_sys_if_enabled(&mut self) -> Result<(), EngineError> {
        if self.sys_enabled {
            schema::install_sys_catalog(&mut self.store, &self.schemas)?;
        }
        Ok(())
    }

    /// Declared schemas.
    pub fn schemas(&self) -> &SchemaSet {
        &self.schemas
    }

    /// Checks all declared constraints right now.
    pub fn check_schemas(&self) -> Vec<Violation> {
        self.schemas.check(&self.store)
    }

    /// Turns on the queryable `sys` catalog database, installed now and
    /// refreshed together with the views: `sys.databases`,
    /// `sys.relations`, `sys.attributes`, `sys.keys`, `sys.types`. The
    /// views keep their freshness point.
    pub fn enable_sys_catalog(&mut self) -> Result<(), EngineError> {
        self.sys_enabled = true;
        self.install_sys_if_enabled()
    }

    // ---- rules / views ---------------------------------------------------

    /// Installs one rule (revalidating stratification over the whole set).
    pub fn add_rule(&mut self, rule: Rule) -> Result<(), EngineError> {
        let mut candidate = self.rules.clone();
        candidate.push(rule);
        let engine = RuleEngine::new(candidate.clone())?;
        self.derived = engine.derived_catalog();
        self.compiled = Some(engine);
        self.rules = candidate;
        self.fresh = None;
        Ok(())
    }

    /// Installs every rule in a source text (other statements rejected).
    pub fn add_rules(&mut self, src: &str) -> Result<usize, EngineError> {
        let stmts = parse_program(src)?;
        let mut n = 0;
        for stmt in stmts {
            match stmt {
                Statement::Rule(r) => {
                    self.add_rule(r)?;
                    n += 1;
                }
                _ => {
                    return Err(EngineError::Usage(
                        "add_rules accepts only `head <- body` statements".into(),
                    ))
                }
            }
        }
        Ok(n)
    }

    /// Re-derives all views from scratch: drops every derived database and
    /// runs the stratified fixpoint. Returns the fixpoint statistics.
    pub fn refresh_views(&mut self) -> Result<FixpointStats, EngineError> {
        let Some(compiled) = &self.compiled else {
            self.install_sys_if_enabled()?;
            self.mark_fresh();
            return Ok(FixpointStats::default());
        };
        // Clear exactly the derived state: whole databases for
        // higher-order views, individual relations otherwise (base
        // relations sharing the database survive).
        let entries: Vec<(String, DerivedScope)> = self
            .derived
            .iter()
            .map(|(db, scope)| (db.as_str().to_string(), scope.clone()))
            .collect();
        for (db, scope) in entries {
            match scope {
                DerivedScope::WholeDb => {
                    if self.store.has_database(&db) {
                        self.store.drop_database(&db)?;
                    }
                }
                DerivedScope::Rels(rels) => {
                    for rel in rels {
                        if self.store.relation(&db, rel.as_str()).is_ok() {
                            self.store.drop_relation(&db, rel.as_str())?;
                        }
                    }
                }
            }
        }
        let stats = compiled.materialize(&mut self.store, self.options.eval)?;
        self.install_sys_if_enabled()?;
        self.mark_fresh();
        self.last_stats = stats.clone();
        Ok(stats)
    }

    /// Statistics of the most recent view materialisation that actually
    /// ran rules (full or incremental). Default-valued until then. This is
    /// what `idl --stats` prints, including the structural-sharing
    /// counters ([`FixpointStats::sharing`]).
    pub fn last_fixpoint_stats(&self) -> &FixpointStats {
        &self.last_stats
    }

    /// Brings the views up to date with every base change since the
    /// freshness point: nothing when no base data changed, the delta pass when
    /// [`EvalOptions::maintain`] is on and the change is expressible as
    /// row edits, a full [`Engine::refresh_views`] otherwise. This is the
    /// one way views catch up with writes; requests that may read a view
    /// (with `auto_refresh`) and [`Engine::snapshot`] call it.
    pub fn refresh_views_if_stale(&mut self) -> Result<FixpointStats, EngineError> {
        if !self.has_views() {
            self.store.checkpoint(self.store.version());
            return Ok(FixpointStats::default());
        }
        let Some(changes) = self.base_changes_since_fresh() else {
            return self.refresh_views();
        };
        if changes.is_empty() {
            return Ok(FixpointStats::default());
        }
        if self.options.eval.maintain {
            if let Some(stats) = self.repair_views(&changes)? {
                return Ok(stats);
            }
        }
        self.refresh_views()
    }

    // ---- tooling ----------------------------------------------------------

    /// Static binding analysis of a request source (§7.1's "compile time
    /// analysis"). Returns definite problems without executing anything:
    /// variables used unbound where groundness is required, and program
    /// call sites violating their binding signatures.
    pub fn analyze(&self, src: &str) -> Result<Vec<BindingIssue>, EngineError> {
        let stmts = parse_program(src)?;
        let mut issues = Vec::new();
        for stmt in stmts {
            if let Statement::Request(req) = stmt {
                issues.extend(idl_eval::analyze::analyze_request(&req));
            }
        }
        Ok(issues)
    }

    /// Static program-call validation for a request source: every item
    /// that names a registered update program is checked against its
    /// signature without executing (§7.1's call-validity analysis).
    pub fn analyze_calls(&self, src: &str) -> Result<Vec<String>, EngineError> {
        let stmts = parse_program(src)?;
        let mut issues = Vec::new();
        for stmt in stmts {
            if let Statement::Request(req) = stmt {
                for item in &req.items {
                    if let Some((key, args)) = self.programs.match_call(item) {
                        issues.extend(self.programs.static_call_issues(&key, args));
                    }
                }
            }
        }
        Ok(issues)
    }

    /// Shows, for each request item, the planner's conjunct ordering and
    /// the compiled physical plan (the `idl --explain` output; used for
    /// debugging and the ablation write-ups). Update items execute through
    /// the interpreter and are shown unplanned.
    pub fn explain(&self, src: &str) -> Result<String, EngineError> {
        let stmts = parse_program(src)?;
        let mut out = String::new();
        for stmt in stmts {
            if let Statement::Request(req) = stmt {
                for (i, item) in req.items.iter().enumerate() {
                    let planned = idl_eval::plan::plan_query_expr(item);
                    out.push_str(&format!("item {}: {}\n", i + 1, planned));
                    if item.is_query() {
                        let plan = idl_eval::compile_items(
                            std::slice::from_ref(item),
                            self.options.eval.with_compile(true),
                        )?;
                        for line in plan.explain().lines() {
                            out.push_str(&format!("  {line}\n"));
                        }
                    } else {
                        out.push_str("  (update item: interpreted, not compiled)\n");
                    }
                }
            }
        }
        Ok(out)
    }

    /// The memoized request-plan cache's counters (hits, misses, resident
    /// plans).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Saves the universe as a JSON snapshot.
    pub fn save_snapshot(&self, path: &std::path::Path) -> Result<(), EngineError> {
        idl_storage::persist::save_snapshot(&self.store, path)?;
        Ok(())
    }

    /// Loads a snapshot into a fresh engine (no rules or programs).
    pub fn load_snapshot(path: &std::path::Path) -> Result<Self, EngineError> {
        Ok(Engine::from_store(idl_storage::persist::load_snapshot(path)?))
    }

    /// The universe serialised as canonical JSON — what a snapshot would
    /// contain. The crash battery uses this for byte-identical
    /// round-trip checks between a recovered engine and its reference.
    pub fn universe_json(&self) -> Result<String, EngineError> {
        Ok(idl_storage::persist::to_json(&self.store)?)
    }
}

/// Parses a source text that must hold exactly one request; anything
/// else is `E-USAGE`, refused before any of it runs.
pub(crate) fn one_request(src: &str) -> Result<Request, EngineError> {
    let mut stmts = parse_program(src)?;
    match (stmts.pop(), stmts.is_empty()) {
        (Some(Statement::Request(req)), true) => Ok(req),
        (Some(Statement::Rule(_) | Statement::Program(_)), true) => Err(EngineError::Usage(
            "expected a request, found a clause (install clauses with execute)".into(),
        )),
        (last, _) => Err(EngineError::Usage(format!(
            "expected exactly one statement, found {}",
            stmts.len() + usize::from(last.is_some())
        ))),
    }
}

/// Refuses, with `E-USAGE`, a request that may write: a signed item or a
/// call to a registered update program. The one read-only check behind
/// [`Engine::query`] and [`EngineSnapshot::query_request`].
pub(crate) fn read_only(req: &Request, programs: &ProgramRegistry) -> Result<(), EngineError> {
    if !req.is_pure_query() || req.items.iter().any(|i| programs.match_call(i).is_some()) {
        return Err(EngineError::Usage(
            "queries are read-only; send updates and program calls through update".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idl_object::Value;

    fn engine() -> Engine {
        Engine::with_stock_universe(vec![
            ("3/3/85", "hp", 50.0),
            ("3/3/85", "ibm", 160.0),
            ("3/4/85", "hp", 62.0),
            ("3/4/85", "ibm", 155.0),
        ])
    }

    const UNIFIED: &str = "
        .dbI.p(.date=D,.stk=S,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P) ;
        .dbI.p(.date=D,.stk=S,.clsPrice=P) <- .chwab.r(.date=D,.S=P), S != date ;
        .dbI.p(.date=D,.stk=S,.clsPrice=P) <- .ource.S(.date=D,.clsPrice=P) ;
    ";

    #[test]
    fn execute_mixed_script() {
        let mut e = engine();
        let outcomes = e
            .execute(&format!(
                "{UNIFIED}
                 ?.dbI.p(.stk=S, .clsPrice>100)"
            ))
            .unwrap();
        assert_eq!(outcomes.len(), 4);
        let ans = outcomes[3].answers().unwrap();
        assert_eq!(ans.column("S"), vec![Value::str("ibm")]);
    }

    #[test]
    fn views_auto_refresh_after_base_update() {
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        assert_eq!(e.query("?.dbI.p(.stk=sun)").unwrap().len(), 0);
        e.update("?.euter.r+(.date=3/5/85,.stkCode=sun,.clsPrice=30)").unwrap();
        assert!(e.query("?.dbI.p(.stk=sun, .clsPrice=30)").unwrap().is_true());
    }

    #[test]
    fn no_redundant_refresh() {
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        e.query("?.dbI.p(.stk=hp)").unwrap();
        let v = e.store().version();
        // read-only query: no re-materialisation (store version unchanged)
        e.query("?.dbI.p(.stk=ibm)").unwrap();
        assert_eq!(e.store().version(), v);
    }

    #[test]
    fn direct_update_on_derived_rejected() {
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        let err = e.update("?.dbI.p+(.stk=x,.date=3/9/85,.clsPrice=1)").unwrap_err();
        assert!(matches!(err, EngineError::Eval(idl_eval::EvalError::UpdateOnDerived(_))));
    }

    #[test]
    fn view_update_program_roundtrip() {
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        e.execute(
            ".dbI.p+(.date=D,.stk=S,.clsPrice=P) -> .euter.r+(.date=D,.stkCode=S,.clsPrice=P) ;",
        )
        .unwrap();
        e.update("?.dbI.p+(.date=3/9/85,.stk=sun,.clsPrice=7)").unwrap();
        assert!(e.query("?.euter.r(.stkCode=sun)").unwrap().is_true());
        assert!(e.query("?.dbI.p(.stk=sun,.clsPrice=7)").unwrap().is_true());
    }

    #[test]
    fn analyze_and_explain() {
        let e = engine();
        let issues = e.analyze("?.euter.r(.clsPrice>P)").unwrap();
        assert_eq!(issues.len(), 1);
        let plan = e.explain("?.euter.r(.clsPrice>60, .stkCode=hp)").unwrap();
        let hp_pos = plan.find("stkCode").unwrap();
        let price_pos = plan.find("clsPrice").unwrap();
        assert!(hp_pos < price_pos, "selective equality planned first: {plan}");
    }

    #[test]
    fn snapshot_roundtrip() {
        let dir = std::env::temp_dir().join("idl-engine-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("u.json");
        let mut e = engine();
        e.save_snapshot(&path).unwrap();
        let mut e2 = Engine::load_snapshot(&path).unwrap();
        assert_eq!(
            e.query("?.euter.r(.stkCode=S)").unwrap(),
            e2.query("?.euter.r(.stkCode=S)").unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn declared_schemas_enforced_with_rollback() {
        use idl_storage::schema::AttrDecl;
        use idl_storage::TypeTag;
        let mut e = engine();
        e.declare_schema(
            "euter",
            "r",
            RelationSchema {
                key: vec![idl_object::Name::new("date"), idl_object::Name::new("stkCode")],
                attrs: [(
                    idl_object::Name::new("clsPrice"),
                    AttrDecl { ty: TypeTag::Number, nullable: true },
                )]
                .into_iter()
                .collect(),
                foreign_keys: vec![],
            },
        )
        .unwrap();
        // legal insert passes
        e.update("?.euter.r+(.date=3/9/85,.stkCode=x,.clsPrice=1)").unwrap();
        // key-violating insert is rolled back entirely
        let before = e.store().relation("euter", "r").unwrap().clone();
        let err = e.update("?.euter.r+(.date=3/9/85,.stkCode=x,.clsPrice=2)").unwrap_err();
        assert!(matches!(err, EngineError::Schema(_)), "{err}");
        assert_eq!(&before, e.store().relation("euter", "r").unwrap());
        // type-violating insert too
        let err = e.update("?.euter.r+(.date=3/10/85,.stkCode=y,.clsPrice=cheap)").unwrap_err();
        assert!(matches!(err, EngineError::Schema(_)));
    }

    #[test]
    fn declare_schema_rejects_inconsistent_present_state() {
        let mut e = engine();
        // two rows per date exist (hp and ibm) -> date alone cannot be key
        let err = e
            .declare_schema(
                "euter",
                "r",
                RelationSchema { key: vec![idl_object::Name::new("date")], ..Default::default() },
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Schema(_)));
        assert!(e.schemas().is_empty());
    }

    #[test]
    fn sys_catalog_queryable_and_fresh() {
        let mut e = engine();
        e.enable_sys_catalog().unwrap();
        let a = e.query("?.sys.relations(.db=D, .rel=R, .card=C)").unwrap();
        assert_eq!(a.len(), 4, "euter.r, chwab.r, ource.hp, ource.ibm: {a}");
        // metadata joins with metadata: relations carrying clsPrice
        let a = e.query("?.sys.attributes(.db=D, .rel=R, .attr=clsPrice)").unwrap();
        assert_eq!(a.column("D"), vec![Value::str("euter"), Value::str("ource")]);
        // the catalog follows the data
        e.update("?.newdb.t+(.a=1)").unwrap();
        let a = e.query("?.sys.databases(.name=newdb)").unwrap();
        assert!(a.is_true());
    }

    #[test]
    fn sys_catalog_coexists_with_views() {
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        e.enable_sys_catalog().unwrap();
        // the catalog lists the derived relation too
        let a = e.query("?.sys.relations(.db=dbI, .rel=p, .card=C)").unwrap();
        assert!(a.is_true(), "{a}");
        // and base updates keep both fresh
        e.update("?.euter.r+(.date=3/9/85,.stkCode=zz,.clsPrice=3)").unwrap();
        assert!(e.query("?.dbI.p(.stk=zz)").unwrap().is_true());
        let card = e.query("?.sys.relations(.db=euter, .rel=r, .card=C)").unwrap();
        assert_eq!(card.column("C"), vec![Value::int(5)]);
    }

    #[test]
    fn stale_refresh_repairs_through_the_maintenance_pass() {
        // An update leaves the views stale; the refresh recovers the row
        // delta from the freshness point and absorbs it as a maintenance
        // pass instead of a rebuild.
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        e.refresh_views().unwrap();
        e.update("?.euter.r+(.date=3/9/85,.stkCode=zz,.clsPrice=7)").unwrap();
        assert!(!e.views_fresh_now());
        let runs = e.maintenance_runs();
        let stats = e.refresh_views_if_stale().unwrap();
        assert_eq!(e.maintenance_runs(), runs + 1, "repair ran as maintenance: {stats:?}");
        assert!(e.views_fresh_now());
        assert!(e.query("?.dbI.p(.stk=zz,.clsPrice=7)").unwrap().is_true());
        // A second refresh is a no-op — the repair re-marked freshness.
        let again = e.refresh_views_if_stale().unwrap();
        assert_eq!(again.iterations, 0, "{again:?}");
    }

    #[test]
    fn rule_bodies_compile_once_per_rule_set() {
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        e.add_rules(".dbO.S(.date=D,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P) ;").unwrap();
        // The first rebuild after an install compiles each of the four
        // bodies exactly once, even though the fixpoint runs more
        // evaluations than that.
        let cold = e.refresh_views().unwrap();
        assert_eq!(cold.plans_compiled, 4, "{cold:?}");
        assert!(cold.rule_evals >= cold.plans_compiled, "{cold:?}");
        // Later rebuilds and repairs compile nothing.
        let warm = e.refresh_views().unwrap();
        assert_eq!(warm.plans_compiled, 0, "{warm:?}");
        e.update("?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=30)").unwrap();
        let runs = e.maintenance_runs();
        let repair = e.refresh_views_if_stale().unwrap();
        assert_eq!(e.maintenance_runs(), runs + 1, "{repair:?}");
        assert_eq!(repair.plans_compiled, 0, "{repair:?}");
        // Another plan shape compiles its own plans once; coming back to
        // the first shape finds its plans still there.
        let production = e.options();
        let mut unordered = production;
        unordered.eval.reorder = false;
        e.set_options(unordered);
        assert_eq!(e.refresh_views().unwrap().plans_compiled, 4);
        e.set_options(production);
        assert_eq!(e.refresh_views().unwrap().plans_compiled, 0);
        // Installing a rule makes a new rule set, compiled once again.
        e.add_rules(".dbX.all(.stk=S) <- .dbI.p(.stk=S) ;").unwrap();
        assert_eq!(e.refresh_views().unwrap().plans_compiled, 5);
        assert_eq!(e.refresh_views().unwrap().plans_compiled, 0);
        // The tree-walk reference mode compiles nothing and derives the
        // same views.
        let mut interp = engine();
        interp.set_options(EngineOptions::builder().compile(false).build());
        interp.add_rules(UNIFIED).unwrap();
        assert_eq!(interp.refresh_views().unwrap().plans_compiled, 0);
        interp.update("?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=30)").unwrap();
        assert_eq!(
            e.query("?.dbI.p(.date=D,.stk=S,.clsPrice=P)").unwrap(),
            interp.query("?.dbI.p(.date=D,.stk=S,.clsPrice=P)").unwrap()
        );
    }

    #[test]
    fn explain_shows_compiled_plan() {
        let e = engine();
        let plan = e.explain("?.euter.r(.clsPrice>60, .stkCode=hp)").unwrap();
        assert!(plan.contains("scan [probe eq(.stkCode = hp)"), "{plan}");
        assert!(plan.contains("filter > 60"), "{plan}");
    }

    #[test]
    fn sql_sugar_end_to_end() {
        let mut e = engine();
        // SELECT across all three schemata agrees with the IDL originals
        let sugar = e.execute_sql("SELECT S, clsPrice FROM ource.S WHERE clsPrice > 200").unwrap();
        let direct = e.query("?.ource.S(.clsPrice=ClsPrice_), ClsPrice_ > 200").unwrap();
        assert_eq!(sugar.answers().unwrap().column("S"), direct.column("S"));

        // INSERT and DELETE round-trip
        e.execute_sql("INSERT INTO euter.r (date, stkCode, clsPrice) VALUES (3/9/85, dec, 80)")
            .unwrap();
        assert!(e.query("?.euter.r(.stkCode=dec,.clsPrice=80)").unwrap().is_true());
        e.execute_sql("DELETE FROM euter.r WHERE stkCode = dec").unwrap();
        assert!(!e.query("?.euter.r(.stkCode=dec)").unwrap().is_true());

        // join by shared column: euter.r ⋈ ource.hp on (date, clsPrice) —
        // every mentioned column must exist in every scanned table
        // (natural-join-by-mention; see idl_lang::sugar docs)
        let j = e
            .execute_sql("SELECT date, clsPrice FROM euter.r, ource.hp WHERE clsPrice > 0")
            .unwrap();
        let hp_rows = e.query("?.ource.hp(.date=D,.clsPrice=P)").unwrap();
        assert_eq!(j.answers().unwrap().len(), hp_rows.len());
    }

    #[test]
    fn static_call_analysis() {
        let mut e = engine();
        e.execute(crate::transparency::standard_update_programs()).unwrap();
        // valid call: clean
        assert!(e
            .analyze_calls("?.dbU.insStk(.stk=hp, .date=3/9/85, .price=1)")
            .unwrap()
            .is_empty());
        // missing required parameter: flagged statically, before execution
        let issues = e.analyze_calls("?.dbU.insStk(.stk=hp, .date=3/9/85)").unwrap();
        assert!(issues.iter().any(|m| m.contains(".price")), "{issues:?}");
        // unknown parameter: flagged
        let issues = e.analyze_calls("?.dbU.delStk(.bogus=1)").unwrap();
        assert!(issues.iter().any(|m| m.contains(".bogus")), "{issues:?}");
        // unbound variable argument = not supplied
        let issues = e.analyze_calls("?.dbU.insStk(.stk=S, .date=3/9/85, .price=1)").unwrap();
        assert!(issues.iter().any(|m| m.contains(".stk")), "{issues:?}");
    }

    /// Whether the answers of `?.dbO.Y(.clsPrice=P)` range over exactly
    /// these stocks' relations.
    fn dbo_stocks_are(answers: AnswerSet, stocks: &[&str]) -> bool {
        let got: std::collections::BTreeSet<Value> = answers.column("Y").into_iter().collect();
        got == stocks.iter().map(|s| Value::str(*s)).collect()
    }

    #[test]
    fn a_cached_higher_order_plan_follows_schematic_create_and_gc() {
        // `?.dbO.Y(…)` ranges over relation names: a view creating or
        // garbage-collecting a `dbO` relation changes the data it
        // enumerates, not its plan. So the plan stays cached across both,
        // in the repair and in the rebuild mode.
        const Q: &str = "?.dbO.Y(.clsPrice=P)";
        const ADD: &str = "?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=30)";
        const DEL: &str = "?.euter.r-(.stkCode=sun)";
        for maintain in [true, false] {
            let mut e = engine();
            e.set_options(EngineOptions::builder().maintain(maintain).build());
            e.add_rules(UNIFIED).unwrap();
            e.add_rules(
                ".dbO.S(.date=D,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P), S != date ;",
            )
            .unwrap();
            assert!(dbo_stocks_are(e.query(Q).unwrap(), &["hp", "ibm"]));
            for (write, stocks) in [(ADD, &["hp", "ibm", "sun"][..]), (DEL, &["hp", "ibm"][..])] {
                e.update(write).unwrap();
                let (hits, misses) = (e.plan_cache().hits(), e.plan_cache().misses());
                assert!(dbo_stocks_are(e.query(Q).unwrap(), stocks), "maintain {maintain}");
                assert_eq!(e.plan_cache().misses(), misses, "maintain {maintain}: {write}");
                assert_eq!(e.plan_cache().hits(), hits + 1, "maintain {maintain}: {write}");
            }
            assert_eq!(e.maintenance_runs(), if maintain { 2 } else { 0 });

            // The server's path: one cache shared by republished snapshots.
            let cache = std::sync::Mutex::new(PlanCache::new());
            let snap = e.snapshot().unwrap();
            assert!(dbo_stocks_are(snap.query_cached(Q, Some(&cache)).unwrap(), &["hp", "ibm"]));
            for (write, stocks) in [(ADD, &["hp", "ibm", "sun"][..]), (DEL, &["hp", "ibm"][..])] {
                e.update(write).unwrap();
                let snap = e.snapshot().unwrap();
                let answers = snap.query_cached(Q, Some(&cache)).unwrap();
                assert!(dbo_stocks_are(answers, stocks), "maintain {maintain}: {write}");
                let cache = cache.lock().unwrap();
                assert_eq!((cache.misses(), cache.len()), (1, 1), "maintain {maintain}: {write}");
            }
        }
    }

    #[test]
    fn update_maintains_views_without_refresh() {
        let mut e = engine();
        e.set_options(EngineOptions::builder().maintain(true).build());
        e.add_rules(UNIFIED).unwrap();
        e.query("?.dbI.p(.stk=hp)").unwrap(); // initial build
        e.update("?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=7)").unwrap();
        // The write leaves the repair to the next read, which absorbs it
        // with the delta pass.
        assert_eq!(e.maintenance_runs(), 0);
        assert!(e.query("?.dbI.p(.stk=sun,.clsPrice=7)").unwrap().is_true());
        assert_eq!(e.maintenance_runs(), 1);
        let m = &e.last_fixpoint_stats().maintenance;
        assert_eq!(m.views_maintained, 1, "{m:?}");
        assert!(m.delta_rules_run >= 1, "{m:?}");
        // A second read finds the views fresh: nothing re-materialises.
        let v = e.store().version();
        assert!(e.query("?.dbI.p(.stk=sun)").unwrap().is_true());
        assert_eq!(e.store().version(), v);
        // Retraction repairs too (exact rederivation deletes the row).
        e.update("?.euter.r-(.stkCode=sun)").unwrap();
        assert!(!e.query("?.dbI.p(.stk=sun)").unwrap().is_true());
        assert_eq!(e.maintenance_runs(), 2);
    }

    #[test]
    fn maintenance_matches_reference_mode() {
        // The engine-level differential: maintain on vs the
        // refresh-the-world reference mode, byte-identical universes.
        let mk = |maintain: bool| {
            let mut e = engine();
            e.set_options(EngineOptions::builder().maintain(maintain).build());
            e.add_rules(UNIFIED).unwrap();
            e.add_rules(".dbO.S(.date=D,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P) ;")
                .unwrap();
            e.query("?.dbI.p(.stk=hp)").unwrap();
            e
        };
        let mut on = mk(true);
        let mut off = mk(false);
        for upd in [
            "?.euter.r+(.date=3/9/85,.stkCode=zz,.clsPrice=7)",
            "?.ource.hp-(.date=3/3/85)",
            "?.euter.r-(.stkCode=zz)",
            "?.euter.r-(.stkCode=hp)",
        ] {
            on.update(upd).unwrap();
            off.update(upd).unwrap();
            on.refresh_views_if_stale().unwrap();
            off.refresh_views_if_stale().unwrap();
            assert_eq!(
                on.universe_json().unwrap(),
                off.universe_json().unwrap(),
                "maintained ≠ reference after {upd}"
            );
        }
    }

    #[test]
    fn maintenance_handles_schematic_create_and_gc() {
        let mut e = engine();
        e.set_options(EngineOptions::builder().maintain(true).build());
        e.add_rules(UNIFIED).unwrap();
        e.add_rules(".dbO.S(.date=D,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P) ;").unwrap();
        e.query("?.dbO.Y(.clsPrice=P)").unwrap();
        // New stock: the repair materialises dbO.sun incrementally.
        e.update("?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=30)").unwrap();
        let rels = e.query("?.dbO.Y").unwrap();
        assert!(rels.column("Y").contains(&Value::str("sun")), "{rels}");
        let m = e.last_fixpoint_stats().maintenance.clone();
        assert_eq!(m.schematic_creates, 1, "{m:?}");
        // Retracting the stock's only quote GCs the relation again.
        e.update("?.euter.r-(.stkCode=sun)").unwrap();
        let rels = e.query("?.dbO.Y").unwrap();
        assert!(!rels.column("Y").contains(&Value::str("sun")), "{rels}");
        let m = e.last_fixpoint_stats().maintenance.clone();
        assert_eq!(m.schematic_gcs, 1, "{m:?}");
        assert_eq!(e.maintenance_runs(), 2);
    }

    #[test]
    fn maintenance_falls_back_on_schema_shaping_updates() {
        let mut e = engine();
        e.set_options(EngineOptions::builder().maintain(true).build());
        e.add_rules(UNIFIED).unwrap();
        e.query("?.dbI.p(.stk=hp)").unwrap();
        // Dropping a whole relation is not row-expressible: the update
        // must fall back to the refresh path and still be correct.
        e.update("?.chwab-.r").unwrap();
        assert!(e.query("?.dbI.p(.stk=hp)").unwrap().is_true(), "hp survives via euter/ource");
        assert_eq!(e.maintenance_runs(), 0, "rebuilt, not repaired");
        assert!(e.views_fresh_now());
    }

    /// The stock engine with the two-level mapping (which registers the
    /// §7.1 update programs) and freshly materialised views.
    fn mapped() -> Engine {
        let mut e = engine();
        crate::transparency::install_two_level_mapping(&mut e).unwrap();
        e.refresh_views().unwrap();
        e
    }

    #[test]
    fn program_call_breaking_a_declared_key_is_refused_and_rolled_back() {
        // hp already has a quote on 3/3/85, so a second one breaks the
        // euter and ource keys. insStk edits chwab's row for the day in
        // place and can never repeat a date there; it can repeat a price,
        // so chwab's key is the hp column.
        let second_quote = "?.dbU.insStk(.stk=hp, .date=3/3/85, .price=99)";
        let repeat_price = "?.dbU.insStk(.stk=hp, .date=3/4/85, .price=50.0)";
        let keys: [(&str, &str, &[&str], &str); 3] = [
            ("euter", "r", &["date", "stkCode"], second_quote),
            ("chwab", "r", &["hp"], repeat_price),
            ("ource", "hp", &["date"], second_quote),
        ];
        for (db, rel, key, call) in keys {
            let mut e = mapped();
            let key = key.iter().map(|k| idl_object::Name::new(*k)).collect();
            e.declare_schema(db, rel, RelationSchema { key, ..Default::default() }).unwrap();
            e.refresh_views().unwrap();
            let before = e.universe_json().unwrap();
            let Err(err) = e.update(call) else { panic!("{db}.{rel}: {call} accepted") };
            assert_eq!(err.code(), "E-SCHEMA", "{db}.{rel}: {err}");
            assert_eq!(e.universe_json().unwrap(), before, "{db}.{rel}");
            // the rollback moved no row: the views need no work
            assert_eq!(e.refresh_views_if_stale().unwrap().rule_evals, 0, "{db}.{rel}");
            // a call that keeps the key is accepted
            e.update("?.dbU.insStk(.stk=hp, .date=3/9/85, .price=99)").unwrap();
            assert!(e.check_schemas().is_empty(), "{db}.{rel}");
        }
    }

    #[test]
    fn a_failed_update_leaves_the_views_fresh() {
        let mut e = mapped();
        let err = e.update("?.euter.r+(.stkCode=U)").unwrap_err();
        assert_eq!(err.code(), "E-UNSAFE", "{err}");
        let stats = e.refresh_views_if_stale().unwrap();
        assert_eq!(stats.rule_evals, 0, "{stats:?}");
        assert!(e.views_fresh_now());
    }

    #[test]
    fn a_program_body_writing_a_view_is_refused_like_a_direct_write() {
        let mut e = mapped();
        let direct = e.update("?.dbI.p+(.stk=zzz, .date=3/9/85, .clsPrice=1)").unwrap_err();
        assert_eq!(direct.code(), "E-DERIVED", "{direct}");
        e.execute(".dbX.hack(.s=S) -> .dbI.p+(.stk=S, .date=3/9/85, .clsPrice=1) ;").unwrap();
        let before = e.universe_json().unwrap();
        let err = e.update("?.dbX.hack(.s=zzz)").unwrap_err();
        assert_eq!(err.code(), "E-DERIVED", "{err}");
        assert_eq!(e.universe_json().unwrap(), before);
        assert!(!e.query("?.dbI.p(.stk=zzz)").unwrap().is_true());
        let repaired = e.universe_json().unwrap();
        e.refresh_views().unwrap();
        assert_eq!(e.universe_json().unwrap(), repaired, "the views equal a rebuild");
    }

    #[test]
    fn a_program_refused_in_a_later_clause_keeps_nothing_an_earlier_clause_wrote() {
        let mut e = mapped();
        e.execute(
            ".dbX.two(.s=S) -> .euter.r+(.stkCode=S, .date=3/9/85, .clsPrice=1) ;
             .dbX.two(.s=S) -> .dbI.p+(.stk=S, .date=3/9/85, .clsPrice=1) ;",
        )
        .unwrap();
        let before = e.universe_json().unwrap();
        let err = e.update("?.dbX.two(.s=zzz)").unwrap_err();
        assert_eq!(err.code(), "E-DERIVED", "{err}");
        assert_eq!(e.universe_json().unwrap(), before, "the first clause's write rolled back");
        let stats = e.refresh_views_if_stale().unwrap();
        assert_eq!((stats.full_evals, stats.rule_evals), (0, 0), "{stats:?}");
        assert!(e.views_fresh_now());
    }

    #[test]
    fn a_program_body_query_compiles_through_the_plan_cache() {
        let mut e = engine();
        e.execute(
            ".dbU.bump(.stk=S) -> .euter.r(.stkCode=S, .date=D, .clsPrice=C),
                .euter.r-(.stkCode=S, .date=D, .clsPrice=C),
                .euter.r+(.stkCode=S, .date=D, .clsPrice=C+1) ;",
        )
        .unwrap();
        e.update("?.dbU.bump(.stk=hp)").unwrap();
        let (hits, misses) = (e.plan_cache().hits(), e.plan_cache().misses());
        e.update("?.dbU.bump(.stk=hp)").unwrap();
        assert_eq!(e.plan_cache().hits(), hits + 1, "the second call re-uses the body's plan");
        assert_eq!(e.plan_cache().misses(), misses, "and compiles nothing");
        assert!(e.query("?.euter.r(.stkCode=hp, .date=3/3/85, .clsPrice=52)").unwrap().is_true());
    }

    #[test]
    fn declaring_a_schema_or_enabling_sys_keeps_the_views_fresh() {
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        e.refresh_views().unwrap();
        e.enable_sys_catalog().unwrap();
        let stats = e.refresh_views_if_stale().unwrap();
        assert_eq!((stats.full_evals, stats.rule_evals), (0, 0), "{stats:?}");
        let key = vec![idl_object::Name::new("date"), idl_object::Name::new("stkCode")];
        e.declare_schema("euter", "r", RelationSchema { key, ..Default::default() }).unwrap();
        let stats = e.refresh_views_if_stale().unwrap();
        assert_eq!((stats.full_evals, stats.rule_evals), (0, 0), "{stats:?}");
        assert!(e.views_fresh_now());
        let keys = e.query("?.sys.keys(.db=euter, .rel=r, .attr=A)").unwrap();
        assert_eq!(keys.column("A"), vec![Value::str("date"), Value::str("stkCode")]);
    }

    /// The engine with the unified view materialised and a quote for a
    /// new stock written after it: the views are stale.
    fn stale_after_a_write() -> Engine {
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        e.refresh_views().unwrap();
        e.update("?.euter.r+(.date=3/9/85,.stkCode=zz,.clsPrice=700)").unwrap();
        assert!(!e.views_fresh_now());
        e
    }

    #[test]
    fn a_view_read_after_a_write_in_one_script_sees_the_write() {
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        e.refresh_views().unwrap();
        let out = e
            .execute(
                "?.euter.r+(.date=3/9/85,.stkCode=zz,.clsPrice=7) ; ?.dbI.p(.stk=zz,.clsPrice=7)",
            )
            .unwrap();
        assert!(out[1].answers().unwrap().is_true());
    }

    #[test]
    fn a_sys_read_after_a_write_repairs_first() {
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        e.enable_sys_catalog().unwrap();
        e.refresh_views().unwrap();
        e.update("?.euter.r+(.date=3/9/85,.stkCode=zz,.clsPrice=3)").unwrap();
        let card = e.query("?.sys.relations(.db=euter, .rel=r, .card=C)").unwrap();
        assert_eq!(card.column("C"), vec![Value::int(5)]);
    }

    #[test]
    fn a_variable_database_read_repairs_first() {
        let mut e = stale_after_a_write();
        let a = e.query("?.X.p(.stk=zz, .clsPrice=700)").unwrap();
        assert_eq!(a.column("X"), vec![Value::str("dbI")]);
    }

    #[test]
    fn a_program_calling_a_view_reading_program_repairs_first() {
        let mut e = stale_after_a_write();
        e.execute(
            ".dbU.flagHigh(.min=M) -> .dbI.p(.stk=S, .clsPrice>M), .audit.high+(.stk=S) ;
             .dbU.audit(.min=M) -> .dbU.flagHigh(.min=M) ;",
        )
        .unwrap();
        e.update("?.dbU.audit(.min=500)").unwrap();
        assert_eq!(e.query("?.audit.high(.stk=S)").unwrap().column("S"), vec![Value::str("zz")]);
    }

    #[test]
    fn a_program_call_that_reads_no_view_leaves_the_repair_to_the_next_read() {
        let mut e = mapped();
        let runs = e.maintenance_runs();
        e.update("?.dbU.insStk(.stk=ibm, .date=3/4/85, .price=1)").unwrap();
        e.update("?.dbU.delStk(.stk=hp, .date=3/3/85)").unwrap();
        assert_eq!(e.maintenance_runs(), runs);
        assert!(!e.views_fresh_now());
        // one repair covers both writes
        assert!(e.query("?.dbI.p(.stk=ibm, .date=3/4/85)").unwrap().is_true());
        assert!(!e.query("?.dbI.p(.stk=hp, .date=3/3/85)").unwrap().is_true());
        assert_eq!(e.maintenance_runs(), runs + 1);
    }

    #[test]
    fn higher_order_customized_views() {
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        e.add_rules(".dbO.S(.date=D,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P) ;").unwrap();
        let rels = e.query("?.dbO.Y").unwrap();
        assert_eq!(rels.column("Y"), vec![Value::str("hp"), Value::str("ibm")]);
        // adding a stock adds a relation — the data-dependent view count
        e.update("?.euter.r+(.date=3/5/85,.stkCode=sun,.clsPrice=30)").unwrap();
        let rels = e.query("?.dbO.Y").unwrap();
        assert_eq!(rels.column("Y"), vec![Value::str("hp"), Value::str("ibm"), Value::str("sun")]);
    }
}
