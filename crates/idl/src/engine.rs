//! The engine: store + view catalog + program registry + execution loop.

use crate::error::EngineError;
use crate::outcome::Outcome;
use idl_eval::analyze::BindingIssue;
use idl_eval::rules::{DerivedCatalog, DerivedScope, FixpointStats};
use idl_eval::update::UpdateStats;
use idl_eval::{diff_update, MaintainedViews, PredPat};
use idl_eval::{
    run_request_cached, AnswerSet, EvalOptions, PlanCache, ProgramRegistry, RuleEngine, Subst,
};
use idl_lang::{parse_program, Request, Rule, Statement};
use idl_object::Value;
use idl_storage::schema::{self, RelationSchema, SchemaSet, Violation};
use idl_storage::{Store, Version};
use std::collections::BTreeSet;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Evaluator options (planner / index toggles, result limit).
    pub eval: EvalOptions,
    /// Refresh materialised views automatically before each request that
    /// follows a base-data change (on by default). When off, call
    /// [`Engine::refresh_views`] manually.
    pub auto_refresh: bool,
    /// Use relation-granularity semi-naive fixpoints (on by default).
    pub semi_naive: bool,
    /// Re-derive only the rules affected by the journalled changes instead
    /// of rebuilding every view (on by default; ablation bench B10).
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

    /// Automatic view refresh before requests that follow a base-data
    /// change (on by default).
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

    /// Re-derive only rules affected by journalled changes (on by
    /// default).
    pub fn incremental_refresh(mut self, on: bool) -> Self {
        self.engine.incremental_refresh = on;
        self
    }

    /// Write-path incremental view maintenance (on by default): update
    /// requests drive their own row deltas into the maintained views
    /// instead of marking the world stale. Off is the refresh-the-world
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
    /// [`crate::DurableEngine::open_with_vfs`]).
    pub fn durability(self) -> crate::durable::DurabilityOptions {
        self.durability
    }
}

/// The IDL engine (see the crate docs for an overview).
pub struct Engine {
    store: Store,
    rules: Vec<Rule>,
    compiled: Option<RuleEngine>,
    programs: ProgramRegistry,
    derived: DerivedCatalog,
    options: EngineOptions,
    /// Store version when views were last known fresh; `None` = dirty.
    fresh_at: Option<Version>,
    /// CoW snapshot of the universe captured when the views last became
    /// fresh (an O(1) structural-sharing clone). The stale-refresh path
    /// diffs against it to recover the row delta of whatever bypassed
    /// write-path maintenance, so repair runs the same delta pass —
    /// skipping strata with no overlapping deltas entirely — instead of
    /// the drop-and-rebuild fallback.
    fresh_universe: Option<(Version, Value)>,
    /// Declared keys/types/foreign-keys, checked after each update request.
    schemas: SchemaSet,
    /// Maintain the queryable `sys` catalog database.
    sys_enabled: bool,
    /// Memoized physical plans, keyed by canonical expression hash; shared
    /// by request execution and view refreshes.
    plan_cache: PlanCache,
    /// Statistics of the most recent view materialisation (the `--stats`
    /// CLI output); default until the first refresh actually runs rules.
    last_stats: FixpointStats,
    /// Data-dependent derived relations known from earlier refreshes.
    /// A refresh whose fixpoint materialises a relation *not* in this set
    /// saw a *schematic delta* (§6: a new stock in `euter` data creates a
    /// new `ource`-style relation) — those plans in [`PlanCache`] whose
    /// read set overlaps the newcomer are invalidated.
    seen_derived_rels: BTreeSet<PredPat>,
    /// Per-view support bookkeeping for write-path maintenance, carried
    /// into [`crate::backend::EngineSnapshot`] and persisted by the
    /// durable layer so a restart resumes maintaining instead of
    /// rebuilding.
    maintained: MaintainedViews,
    /// How many updates were absorbed by incremental maintenance (vs
    /// falling back to the refresh path) since startup.
    maintenance_runs: u64,
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
            programs: ProgramRegistry::new(),
            derived: DerivedCatalog::empty(),
            options: EngineOptions::default(),
            fresh_at: None,
            fresh_universe: None,
            schemas: SchemaSet::new(),
            sys_enabled: false,
            plan_cache: PlanCache::new(),
            last_stats: FixpointStats::default(),
            seen_derived_rels: BTreeSet::new(),
            maintained: MaintainedViews::default(),
            maintenance_runs: 0,
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

    /// Mutable store access. Any direct change marks views dirty.
    pub fn store_mut(&mut self) -> &mut Store {
        self.fresh_at = None;
        &mut self.store
    }

    /// Current options.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    /// Replaces the options (e.g. to run in naive mode for an ablation).
    pub fn set_options(&mut self, options: EngineOptions) {
        self.options = options;
        if let Some(c) = &mut self.compiled {
            c.semi_naive = options.semi_naive;
        }
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

    // ---- statement execution -------------------------------------------

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

    /// Executes one parsed statement.
    pub fn execute_statement(&mut self, stmt: Statement) -> Result<Outcome, EngineError> {
        match stmt {
            Statement::Request(req) => self.run(&req),
            Statement::Rule(rule) => {
                self.add_rule(rule)?;
                Ok(Outcome::RuleAdded)
            }
            Statement::Program(clause) => {
                self.programs.register(&clause)?;
                Ok(Outcome::ProgramRegistered)
            }
        }
    }

    /// Convenience: executes a source text expected to contain exactly one
    /// request, returning its answers.
    pub fn query(&mut self, src: &str) -> Result<AnswerSet, EngineError> {
        match self.execute_one(src)? {
            Outcome::Answers { answers, .. } => Ok(answers),
            _ => Err(EngineError::Usage("expected a request, found a clause".into())),
        }
    }

    /// Convenience: executes a source text expected to contain exactly one
    /// (update) request, returning the mutation counters.
    pub fn update(&mut self, src: &str) -> Result<UpdateStats, EngineError> {
        match self.execute_one(src)? {
            Outcome::Answers { stats, .. } => Ok(stats),
            _ => Err(EngineError::Usage("expected a request, found a clause".into())),
        }
    }

    /// Executes one statement of the SQL-flavoured sugar surface
    /// (§8's "language with enough syntactic sugar"), translating it to an
    /// IDL request. Higher-order table names work:
    /// `SELECT S, clsPrice FROM ource.S WHERE clsPrice > 200`.
    pub fn execute_sql(&mut self, src: &str) -> Result<Outcome, EngineError> {
        let stmt = idl_lang::sugar::parse_sugar(src)?;
        self.execute_statement(stmt)
    }

    fn execute_one(&mut self, src: &str) -> Result<Outcome, EngineError> {
        let mut outcomes = self.execute(src)?;
        match outcomes.len() {
            1 => Ok(outcomes.pop().unwrap()),
            n => Err(EngineError::Usage(format!("expected exactly one statement, found {n}"))),
        }
    }

    fn run(&mut self, req: &Request) -> Result<Outcome, EngineError> {
        if self.options.auto_refresh {
            self.refresh_views_if_stale()?;
        }
        // Write-path maintenance needs the pre-update universe (an O(1)
        // CoW clone) to extract the update's row delta afterwards. Only
        // captured when the views are fresh *now* — maintaining on top of
        // stale views would bake the staleness in.
        let pre = if self.options.eval.maintain
            && self.compiled.is_some()
            && self.options.semi_naive
            && !req.is_pure_query()
            && self.views_fresh_now()
        {
            Some((self.store.universe().clone(), self.store.version()))
        } else {
            None
        };
        // Outer transaction so declared-schema enforcement can undo the
        // whole request (run_request's own transaction nests inside).
        let check_schemas = !self.schemas.is_empty() && !req.is_pure_query();
        if check_schemas {
            self.store.begin();
        }
        let outcome = match run_request_cached(
            &mut self.store,
            &self.programs,
            &self.derived,
            req,
            self.options.eval,
            Some(&mut self.plan_cache),
        ) {
            Ok(o) => o,
            Err(e) => {
                if check_schemas {
                    self.store.rollback().expect("outer transaction open");
                }
                return Err(e.into());
            }
        };
        if check_schemas {
            let violations = self.schemas.check(&self.store);
            if violations.is_empty() {
                self.store.commit().expect("outer transaction open");
            } else {
                self.store.rollback().expect("outer transaction open");
                return Err(EngineError::Schema(violations));
            }
        }
        // Write-path maintenance: drive the update's own row delta into
        // the maintained views. On any shape the pass cannot handle it
        // leaves the views marked stale and the refresh path repairs them
        // — staleness detection from the storage journal is unchanged and
        // remains the fallback.
        if let Some((pre_universe, pre_version)) = pre {
            if outcome.stats.total() > 0 {
                self.maintain_after_update(&pre_universe, pre_version)?;
            }
        }
        Ok(Outcome::Answers { answers: outcome.answers, stats: outcome.stats })
    }

    /// Whether the materialised views match the store right now (fresh
    /// marker set and no base-data change journalled since). Durable
    /// checkpoints use this to decide whether the maintenance state is
    /// worth persisting alongside the universe.
    pub fn views_fresh_now(&self) -> bool {
        let Some(v) = self.fresh_at else { return false };
        self.store.changes_since(v).iter().all(|c| {
            let sys_write = matches!(
                &c.scope,
                idl_storage::ChangeScope::Database { db } if db.as_str() == "sys"
            );
            sys_write || !self.derived.is_base_change(&c.scope)
        })
    }

    /// Marks the views fresh as of the store's current version and
    /// captures the CoW universe snapshot the stale-refresh delta-repair
    /// path diffs against.
    fn mark_fresh(&mut self) {
        let v = self.store.version();
        self.fresh_at = Some(v);
        self.fresh_universe = Some((v, self.store.universe().clone()));
    }

    /// Runs incremental maintenance for the update journalled between
    /// `pre_version` and now. On success the views stay fresh and the
    /// maintained-state bookkeeping advances; on any bail the views are
    /// marked stale for the refresh/repair path.
    fn maintain_after_update(
        &mut self,
        pre_universe: &Value,
        pre_version: Version,
    ) -> Result<(), EngineError> {
        let scopes: Vec<idl_storage::ChangeScope> =
            self.store.changes_since(pre_version).iter().map(|c| c.scope.clone()).collect();
        let Some(delta) = diff_update(pre_universe, self.store.universe(), &scopes) else {
            // Not expressible as row edits (schema-shaping update): the
            // refresh path owns it.
            self.fresh_at = None;
            return Ok(());
        };
        if delta.is_empty() {
            // No-op update (e.g. a retraction that matched nothing): the
            // journal recorded a write scope but the contents are
            // unchanged, so re-mark freshness at the current version —
            // otherwise the stale check re-diffs this forever.
            self.mark_fresh();
            return Ok(());
        }
        let maintained = match &self.compiled {
            Some(c) => c.maintain_cached(
                &mut self.store,
                &delta,
                self.options.eval,
                Some(&mut self.plan_cache),
            )?,
            None => None,
        };
        let Some(outcome) = maintained else {
            self.fresh_at = None;
            return Ok(());
        };
        let mut stats = outcome.stats.clone();
        // Incrementally created relations are schematic deltas exactly
        // like in a refresh: register them with the seen-set and
        // invalidate overlapping plans; GCd ones leave the seen-set so a
        // reappearance counts as schematic again.
        self.apply_schematic_deltas(&mut stats, false);
        stats.maintenance.schematic_creates = stats.schematic_deltas;
        if !outcome.gcd.is_empty() {
            for pat in &outcome.gcd {
                self.seen_derived_rels.remove(pat);
            }
            stats.plan_invalidations += self.plan_cache.invalidate_overlapping(&outcome.gcd);
        }
        if self.sys_enabled {
            schema::install_sys_catalog(&mut self.store, &self.schemas)?;
        }
        self.maintained.apply(&outcome);
        stats.maintenance.support_entries = self.maintained.entry_count();
        self.mark_fresh();
        self.maintenance_runs += 1;
        self.last_stats = stats;
        Ok(())
    }

    /// Per-view support bookkeeping for write-path maintenance.
    pub fn maintained_views(&self) -> &MaintainedViews {
        &self.maintained
    }

    /// Installs maintenance state recovered by a durable backend. Returns
    /// `false` (and leaves the views stale) when the state's rule
    /// fingerprint does not match the installed rules — the refresh path
    /// then rebuilds and recomputes it.
    pub fn adopt_maintained_views(&mut self, state: MaintainedViews) -> bool {
        if !state.matches_rules(&self.rules) {
            return false;
        }
        self.maintained = state;
        self.mark_fresh();
        true
    }

    /// How many updates incremental maintenance absorbed since startup.
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
        self.fresh_at = None; // sys catalog must reflect the declaration
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

    /// Turns on the queryable `sys` catalog database (refreshed together
    /// with the views): `sys.databases`, `sys.relations`, `sys.attributes`,
    /// `sys.keys`, `sys.types`.
    pub fn enable_sys_catalog(&mut self) -> Result<(), EngineError> {
        self.sys_enabled = true;
        self.fresh_at = None;
        Ok(())
    }

    // ---- rules / views ---------------------------------------------------

    /// Installs one rule (revalidating stratification over the whole set).
    pub fn add_rule(&mut self, rule: Rule) -> Result<(), EngineError> {
        let mut candidate = self.rules.clone();
        candidate.push(rule);
        let mut engine = RuleEngine::new(candidate.clone())?;
        engine.semi_naive = self.options.semi_naive;
        self.derived = engine.derived_catalog();
        self.compiled = Some(engine);
        self.rules = candidate;
        self.fresh_at = None;
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
            if self.sys_enabled {
                schema::install_sys_catalog(&mut self.store, &self.schemas)?;
            }
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
        let mut stats = compiled.materialize_cached(
            &mut self.store,
            self.options.eval,
            None,
            Some(&mut self.plan_cache),
        )?;
        // A full rebuild re-creates every data-dependent relation, so the
        // seen-set is *replaced*, not unioned: relations that vanished
        // (e.g. the last row of a stock deleted) drop out and would count
        // as schematic again if they come back.
        self.apply_schematic_deltas(&mut stats, true);
        if self.sys_enabled {
            schema::install_sys_catalog(&mut self.store, &self.schemas)?;
        }
        self.maintained = MaintainedViews::recompute(&self.store, &self.derived, &self.rules);
        stats.maintenance.support_entries = self.maintained.entry_count();
        self.mark_fresh();
        self.last_stats = stats.clone();
        Ok(stats)
    }

    /// Filters the fixpoint's raw created-relation log against the
    /// seen-set: what survives is a *schematic delta* — a relation (or
    /// whole database) that exists now but did not after the previous
    /// refresh. Fresh ones invalidate exactly the overlapping plan-cache
    /// entries (a plan scanning `.dbO.S` with a variable relation position
    /// must see the newcomer; a plan reading only `.dbO.hp` keeps its
    /// compiled form). The first refresh reports all of its data-dependent
    /// relations as schematic — there was no schema before it.
    fn apply_schematic_deltas(&mut self, stats: &mut FixpointStats, replace_seen: bool) {
        let created: BTreeSet<PredPat> = stats.new_relations.iter().cloned().collect();
        let fresh: Vec<PredPat> =
            created.iter().filter(|p| !self.seen_derived_rels.contains(*p)).cloned().collect();
        stats.schematic_deltas = fresh.len();
        if !fresh.is_empty() {
            stats.plan_invalidations = self.plan_cache.invalidate_overlapping(&fresh);
        }
        if replace_seen {
            self.seen_derived_rels = created;
        } else {
            self.seen_derived_rels.extend(created);
        }
    }

    /// Statistics of the most recent view materialisation that actually
    /// ran rules (full or incremental). Default-valued until then. This is
    /// what `idl --stats` prints, including the structural-sharing
    /// counters ([`FixpointStats::sharing`]).
    pub fn last_fixpoint_stats(&self) -> &FixpointStats {
        &self.last_stats
    }

    /// Refreshes views only if base data changed since the last refresh.
    pub fn refresh_views_if_stale(&mut self) -> Result<FixpointStats, EngineError> {
        if self.compiled.is_none() && !self.sys_enabled {
            return Ok(FixpointStats::default());
        }
        if let Some(v) = self.fresh_at {
            let changed: Vec<idl_storage::ChangeScope> = self
                .store
                .changes_since(v)
                .iter()
                .filter(|c| {
                    let sys_write = matches!(
                        &c.scope,
                        idl_storage::ChangeScope::Database { db } if db.as_str() == "sys"
                    );
                    !sys_write && self.derived.is_base_change(&c.scope)
                })
                .map(|c| c.scope.clone())
                .collect();
            if changed.is_empty() {
                return Ok(FixpointStats::default());
            }
            if self.options.incremental_refresh && self.compiled.is_some() {
                // Delta repair: diff the current universe against the CoW
                // snapshot captured when the views were last fresh, and
                // drive the recovered row delta through the same
                // maintenance pass the write path uses — strata with no
                // overlapping deltas are skipped entirely. Any shape the
                // pass cannot absorb falls through to the masked
                // drop-and-rebuild below (and with maintenance off this
                // path is disabled wholesale: refresh-the-world stays the
                // differential reference mode).
                if self.options.eval.maintain {
                    let pre = match &self.fresh_universe {
                        Some((pv, u)) if *pv == v => Some((*pv, u.clone())),
                        _ => None,
                    };
                    if let Some((pv, pre_universe)) = pre {
                        self.maintain_after_update(&pre_universe, pv)?;
                        if self.fresh_at.is_some() {
                            return Ok(self.last_stats.clone());
                        }
                    }
                }
                return self.refresh_views_incremental(&changed);
            }
        }
        self.refresh_views()
    }

    /// Incremental refresh: re-derives only the rules (transitively)
    /// affected by the given base changes. Unaffected views keep their
    /// materialised state untouched.
    fn refresh_views_incremental(
        &mut self,
        changes: &[idl_storage::ChangeScope],
    ) -> Result<FixpointStats, EngineError> {
        let Some(compiled) = &self.compiled else {
            return self.refresh_views();
        };
        let mask = compiled.dirty_mask(changes);
        if !mask.iter().any(|&d| d) {
            if self.sys_enabled {
                schema::install_sys_catalog(&mut self.store, &self.schemas)?;
            }
            self.mark_fresh();
            return Ok(FixpointStats::default());
        }
        // Drop exactly the dirty heads so deletions propagate.
        let to_drop: Vec<idl_eval::rules::PredPat> = compiled
            .head_patterns()
            .iter()
            .zip(&mask)
            .filter(|(_, &d)| d)
            .map(|(p, _)| p.clone())
            .collect();
        for pat in to_drop {
            match (&pat.db, &pat.rel) {
                (Some(db), Some(rel)) if self.store.relation(db.as_str(), rel.as_str()).is_ok() => {
                    self.store.drop_relation(db.as_str(), rel.as_str())?;
                }
                (Some(db), None) if self.store.has_database(db.as_str()) => {
                    self.store.drop_database(db.as_str())?;
                }
                _ => {}
            }
        }
        let compiled = self.compiled.as_ref().expect("checked above");
        let mut stats = compiled.materialize_cached(
            &mut self.store,
            self.options.eval,
            Some(&mask),
            Some(&mut self.plan_cache),
        )?;
        // Masked refresh: rules outside the mask never ran, so their
        // data-dependent relations are absent from this run's log — the
        // seen-set is unioned, not replaced.
        self.apply_schematic_deltas(&mut stats, false);
        if self.sys_enabled {
            schema::install_sys_catalog(&mut self.store, &self.schemas)?;
        }
        self.maintained = MaintainedViews::recompute(&self.store, &self.derived, &self.rules);
        stats.maintenance.support_entries = self.maintained.entry_count();
        self.mark_fresh();
        self.last_stats = stats.clone();
        Ok(stats)
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

    /// The memoized plan cache's counters (hits, misses, resident plans) —
    /// what the B3/B4 benches report as the warm-refresh hit rate.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Evaluates a parsed request without the engine conveniences (no view
    /// refresh). Used by benches that control refresh manually.
    pub fn run_raw(&mut self, req: &Request) -> Result<(AnswerSet, UpdateStats), EngineError> {
        let o = run_request_cached(
            &mut self.store,
            &self.programs,
            &self.derived,
            req,
            self.options.eval,
            Some(&mut self.plan_cache),
        )?;
        if o.stats.total() > 0 {
            self.fresh_at = None;
        }
        Ok((o.answers, o.stats))
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

    /// A seeded substitution variant of [`Engine::query`] for parameterised
    /// reuse of one parsed request.
    pub fn query_with(&mut self, req: &Request, seed: &Subst) -> Result<AnswerSet, EngineError> {
        if self.options.auto_refresh {
            self.refresh_views_if_stale()?;
        }
        let substs = if self.options.eval.compile {
            let plan = self.plan_cache.get_or_compile(&req.items, self.options.eval)?;
            let ev = idl_eval::Evaluator::new(&self.store, self.options.eval);
            ev.eval_compiled(&plan, vec![seed.clone()])?
        } else {
            let ev = idl_eval::Evaluator::new(&self.store, self.options.eval);
            ev.eval_items(&req.items, vec![seed.clone()])?
        };
        let vars = req.vars();
        let named: BTreeSet<_> = vars.into_iter().filter(|v| !v.is_gensym()).collect();
        Ok(substs.into_iter().map(|s| s.project(&named)).collect())
    }
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
    fn query_rejects_clauses() {
        let mut e = engine();
        assert!(matches!(
            e.query(".a.b(.x=X) <- .euter.r(.stkCode=X)"),
            Err(EngineError::Usage(_))
        ));
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
        use idl_storage::schema::{AttrDecl, RelationSchema};
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
        use idl_storage::schema::RelationSchema;
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
    fn incremental_refresh_rederives_only_affected_views() {
        // two independent view families: one reads euter, one reads chwab
        let rules = "
            .vE.all(.stk=S) <- .euter.r(.stkCode=S) ;
            .vC.days(.d=D) <- .chwab.r(.date=D) ;
        ";
        let mut e = engine();
        // Pin maintenance off: this test exercises the refresh path.
        e.set_options(EngineOptions::builder().maintain(false).build());
        e.add_rules(rules).unwrap();
        e.refresh_views().unwrap(); // full initial build
                                    // touch only euter
        e.update("?.euter.r+(.date=3/9/85,.stkCode=zz,.clsPrice=1)").unwrap();
        let stats = e.refresh_views_if_stale().unwrap();
        assert!(stats.rule_evals >= 1);
        assert!(
            stats.rule_evals <= 2,
            "only the euter-reading rule re-evaluates (+1 quiescence check): {stats:?}"
        );
        // both views correct afterwards
        assert!(e.query("?.vE.all(.stk=zz)").unwrap().is_true());
        assert_eq!(e.query("?.vC.days(.d=D)").unwrap().len(), 2);

        // deletions propagate too
        e.update("?.euter.r-(.stkCode=zz)").unwrap();
        e.refresh_views_if_stale().unwrap();
        assert!(!e.query("?.vE.all(.stk=zz)").unwrap().is_true());
    }

    #[test]
    fn stale_refresh_repairs_through_the_maintenance_pass() {
        // An update applied with maintenance off leaves the views stale;
        // re-enabling maintenance before the refresh lets the stale path
        // recover the row delta from the freshness snapshot and absorb it
        // as a maintenance pass instead of a drop-and-rebuild.
        let mut e = engine();
        e.add_rules(UNIFIED).unwrap();
        e.refresh_views().unwrap();
        e.set_options(EngineOptions::builder().maintain(false).build());
        e.update("?.euter.r+(.date=3/9/85,.stkCode=zz,.clsPrice=7)").unwrap();
        assert!(!e.views_fresh_now());
        e.set_options(EngineOptions::builder().maintain(true).build());
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
    fn rule_bodies_compile_once_per_refresh() {
        let mut e = engine();
        // Plan counters only move on the compiled path.
        e.set_options(EngineOptions::builder().compile(true).build());
        e.add_rules(UNIFIED).unwrap();
        e.add_rules(".dbO.S(.date=D,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P) ;").unwrap();
        // Cold refresh: each of the four bodies is compiled exactly once,
        // even though the fixpoint runs more evaluations than that.
        let cold = e.refresh_views().unwrap();
        assert_eq!(cold.plans_compiled, 4, "{cold:?}");
        assert_eq!(cold.plan_cache_misses, 4, "{cold:?}");
        assert_eq!(cold.plan_cache_hits, 0, "{cold:?}");
        assert!(cold.rule_evals >= cold.plans_compiled, "{cold:?}");
        // Warm refresh: every body comes from the engine's memoized cache.
        let warm = e.refresh_views().unwrap();
        assert_eq!(warm.plans_compiled, 0, "{warm:?}");
        assert_eq!(warm.plan_cache_hits, 4, "{warm:?}");
        assert!(e.plan_cache().hits() >= 4);
        // The tree-walk reference mode compiles nothing and derives the
        // same views.
        let mut interp = engine();
        interp.set_options(EngineOptions::builder().compile(false).build());
        interp.add_rules(UNIFIED).unwrap();
        let stats = interp.refresh_views().unwrap();
        assert_eq!(stats.plans_compiled, 0, "{stats:?}");
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
    fn incremental_matches_full_refresh() {
        let mk = |incremental: bool| {
            let mut e = engine();
            // Maintenance off on both sides: this differential targets
            // incremental *refresh* vs full refresh (maintenance has its
            // own differential battery).
            e.set_options(EngineOptions {
                incremental_refresh: incremental,
                ..EngineOptions::builder().maintain(false).build()
            });
            e.add_rules(UNIFIED).unwrap();
            e.add_rules(".dbO.S(.date=D,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P) ;")
                .unwrap();
            e
        };
        let mut inc = mk(true);
        let mut full = mk(false);
        for upd in [
            "?.euter.r+(.date=3/9/85,.stkCode=zz,.clsPrice=7)",
            "?.ource.hp-(.date=3/3/85)",
            "?.chwab.r(.date=3/4/85, .ibm-=X)",
            "?.euter.r-(.stkCode=hp)",
        ] {
            inc.update(upd).unwrap();
            full.update(upd).unwrap();
            let a = inc.query("?.dbI.p(.date=D,.stk=S,.clsPrice=P)").unwrap();
            let b = full.query("?.dbI.p(.date=D,.stk=S,.clsPrice=P)").unwrap();
            assert_eq!(a, b, "after {upd}");
            let a = inc.query("?.dbO.Y").unwrap();
            let b = full.query("?.dbO.Y").unwrap();
            assert_eq!(a, b, "dbO after {upd}");
        }
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

    #[test]
    fn schematic_delta_invalidates_only_overlapping_plans() {
        let mut e = engine();
        // Compiled semi-naive with maintenance off: this test exercises
        // the refresh path's schematic-delta accounting.
        e.set_options(
            EngineOptions::builder().compile(true).semi_naive(true).maintain(false).build(),
        );
        e.add_rules(UNIFIED).unwrap();
        e.add_rules(
            ".dbO.S(.date=D,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P), S != date ;",
        )
        .unwrap();
        // First build: there was no schema before it, so every
        // data-dependent relation is schematic.
        let first = e.refresh_views().unwrap();
        assert_eq!(first.schematic_deltas, 2, "dbO.hp and dbO.ibm: {first:?}");
        // Warm two query plans: one with a higher-order (variable)
        // relation position over dbO, one pinned to dbO.hp.
        e.query("?.dbO.Y(.clsPrice=P)").unwrap();
        e.query("?.dbO.hp(.clsPrice=P)").unwrap();
        let resident = e.plan_cache().len();
        // A price update for an existing stock re-materialises the same
        // relations: nothing is schematic, nothing is invalidated.
        e.update("?.euter.r+(.date=3/9/85,.stkCode=hp,.clsPrice=70)").unwrap();
        let s = e.refresh_views_if_stale().unwrap();
        assert_eq!(s.schematic_deltas, 0, "{s:?}");
        assert_eq!(s.plan_invalidations, 0, "{s:?}");
        assert_eq!(e.plan_cache().len(), resident);
        // A brand-new stock materialises dbO.sun for the first time: the
        // variable-relation plan must be recompiled (it now has one more
        // relation to scan), the dbO.hp-only plan keeps its compiled form.
        e.update("?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=30)").unwrap();
        let s = e.refresh_views_if_stale().unwrap();
        assert_eq!(s.schematic_deltas, 1, "only dbO.sun is new: {s:?}");
        assert_eq!(s.plan_invalidations, 1, "only the .dbO.Y plan: {s:?}");
        assert_eq!(e.plan_cache().len(), resident - 1);
        // And the recompiled plan sees the newcomer.
        let rels = e.query("?.dbO.Y(.clsPrice=P)").unwrap();
        assert!(rels.column("Y").contains(&Value::str("sun")), "{rels}");
    }

    #[test]
    fn update_maintains_views_without_refresh() {
        let mut e = engine();
        e.set_options(EngineOptions::builder().maintain(true).build());
        e.add_rules(UNIFIED).unwrap();
        e.query("?.dbI.p(.stk=hp)").unwrap(); // initial build
        assert_eq!(e.maintenance_runs(), 0);
        e.update("?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=7)").unwrap();
        // The update maintained in place: no staleness, no refresh later.
        assert_eq!(e.maintenance_runs(), 1);
        let v = e.store().version();
        assert!(e.query("?.dbI.p(.stk=sun,.clsPrice=7)").unwrap().is_true());
        assert_eq!(e.store().version(), v, "query did not re-materialise");
        let m = &e.last_fixpoint_stats().maintenance;
        assert_eq!(m.views_maintained, 1, "{m:?}");
        assert!(m.delta_rules_run >= 1, "{m:?}");
        assert_eq!(m.support_entries, 1, "{m:?}");
        // Retraction maintains too (exact rederivation deletes the row).
        e.update("?.euter.r-(.stkCode=sun)").unwrap();
        assert_eq!(e.maintenance_runs(), 2);
        let v = e.store().version();
        assert!(!e.query("?.dbI.p(.stk=sun)").unwrap().is_true());
        assert_eq!(e.store().version(), v);
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
        // Warm a higher-order plan so create/GC invalidation is visible.
        e.query("?.dbO.Y(.clsPrice=P)").unwrap();
        // New stock: maintenance materialises dbO.sun incrementally.
        e.update("?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=30)").unwrap();
        let m = e.last_fixpoint_stats().maintenance.clone();
        assert_eq!(m.schematic_creates, 1, "{m:?}");
        let v = e.store().version();
        let rels = e.query("?.dbO.Y").unwrap();
        assert!(rels.column("Y").contains(&Value::str("sun")), "{rels}");
        assert_eq!(e.store().version(), v, "probe against maintained views");
        // Retracting the stock's only quote GCs the relation again.
        e.update("?.euter.r-(.stkCode=sun)").unwrap();
        let m = e.last_fixpoint_stats().maintenance.clone();
        assert_eq!(m.schematic_gcs, 1, "{m:?}");
        let rels = e.query("?.dbO.Y").unwrap();
        assert!(!rels.column("Y").contains(&Value::str("sun")), "{rels}");
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
        assert_eq!(e.maintenance_runs(), 0);
        assert!(e.query("?.dbI.p(.stk=hp)").unwrap().is_true(), "hp survives via euter/ource");
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
