//! Rules and higher-order views (§6).
//!
//! A rule `head <- body` makes `headσ` true for every grounding σ of the
//! body. Because heads may contain higher-order variables in attribute
//! position, a single rule can define a *data-dependent number* of
//! relations — the paper's `dbO` customized view materialises one relation
//! per stock present anywhere in the universe.
//!
//! ## Stratification
//!
//! Negation in bodies requires stratified evaluation (the paper defers
//! formal semantics to \[KLK90\], which is stratified). Rules are abstracted
//! to *predicate patterns* — `(db, rel)` pairs where a higher-order
//! variable widens a component to "any" — and the dependency graph over
//! those patterns is checked: a negative dependency inside a recursive
//! component is rejected.
//!
//! ## Fixpoint
//!
//! Derived facts are written into the same store (the engine marks those
//! databases as derived and guards them against direct updates, §7.1).
//! Within a stratum, rules are iterated to quiescence. In *semi-naive*
//! mode (default) evaluation is delta-driven: each iteration logs exactly
//! which relations gained which rows ([`crate::delta`]), a rule is
//! re-evaluated in iteration *k* only if something it reads changed in
//! iteration *k−1*, and an eligible rule re-runs as `(Δ ⋈ full)` plan
//! variants over just the new rows instead of the full body. The naive
//! re-run-everything mode stays reachable via
//! [`EvalOptions::semi_naive`] as the reference for the differential
//! battery and the B8/B11 ablation benches.

use crate::compile::{compile_items, plan_flags};
use crate::delta::{DeltaLog, DeltaSink, DeltaTable};
use crate::error::{EvalError, EvalResult};
use crate::physical::CompiledItems;
use crate::query::{EvalOptions, Evaluator};
use crate::subst::Subst;
use crate::update::materialize;
use idl_lang::{AttrTerm, Expr, Field, RelOp, Rule};
use idl_object::{Atom, Name, SharingCounters, Value};
use idl_storage::{ChangeScope, Store};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

/// Errors detected when a rule set is installed.
#[derive(Clone, PartialEq, Debug)]
pub enum RuleSetError {
    /// The head's database position must be a constant name.
    HeadDbNotConstant(String),
    /// Negation through recursion: not stratifiable.
    NotStratified(String),
    /// A rule failed structural validation.
    BadRule(String),
}

impl fmt::Display for RuleSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleSetError::HeadDbNotConstant(r) => {
                write!(f, "rule head database position must be constant: {r}")
            }
            RuleSetError::NotStratified(m) => write!(f, "not stratified: {m}"),
            RuleSetError::BadRule(m) => write!(f, "bad rule: {m}"),
        }
    }
}

impl std::error::Error for RuleSetError {}

/// `(db, rel)` pattern; `None` components mean "any" (higher-order
/// variable in that position).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PredPat {
    /// Database component (`None` = variable).
    pub db: Option<Name>,
    /// Relation component (`None` = variable).
    pub rel: Option<Name>,
}

impl PredPat {
    /// Whether two patterns can denote a common `(db, rel)` predicate
    /// (`None` components match anything).
    pub fn overlaps(&self, other: &PredPat) -> bool {
        let db_ok = match (&self.db, &other.db) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        let rel_ok = match (&self.rel, &other.rel) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        db_ok && rel_ok
    }

    /// Whether the pattern denotes the concrete predicate `db.rel`.
    pub fn matches(&self, db: &Name, rel: &Name) -> bool {
        self.db.as_ref().is_none_or(|x| x == db) && self.rel.as_ref().is_none_or(|x| x == rel)
    }
}

/// A reference to a predicate from a rule body, with polarity.
#[derive(Clone, Debug)]
pub(crate) struct BodyRef {
    pub(crate) pat: PredPat,
    pub(crate) negated: bool,
}

/// How much of a database is derived (view-materialised).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DerivedScope {
    /// Every relation (a higher-order head defines data-dependent relation
    /// names, so the whole database belongs to the view layer).
    WholeDb,
    /// Only these named relations; the rest of the database is base data.
    Rels(BTreeSet<Name>),
}

/// Which parts of the universe are derived by rules. Relation-granular, so
/// a view may live alongside base relations in the same database (like
/// §2's `empMgr` next to `emp`/`dept`).
#[derive(Clone, Default, PartialEq, Debug)]
pub struct DerivedCatalog {
    map: std::collections::BTreeMap<Name, DerivedScope>,
}

impl DerivedCatalog {
    /// Nothing derived.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds the catalog from head patterns: a constant `(db, rel)` marks
    /// one relation; a variable relation position marks the whole database.
    pub fn from_patterns<'p>(pats: impl IntoIterator<Item = &'p PredPat>) -> Self {
        let mut cat = DerivedCatalog::default();
        for p in pats {
            let Some(db) = &p.db else { continue };
            match (&p.rel, cat.map.get_mut(db)) {
                (None, _) => {
                    cat.map.insert(db.clone(), DerivedScope::WholeDb);
                }
                (_, Some(DerivedScope::WholeDb)) => {}
                (Some(rel), Some(DerivedScope::Rels(set))) => {
                    set.insert(rel.clone());
                }
                (Some(rel), None) => {
                    let mut set = BTreeSet::new();
                    set.insert(rel.clone());
                    cat.map.insert(db.clone(), DerivedScope::Rels(set));
                }
            }
        }
        cat
    }

    /// Whether anything is derived at all.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether the whole database is view territory.
    pub fn covers_db_entirely(&self, db: &str) -> bool {
        matches!(self.map.get(db), Some(DerivedScope::WholeDb))
    }

    /// Whether this database contains *any* derived relation.
    pub fn touches_db(&self, db: &str) -> bool {
        self.map.contains_key(db)
    }

    /// Whether a specific relation is derived.
    pub fn covers_relation(&self, db: &str, rel: &str) -> bool {
        match self.map.get(db) {
            Some(DerivedScope::WholeDb) => true,
            Some(DerivedScope::Rels(set)) => set.contains(rel),
            None => false,
        }
    }

    /// Whether a `(db, rel)` pattern can name derived state (a variable
    /// position matches anything).
    pub fn overlaps(&self, pat: &PredPat) -> bool {
        match (&pat.db, &pat.rel) {
            (None, _) => !self.map.is_empty(),
            (Some(db), None) => self.touches_db(db.as_str()),
            (Some(db), Some(rel)) => self.covers_relation(db.as_str(), rel.as_str()),
        }
    }

    /// Whether an update with this change scope could write derived state
    /// (and must therefore be rejected / routed through a view-update
    /// program). Conservative for coarse scopes.
    pub fn guards_update(&self, scope: &idl_storage::ChangeScope) -> bool {
        match scope {
            idl_storage::ChangeScope::Relation { db, rel } => {
                self.covers_relation(db.as_str(), rel.as_str())
            }
            idl_storage::ChangeScope::Database { db } => self.touches_db(db.as_str()),
            idl_storage::ChangeScope::Universe => !self.map.is_empty(),
        }
    }

    /// Whether a journalled change can have touched *base* data (and so
    /// views must be re-derived). Derived-only writes return false.
    pub fn is_base_change(&self, scope: &idl_storage::ChangeScope) -> bool {
        match scope {
            idl_storage::ChangeScope::Relation { db, rel } => {
                !self.covers_relation(db.as_str(), rel.as_str())
            }
            idl_storage::ChangeScope::Database { db } => !self.covers_db_entirely(db.as_str()),
            idl_storage::ChangeScope::Universe => true,
        }
    }

    /// Iterates `(database, scope)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &DerivedScope)> {
        self.map.iter()
    }
}

/// Statistics from one materialisation run.
///
/// `iterations` / `rule_evals` depend on the evaluation schedule and so
/// may differ between thread counts (the parallel schedule evaluates
/// every runnable rule against the iteration-start snapshot, the
/// sequential one sees intra-iteration writes); the derived *store
/// contents* never do.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct FixpointStats {
    /// Fixpoint iterations across all strata.
    pub iterations: usize,
    /// Rule-body evaluations performed.
    pub rule_evals: usize,
    /// New facts (make-true operations that changed the universe).
    pub facts_added: usize,
    /// Rule bodies compiled to the physical plan IR this run: the rule
    /// count on the first run of a rule set under a plan shape, 0 on every
    /// later run — plans live with the rule set and are shared across
    /// runs, fixpoint iterations and worker threads.
    pub plans_compiled: usize,
    /// Rule evaluations *avoided* by semi-naive scheduling: a rule in an
    /// iterating stratum whose body predicates saw no delta is skipped.
    pub rules_skipped: usize,
    /// Evaluations driven by Δ rows: task evaluations that ran a
    /// `(Δ ⋈ full)` delta variant instead of the full body (counting
    /// shards — see `StratumStats::workers`), and a view repair's victim
    /// queries (the same variants, positive over Δ⁻ and negated over Δ⁺)
    /// and seeded support checks.
    pub delta_evals: usize,
    /// Evaluations of a rule over its whole input (first iterations,
    /// scalar heads, coarse changes, and delta-ineligible plans).
    pub full_evals: usize,
    /// Every relation/database slot this run created as a side effect of
    /// deriving facts (data-dependent heads only — constant-head
    /// skeletons are pre-created and never listed): a new stock in
    /// `euter` creates a new `dbO` relation. Sorted, deduplicated.
    pub new_relations: Vec<PredPat>,
    /// Per-stratum telemetry, in evaluation (bottom-up) order. A repair
    /// pass lists only the strata it ran.
    pub strata: Vec<StratumStats>,
    /// Incremental view repair counters ([`crate::maintain`]); all
    /// zero when the run was a refresh rather than a maintenance pass.
    pub maintenance: MaintenanceStats,
    /// Structural-sharing activity during this run: O(1) handle clones,
    /// copy-on-write breaks, pointer-equality comparison hits — the delta
    /// of the process-wide [`SharingCounters`] over the run (concurrent
    /// engines in the same process bleed into it; in practice a refresh
    /// dominates its own window).
    pub sharing: SharingCounters,
}

impl FixpointStats {
    /// Fraction of this run's O(1) handle clones whose sharing was never
    /// broken by a copy-on-write deep copy (`1.0` = every clone stayed
    /// shared; see [`SharingCounters::sharing_hit_rate`]).
    pub fn sharing_hit_rate(&self) -> f64 {
        self.sharing.sharing_hit_rate()
    }
}

/// Counters for one incremental view repair pass ([`crate::maintain`]):
/// how much derived state the repaired writes touched without a full
/// re-derivation.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Distinct derived `(db, rel)` slots whose contents this pass
    /// changed (inserted into, deleted from, created or GC'd).
    pub views_maintained: usize,
    /// Rule evaluations the pass ran: `(Δ ⋈ full)` insert variants,
    /// deletion-cascade victim queries (the rule's positive or negated
    /// `(Δ ⋈ full)` variants over the round's Δ⁻ or Δ⁺) and seeded support
    /// checks, and any full re-run of a rule reading a shrunk relation
    /// under negation.
    pub delta_rules_run: usize,
    /// Data-dependent relations the pass created (schematic creates — a
    /// new stock defines a new relation): its `new_relations` count.
    pub schematic_creates: usize,
    /// Data-dependent relations the pass emptied and garbage-collected
    /// (schematic GCs — the last quote for a stock was retracted).
    pub schematic_gcs: usize,
}

impl MaintenanceStats {
    /// Whether the pass did anything at all.
    pub fn any(&self) -> bool {
        *self != MaintenanceStats::default()
    }
}

/// Telemetry for one stratum of one materialisation run.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct StratumStats {
    /// Rules in the stratum.
    pub rules: usize,
    /// Fixpoint iterations this stratum ran.
    pub iterations: usize,
    /// Most worker threads used by any iteration (1 = sequential path).
    pub workers: usize,
    /// Rule-body evaluations per worker, indexed by worker. The sequential
    /// path accumulates everything into index 0.
    pub rule_evals_per_worker: Vec<usize>,
    /// Rule evaluations skipped in this stratum (no body delta).
    pub rules_skipped: usize,
    /// `(Δ ⋈ full)` task evaluations in this stratum.
    pub delta_evals: usize,
    /// Wall-clock time spent on this stratum.
    pub wall: std::time::Duration,
    /// Structural-sharing activity (clones / CoW breaks / pointer-equality
    /// hits) during this stratum, as a process-wide counter delta.
    pub sharing: SharingCounters,
}

/// Compiled, stratified rule set.
#[derive(Debug)]
pub struct RuleEngine {
    pub(crate) rules: Vec<Rule>,
    pub(crate) head_pats: Vec<PredPat>,
    pub(crate) body_refs: Vec<Vec<BodyRef>>,
    /// Rule indices grouped by stratum, bottom-up.
    pub(crate) strata: Vec<Vec<usize>>,
    /// Iteration safety bound.
    pub max_iterations: usize,
    /// The rule bodies' plans and `(Δ ⋈ full)` variants, one set per plan
    /// shape ([`plan_flags`]), each compiled on first use. A plan reads
    /// only its body and the plan-shaping options, never a store, so a
    /// relation that a run creates or drops leaves every plan valid: a
    /// variable relation position simply enumerates one more or one less.
    plan_sets: [OnceLock<EvalResult<PlanSet>>; 4],
}

impl RuleEngine {
    /// Compiles and stratifies a rule set.
    pub fn new(rules: Vec<Rule>) -> Result<Self, RuleSetError> {
        for r in &rules {
            r.validate().map_err(|e| RuleSetError::BadRule(e.to_string()))?;
        }
        let head_pats: Vec<PredPat> = rules
            .iter()
            .map(|r| {
                let p = head_pattern(&r.head);
                match p.db {
                    Some(_) => Ok(p),
                    None => Err(RuleSetError::HeadDbNotConstant(r.to_string())),
                }
            })
            .collect::<Result<_, _>>()?;
        let body_refs: Vec<Vec<BodyRef>> = rules
            .iter()
            .map(|r| {
                let mut refs = Vec::new();
                for item in &r.body {
                    collect_refs(item, false, &mut refs);
                }
                refs
            })
            .collect();
        let strata = stratify(&head_pats, &body_refs)?;
        Ok(RuleEngine {
            rules,
            head_pats,
            body_refs,
            strata,
            max_iterations: 10_000,
            plan_sets: Default::default(),
        })
    }

    /// The rules, in installation order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of strata.
    pub fn stratum_count(&self) -> usize {
        self.strata.len()
    }

    /// The database names this rule set derives into (they should be
    /// cleared before materialisation and protected from direct updates).
    pub fn derived_databases(&self) -> BTreeSet<Name> {
        self.head_pats.iter().filter_map(|p| p.db.clone()).collect()
    }

    /// Relation-granular derived catalog for this rule set.
    pub fn derived_catalog(&self) -> DerivedCatalog {
        DerivedCatalog::from_patterns(self.head_pats.iter())
    }

    /// Materialises all views into the store (which also holds the base
    /// data). Derived databases are *not* cleared here — the caller decides
    /// whether this is a fresh build or a re-derivation.
    ///
    /// With [`EvalOptions::compile`] on, every rule body runs from the rule
    /// set's own plan set, compiled on the first run and shared by every
    /// later run, fixpoint iteration and worker thread. Off, bodies run
    /// through the tree walk and nothing compiles.
    pub fn materialize(&self, store: &mut Store, opts: EvalOptions) -> EvalResult<FixpointStats> {
        let sharing_before = SharingCounters::snapshot();
        let mut stats = FixpointStats::default();
        let set = if opts.compile { Some(self.plan_set(opts, &mut stats)?) } else { None };
        self.run_fixpoint(store, opts, set, &mut stats)?;
        stats.new_relations.sort();
        stats.new_relations.dedup();
        stats.sharing = SharingCounters::snapshot().delta_since(&sharing_before);
        Ok(stats)
    }

    /// The plan set for `opts`' plan shape, compiled on first use; the run
    /// that compiles it counts its rule bodies in
    /// [`FixpointStats::plans_compiled`]. Shared by [`RuleEngine::materialize`]
    /// and the repair pass ([`crate::maintain`]), which finds retraction
    /// victims with the same variants, positive and negated.
    pub(crate) fn plan_set(
        &self,
        opts: EvalOptions,
        stats: &mut FixpointStats,
    ) -> EvalResult<&PlanSet> {
        let mut compiled = false;
        let set = self.plan_sets[usize::from(plan_flags(opts))].get_or_init(|| {
            compiled = true;
            self.compile_plan_set(opts)
        });
        if compiled {
            stats.plans_compiled += self.rules.len();
        }
        set.as_ref().map_err(Clone::clone)
    }

    /// Compiles one plan per rule body, indexed like `rules`, and the
    /// bodies' `(Δ ⋈ full)` variants.
    fn compile_plan_set(&self, opts: EvalOptions) -> EvalResult<PlanSet> {
        let plans = self
            .rules
            .iter()
            .map(|rule| compile_items(&rule.body, opts))
            .collect::<EvalResult<Vec<_>>>()?;
        // (Δ ⋈ full) plan variants: one per relation-scan occurrence of
        // the body, positive and negated. A rule has variants of a sign
        // only when its occurrences of that sign line up one-to-one with
        // its body references of that sign (the conservative check —
        // aggregate bindings and other shapes the occurrence analysis
        // cannot account for fall back to full re-evaluation, or make a
        // repair bail) and its head has no scalar (`=`) write, whose
        // last-write-wins semantics a restricted evaluation could reorder.
        let mut variants: Vec<Variants> = vec![Vec::new(); self.rules.len()];
        let mut negated: Vec<Variants> = vec![Vec::new(); self.rules.len()];
        for (i, (rule, plan)) in self.rules.iter().zip(&plans).enumerate() {
            if head_is_scalar(&rule.head) {
                continue;
            }
            let lines_up = |occs: &[PredPat], negated: bool| {
                let mut occs = occs.to_vec();
                occs.sort();
                let mut refs: Vec<PredPat> = self.body_refs[i]
                    .iter()
                    .filter(|b| b.negated == negated)
                    .map(|b| b.pat.clone())
                    .collect();
                refs.sort();
                !occs.is_empty() && occs == refs
            };
            let occs = plan.delta_occurrences();
            if lines_up(&occs, false) {
                variants[i] = occs
                    .into_iter()
                    .enumerate()
                    .map(|(k, pat)| (pat, plan.delta_variant(k)))
                    .collect();
            }
            let occs = plan.negated_occurrences();
            if lines_up(&occs, true) {
                negated[i] = occs
                    .into_iter()
                    .enumerate()
                    .map(|(k, pat)| (pat, plan.negated_delta_variant(k)))
                    .collect();
            }
        }
        Ok(PlanSet { plans, variants, negated })
    }

    fn run_fixpoint(
        &self,
        store: &mut Store,
        opts: EvalOptions,
        set: Option<&PlanSet>,
        stats: &mut FixpointStats,
    ) -> EvalResult<()> {
        // Views exist even when empty: create the skeleton of every head
        // whose (db, rel) is fully constant. (Data-dependent heads create
        // their relations as facts arrive.)
        for pat in &self.head_pats {
            if let (Some(db), Some(rel)) = (&pat.db, &pat.rel) {
                if store.relation(db.as_str(), rel.as_str()).is_err() {
                    store
                        .create_relation(db.clone(), rel.clone())
                        .map_err(|e| EvalError::Storage(e.to_string()))?;
                }
            } else if let Some(db) = &pat.db {
                if !store.has_database(db.as_str()) {
                    store
                        .create_database(db.clone())
                        .map_err(|e| EvalError::Storage(e.to_string()))?;
                }
            }
        }
        for stratum in &self.strata {
            self.run_stratum(store, stratum, opts, set, stats, None, None)?;
        }
        Ok(())
    }

    /// Runs one stratum to quiescence with semi-naive, delta-driven task
    /// scheduling (DESIGN.md "Semi-naive delta scheduling").
    ///
    /// Each iteration builds a **task list**: rules whose body saw no
    /// delta are skipped; an eligible rule with concrete row deltas
    /// contributes one `(Δ ⋈ full)` task per overlapping body occurrence
    /// (sharded across spare workers); everything else contributes one
    /// full-evaluation task (every rule, without a plan set: the tree walk
    /// has no variants). With `opts.threads <= 1` tasks run in slot
    /// order and each rule's merge lands before the next rule evaluates
    /// (the classic chaotic / Gauss-Seidel schedule — a derivation that
    /// misses the delta window is caught next iteration, since its
    /// premise is in that iteration's delta). With more threads each
    /// iteration is a Jacobi step: workers pull tasks from an atomic
    /// cursor and evaluate against the *iteration-start* store (readers
    /// share `&Store`; nothing writes during the scan); the worker that
    /// finishes a rule's **last** task reduces that rule's task outputs
    /// (concatenate, sort, deduplicate — order-independent), and the
    /// reduced sets are merged into the store **sequentially in ascending
    /// rule order**. Within a stratum all intra-stratum dependencies are
    /// positive, so both schedules are inflationary over set-valued state
    /// and converge to the same least fixpoint; the deterministic
    /// reduction + merge order keeps the result bit-identical across
    /// worker counts, and rules with scalar (`=`) heads always run as
    /// full evaluations so last-write-wins stays schedule-independent.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_stratum(
        &self,
        store: &mut Store,
        stratum: &[usize],
        opts: EvalOptions,
        set: Option<&PlanSet>,
        stats: &mut FixpointStats,
        seed: Option<DeltaLog>,
        mut accum: Option<&mut DeltaLog>,
    ) -> EvalResult<()> {
        let started = std::time::Instant::now();
        let sharing_before = SharingCounters::snapshot();
        let semi = opts.semi_naive;
        let variants: &[Variants] = set.map_or(&[], |set| &set.variants);
        let thread_cap = opts.threads.max(1);
        let mut sstats = StratumStats {
            rules: stratum.len(),
            workers: 1,
            rule_evals_per_worker: vec![0],
            ..StratumStats::default()
        };
        // What the previous iteration changed. `None` = first round (or
        // naive mode, which re-runs everything until quiescence). A
        // maintenance pass seeds this with the update's own delta so the
        // very first round is already delta-driven.
        let mut last_delta: Option<DeltaLog> = seed;
        let outcome = loop {
            stats.iterations += 1;
            sstats.iterations += 1;
            if stats.iterations > self.max_iterations {
                break Err(EvalError::FixpointDiverged(self.max_iterations));
            }
            // Which rules run this iteration (semi-naive wake filter).
            // Coarse patterns wake any body reference; concrete row-level
            // deltas wake only *positive* references — within a stratum
            // negated references never overlap the stratum's own deltas
            // (stratification), and a maintenance seed encodes deletions
            // feeding negation as coarse patterns, so row deltas reaching
            // a negated reference can never enable a new derivation.
            let runnable: Vec<usize> = stratum
                .iter()
                .copied()
                .filter(|&ri| match last_delta.as_ref() {
                    Some(d) if semi => self.body_refs[ri].iter().any(|br| {
                        d.coarse_overlaps(&br.pat)
                            || (!br.negated
                                && d.rels.keys().any(|(db, rel)| br.pat.matches(db, rel)))
                    }),
                    _ => true,
                })
                .collect();
            if semi && last_delta.is_some() {
                let skipped = stratum.len() - runnable.len();
                stats.rules_skipped += skipped;
                sstats.rules_skipped += skipped;
            }
            if runnable.is_empty() {
                break Ok(());
            }
            // Per rule: delta occurrences to run, or `None` = full
            // evaluation. Delta mode requires eligibility, concrete row
            // deltas, and no coarse (non-row-representable) change
            // overlapping the body.
            let slot_occs: Vec<Option<Vec<usize>>> = runnable
                .iter()
                .map(|&ri| {
                    let d = last_delta.as_ref()?;
                    if !semi || variants.get(ri).is_none_or(Vec::is_empty) || d.rels.is_empty() {
                        return None;
                    }
                    // A coarse change overlapping *any* body reference —
                    // either polarity — forces a full evaluation: the
                    // delta table cannot express what changed, and for a
                    // negated reference the change may *enable* rows the
                    // delta variants would never see.
                    if self.body_refs[ri].iter().any(|br| d.coarse_overlaps(&br.pat)) {
                        return None;
                    }
                    let occs: Vec<usize> = variants[ri]
                        .iter()
                        .enumerate()
                        .filter(|(_, (pat, _))| d.rels.keys().any(|(db, rel)| pat.matches(db, rel)))
                        .map(|(k, _)| k)
                        .collect();
                    if occs.is_empty() {
                        None
                    } else {
                        Some(occs)
                    }
                })
                .collect();
            let occ_count: usize = slot_occs.iter().filter_map(|o| o.as_ref().map(Vec::len)).sum();
            let full_count = slot_occs.iter().filter(|o| o.is_none()).count();
            // Shard delta occurrences across spare worker capacity: with
            // fewer tasks than workers, each occurrence's delta vector is
            // tiled into `shards` slices so the pool still saturates. No
            // more shards than the longest delta vector an occurrence
            // reads has rows: a further shard would be an empty slice.
            let shards = if thread_cap > 1 && occ_count > 0 && occ_count + full_count < thread_cap {
                let d = last_delta.as_ref().expect("delta tasks have a delta");
                let longest = runnable
                    .iter()
                    .zip(&slot_occs)
                    .flat_map(|(&ri, occs)| occs.iter().flatten().map(move |&k| &variants[ri][k].0))
                    .flat_map(|pat| {
                        d.rels.iter().filter(move |((db, rel), _)| pat.matches(db, rel))
                    })
                    .map(|(_, rows)| rows.len())
                    .max()
                    .unwrap_or(1);
                thread_cap.div_ceil(occ_count).min(longest).max(1)
            } else {
                1
            };
            let mut tasks: Vec<Task> = Vec::new();
            for (slot, occs) in slot_occs.iter().enumerate() {
                match occs {
                    None => tasks.push(Task { slot, pos: 0, kind: TaskKind::Full }),
                    Some(occs) => {
                        let mut pos = 0;
                        for &occ in occs {
                            for shard in 0..shards {
                                tasks.push(Task {
                                    slot,
                                    pos,
                                    kind: TaskKind::Delta { occ, shard, shards },
                                });
                                pos += 1;
                            }
                        }
                    }
                }
            }
            stats.rule_evals += tasks.len();
            stats.full_evals += full_count;
            stats.delta_evals += tasks.len() - full_count;
            sstats.delta_evals += tasks.len() - full_count;

            let mut sink = if semi { DeltaSink::new() } else { DeltaSink::disabled() };
            let mut any_new = false;
            let workers = thread_cap.min(tasks.len());
            if workers <= 1 {
                // Sequential: a slot's tasks are contiguous; evaluate
                // them, reduce, and merge before the next rule runs.
                let mut i = 0;
                while i < tasks.len() {
                    let slot = tasks[i].slot;
                    let mut union: Vec<Subst> = Vec::new();
                    while i < tasks.len() && tasks[i].slot == slot {
                        let substs = self.eval_task(
                            store,
                            opts,
                            &runnable,
                            set,
                            last_delta.as_ref().map(|d| &d.rels),
                            &tasks[i],
                        )?;
                        union.extend(substs);
                        sstats.rule_evals_per_worker[0] += 1;
                        i += 1;
                    }
                    union.sort();
                    union.dedup();
                    let added = self.merge_rule_delta(store, runnable[slot], &union, &mut sink)?;
                    if added > 0 {
                        stats.facts_added += added;
                        any_new = true;
                    }
                }
            } else {
                // Parallel: snapshot evaluation with a per-rule
                // last-finisher reduction, then ordered merge.
                sstats.workers = sstats.workers.max(workers);
                if sstats.rule_evals_per_worker.len() < workers {
                    sstats.rule_evals_per_worker.resize(workers, 0);
                }
                let reduced = self.eval_tasks_parallel(
                    store,
                    &runnable,
                    opts,
                    set,
                    last_delta.as_ref().map(|d| &d.rels),
                    &tasks,
                    workers,
                    &mut sstats.rule_evals_per_worker,
                );
                for (slot, result) in reduced.into_iter().enumerate() {
                    let substs = result?;
                    let added = self.merge_rule_delta(store, runnable[slot], &substs, &mut sink)?;
                    if added > 0 {
                        stats.facts_added += added;
                        any_new = true;
                    }
                }
            }
            if !any_new {
                break Ok(());
            }
            if semi {
                stats.new_relations.extend(sink.log.new_rels.iter().cloned());
                if let Some(acc) = accum.as_deref_mut() {
                    for ((db, rel), rows) in &sink.log.rels {
                        acc.rels
                            .entry((db.clone(), rel.clone()))
                            .or_default()
                            .extend(rows.iter().cloned());
                    }
                    acc.coarse.extend(sink.log.coarse.iter().cloned());
                    acc.new_rels.extend(sink.log.new_rels.iter().cloned());
                }
                last_delta = Some(sink.log);
            }
        };
        sstats.wall = started.elapsed();
        sstats.sharing = SharingCounters::snapshot().delta_since(&sharing_before);
        stats.strata.push(sstats);
        outcome
    }

    /// Evaluates one fixpoint task — a full body, or one shard of one
    /// `(Δ ⋈ full)` variant — returning the sorted, deduplicated
    /// substitution set.
    fn eval_task(
        &self,
        store: &Store,
        opts: EvalOptions,
        runnable: &[usize],
        set: Option<&PlanSet>,
        table: Option<&DeltaTable>,
        task: &Task,
    ) -> EvalResult<Vec<Subst>> {
        let ri = runnable[task.slot];
        let mut out = match &task.kind {
            TaskKind::Full => {
                let ev = Evaluator::new(store, opts);
                match set {
                    Some(set) => ev.eval_compiled(&set.plans[ri], vec![Subst::new()])?,
                    None => ev.eval_items(&self.rules[ri].body, vec![Subst::new()])?,
                }
            }
            TaskKind::Delta { occ, shard, shards } => {
                let table = table.expect("delta tasks require a previous iteration's delta");
                let set = set.expect("delta tasks run compiled variants");
                let ev = Evaluator::with_delta(store, opts, table, (*shard, *shards));
                ev.eval_compiled(&set.variants[ri][*occ].1, vec![Subst::new()])?
            }
        };
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Evaluates the iteration's tasks on a worker pool against the shared
    /// read-only store. Workers pull tasks from an atomic cursor, so
    /// scheduling is dynamic; the worker that completes a rule's *last*
    /// task reduces that rule's outputs (concatenate, sort, dedup —
    /// deterministic no matter which worker runs it), replacing the old
    /// single-threaded reassembly barrier. Results come back in `runnable`
    /// slot order for the caller's ascending merge.
    #[allow(clippy::too_many_arguments)]
    fn eval_tasks_parallel(
        &self,
        store: &Store,
        runnable: &[usize],
        opts: EvalOptions,
        set: Option<&PlanSet>,
        table: Option<&DeltaTable>,
        tasks: &[Task],
        workers: usize,
        evals_per_worker: &mut [usize],
    ) -> Vec<EvalResult<Vec<Subst>>> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let mut task_counts = vec![0usize; runnable.len()];
        for t in tasks {
            task_counts[t.slot] += 1;
        }
        type TaskSlot = Mutex<Option<EvalResult<Vec<Subst>>>>;
        let outputs: Vec<Vec<TaskSlot>> =
            task_counts.iter().map(|&n| (0..n).map(|_| Mutex::new(None)).collect()).collect();
        let remaining: Vec<AtomicUsize> =
            task_counts.iter().map(|&n| AtomicUsize::new(n)).collect();
        let reduced: Vec<TaskSlot> = (0..runnable.len()).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let counts: Vec<usize> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let outputs = &outputs;
                    let remaining = &remaining;
                    let reduced = &reduced;
                    scope.spawn(move |_| {
                        let mut n = 0usize;
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= tasks.len() {
                                break;
                            }
                            let task = &tasks[i];
                            let result = self.eval_task(store, opts, runnable, set, table, task);
                            *outputs[task.slot][task.pos].lock().expect("output slot") =
                                Some(result);
                            n += 1;
                            if remaining[task.slot].fetch_sub(1, Ordering::AcqRel) == 1 {
                                // Last finisher for this rule: reduce.
                                let mut union: Vec<Subst> = Vec::new();
                                let mut err = None;
                                for cell in &outputs[task.slot] {
                                    let taken = cell
                                        .lock()
                                        .expect("output slot")
                                        .take()
                                        .expect("task output present");
                                    match taken {
                                        Ok(substs) => union.extend(substs),
                                        Err(e) => {
                                            if err.is_none() {
                                                err = Some(e);
                                            }
                                        }
                                    }
                                }
                                let result = match err {
                                    Some(e) => Err(e),
                                    None => {
                                        union.sort();
                                        union.dedup();
                                        Ok(union)
                                    }
                                };
                                *reduced[task.slot].lock().expect("reduced slot") = Some(result);
                            }
                        }
                        n
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("fixpoint worker panicked")).collect()
        })
        .expect("crossbeam scope");
        for (w, n) in counts.into_iter().enumerate() {
            evals_per_worker[w] += n;
        }
        reduced
            .into_iter()
            .map(|m| {
                m.into_inner().expect("reduced lock").expect("every rule reduced exactly once")
            })
            .collect()
    }

    /// Applies one rule's substitution set to the store under the rule's
    /// change scope, recording what changed into `sink`. Returns how many
    /// facts were new.
    fn merge_rule_delta(
        &self,
        store: &mut Store,
        ri: usize,
        substs: &[Subst],
        sink: &mut DeltaSink,
    ) -> EvalResult<usize> {
        if substs.is_empty() {
            return Ok(0);
        }
        let head = &self.rules[ri].head;
        let scope = match &self.head_pats[ri].db {
            Some(db) => ChangeScope::Database { db: db.clone() },
            None => ChangeScope::Universe,
        };
        store.mutate(scope, |universe| -> EvalResult<usize> {
            let mut n = 0;
            for s in substs {
                n += make_true_logged(universe, head, s, sink)?;
            }
            Ok(n)
        })
    }
}

/// One rule's `(Δ ⋈ full)` variants, one per relation-scan occurrence,
/// each with the pattern of the relation its Δ scan reads. Empty when the
/// rule has none of that sign or is not eligible for them.
pub(crate) type Variants = Vec<(PredPat, CompiledItems)>;

/// The compiled artefacts of a rule set under one plan shape, indexed like
/// [`RuleEngine::rules`]: a plan per rule, its `(Δ ⋈ full)` variants over
/// positive occurrences (what the fixpoint runs), and those over negated
/// occurrences (what a repair's victim query runs for a row inserted
/// under negation).
#[derive(Debug)]
pub(crate) struct PlanSet {
    pub(crate) plans: Vec<CompiledItems>,
    pub(crate) variants: Vec<Variants>,
    pub(crate) negated: Vec<Variants>,
}

/// One unit of fixpoint work inside an iteration.
struct Task {
    /// Index into the iteration's `runnable` vector.
    slot: usize,
    /// Position among this slot's tasks (stable output ordering for the
    /// reduction).
    pos: usize,
    kind: TaskKind,
}

enum TaskKind {
    /// Evaluate the full rule body.
    Full,
    /// Evaluate the `occ`-th `(Δ ⋈ full)` variant over the `shard`-th of
    /// `shards` slices of each delta relation.
    Delta { occ: usize, shard: usize, shards: usize },
}

/// Extracts the `(db, rel)` pattern from a rule head.
fn head_pattern(head: &Expr) -> PredPat {
    let mut db = None;
    let mut rel = None;
    if let Expr::Tuple(fields) = head {
        if let Some(f) = fields.first() {
            if let AttrTerm::Const(n) = &f.attr {
                db = Some(n.clone());
            }
            if let Expr::Tuple(inner) = &f.expr {
                if let Some(g) = inner.first() {
                    if let AttrTerm::Const(n) = &g.attr {
                        rel = Some(n.clone());
                    }
                }
            }
        }
    }
    PredPat { db, rel }
}

/// Collects `(db, rel)` references (with negation polarity) from a body
/// conjunct. Only the top two attribute levels matter for stratification.
pub(crate) fn collect_refs(expr: &Expr, negated: bool, out: &mut Vec<BodyRef>) {
    fn attr_to_opt(a: &AttrTerm) -> Option<Name> {
        match a {
            AttrTerm::Const(n) => Some(n.clone()),
            AttrTerm::Var(_) => None,
        }
    }
    match expr {
        Expr::Tuple(fields) => {
            for f in fields {
                let db = attr_to_opt(&f.attr);
                // find relation level inside
                let mut pushed = false;
                match &f.expr {
                    Expr::Tuple(inner) => {
                        for g in inner {
                            let rel = attr_to_opt(&g.attr);
                            let neg = negated || matches!(g.expr, Expr::Not(_));
                            out.push(BodyRef {
                                pat: PredPat { db: db.clone(), rel },
                                negated: neg,
                            });
                            pushed = true;
                        }
                    }
                    Expr::Not(inner) => {
                        if let Expr::Tuple(inner_fields) = inner.as_ref() {
                            for g in inner_fields {
                                out.push(BodyRef {
                                    pat: PredPat { db: db.clone(), rel: attr_to_opt(&g.attr) },
                                    negated: true,
                                });
                                pushed = true;
                            }
                        }
                    }
                    _ => {}
                }
                if !pushed {
                    out.push(BodyRef { pat: PredPat { db, rel: None }, negated });
                }
            }
        }
        Expr::Not(inner) => collect_refs(inner, true, out),
        Expr::Set(inner) => collect_refs(inner, negated, out),
        _ => {}
    }
}

/// Assigns strata; errors if negation occurs inside a recursive component.
fn stratify(
    head_pats: &[PredPat],
    body_refs: &[Vec<BodyRef>],
) -> Result<Vec<Vec<usize>>, RuleSetError> {
    let n = head_pats.len();
    let mut stratum = vec![0usize; n];
    // Relaxation: stratum[user] >= stratum[definer] (+1 if negative).
    // A well-founded assignment exists iff strata stay <= n.
    for _round in 0..=(n * n + 1) {
        let mut changed = false;
        for user in 0..n {
            for br in &body_refs[user] {
                for definer in 0..n {
                    if br.pat.overlaps(&head_pats[definer]) {
                        let need = stratum[definer] + usize::from(br.negated);
                        if stratum[user] < need {
                            stratum[user] = need;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
        if stratum.iter().any(|&s| s > n) {
            return Err(RuleSetError::NotStratified(
                "negation through a recursive view definition".into(),
            ));
        }
    }
    let max = stratum.iter().copied().max().unwrap_or(0);
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); max + 1];
    for (i, &s) in stratum.iter().enumerate() {
        out[s].push(i);
    }
    out.retain(|v| !v.is_empty());
    if out.is_empty() && n == 0 {
        out.push(Vec::new());
    }
    Ok(out)
}

/// Makes `headσ` true in the universe (§6's recursive definition), creating
/// intermediate objects as needed. Returns how many facts were *new*.
pub fn make_true(universe: &mut Value, head: &Expr, subst: &Subst) -> EvalResult<usize> {
    let mut sink = DeltaSink::disabled();
    make_true_logged(universe, head, subst, &mut sink)
}

/// [`make_true`] with delta logging: every new row insert, scalar
/// overwrite and freshly created relation slot is recorded into `sink`
/// (the fixpoint's semi-naive bookkeeping). A disabled sink makes this
/// exactly `make_true`.
pub fn make_true_logged(
    universe: &mut Value,
    head: &Expr,
    subst: &Subst,
    sink: &mut DeltaSink,
) -> EvalResult<usize> {
    match head {
        Expr::Epsilon => Ok(0),
        Expr::Tuple(fields) => {
            let mut added = 0;
            for f in fields {
                added += make_true_field(universe, f, subst, sink)?;
            }
            Ok(added)
        }
        Expr::Set(inner) => {
            let Some(set) = universe.as_set_mut() else {
                return Err(EvalError::KindMismatch {
                    expected: idl_object::Kind::Set,
                    found: universe.kind(),
                    context: "rule head set expression".to_string(),
                });
            };
            let fact = materialize(inner, subst)?;
            let logged = if sink.enabled() { Some(fact.clone()) } else { None };
            if set.insert(fact) {
                if let Some(fact) = logged {
                    sink.set_inserted(fact);
                }
                Ok(1)
            } else {
                Ok(0)
            }
        }
        Expr::Atomic(RelOp::Eq, t) => {
            let v = crate::arith::eval_term(t, subst)?;
            if *universe == v {
                Ok(0)
            } else {
                *universe = v;
                sink.scalar_written();
                Ok(1)
            }
        }
        _ => Err(EvalError::Malformed("rule head must be a simple expression".into())),
    }
}

fn make_true_field(
    obj: &mut Value,
    field: &Field,
    subst: &Subst,
    sink: &mut DeltaSink,
) -> EvalResult<usize> {
    let Some(t) = obj.as_tuple_mut() else {
        return Err(EvalError::KindMismatch {
            expected: idl_object::Kind::Tuple,
            found: obj.kind(),
            context: "rule head tuple expression".to_string(),
        });
    };
    let name: Name = match &field.attr {
        AttrTerm::Const(n) => n.clone(),
        AttrTerm::Var(v) => match subst.get(v) {
            Some(Value::Atom(Atom::Str(n))) => n.clone(),
            Some(other) => {
                // A higher-order head variable bound to a non-name object:
                // coerce displayable atoms to names (prices make poor
                // relation names, but §6 only ever binds stock codes here);
                // reject aggregates.
                match other {
                    Value::Atom(a) if !a.is_null() => Name::new(a.to_string()),
                    _ => return Err(EvalError::BadAttrBinding(v.clone())),
                }
            }
            None => return Err(EvalError::Uninstantiated(v.clone())),
        },
    };
    // A slot that did not exist before this fact is a schematic delta at
    // relation/database depth (constant-head skeletons are pre-created by
    // the fixpoint, so only data-dependent heads ever trip this).
    let existed = !sink.enabled() || t.get(name.as_str()).is_some();
    sink.enter(&name);
    let slot = t.get_or_insert_with(name, || match &field.expr {
        Expr::Tuple(_) => Value::empty_tuple(),
        Expr::Set(_) => Value::empty_set(),
        _ => Value::null(),
    });
    if !existed {
        sink.created_slot();
    }
    let added = make_true_logged(slot, &field.expr, subst, sink);
    sink.leave();
    added
}

/// Whether a head contains a scalar (`=`) write anywhere above set level:
/// those have overwrite (last-write-wins) semantics, so the rule must
/// always evaluate in full — a delta-restricted subset could change which
/// write lands last. Set heads are row inserts and never scalar.
fn head_is_scalar(head: &Expr) -> bool {
    match head {
        Expr::Atomic(..) => true,
        Expr::Tuple(fields) => fields.iter().any(|f| head_is_scalar(&f.expr)),
        _ => false,
    }
}

/// The `(db, rel)` patterns a body reads, positive *and* negated: the
/// static read set of a request ([`crate::program::ProgramRegistry::read_set`]).
pub(crate) fn read_patterns(items: &[Expr]) -> Vec<PredPat> {
    let mut refs = Vec::new();
    for item in items {
        collect_refs(item, false, &mut refs);
    }
    let mut out: Vec<PredPat> = refs.into_iter().map(|r| r.pat).collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use idl_lang::{parse_statement, Statement};
    use idl_object::universe::stock_universe;

    fn rule(src: &str) -> Rule {
        match parse_statement(src).unwrap() {
            Statement::Rule(r) => r,
            _ => panic!("not a rule: {src}"),
        }
    }

    fn base_store() -> Store {
        Store::from_universe(stock_universe(vec![
            ("3/3/85", "hp", 50.0),
            ("3/3/85", "ibm", 160.0),
            ("3/4/85", "hp", 62.0),
        ]))
        .unwrap()
    }

    /// The paper's unified view over all three schemata.
    fn unified_rules() -> Vec<Rule> {
        vec![
            rule(".dbI.p(.date=D,.stk=S,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P)"),
            rule(".dbI.p(.date=D,.stk=S,.clsPrice=P) <- .chwab.r(.date=D,.S=P)"),
            rule(".dbI.p(.date=D,.stk=S,.clsPrice=P) <- .ource.S(.date=D,.clsPrice=P)"),
        ]
    }

    #[test]
    fn unified_view_materialises() {
        let mut store = base_store();
        let engine = RuleEngine::new(unified_rules()).unwrap();
        assert_eq!(engine.stratum_count(), 1);
        let stats = engine.materialize(&mut store, EvalOptions::default()).unwrap();
        // 3 quotes, from three sources each, deduplicated by value
        let p = store.relation("dbI", "p").unwrap();
        // chwab tuples carry date attr too: (date, stk=date)?? no — .S=P
        // enumerates the date attribute as well, giving (stk=date,
        // P=<date>) rows; those are also in p. The paper's own rule has the
        // same property; filtering is the administrator's job via name
        // mappings (§6). Here: 3 real quotes + 2 date-rows.
        assert!(p.len() >= 3, "p={p:?}");
        assert!(stats.facts_added >= p.len());
        // every true quote present
        for src in [
            "?.dbI.p(.date=3/3/85,.stk=hp,.clsPrice=50)",
            "?.dbI.p(.date=3/4/85,.stk=hp,.clsPrice=62)",
            "?.dbI.p(.date=3/3/85,.stk=ibm,.clsPrice=160)",
        ] {
            let Statement::Request(q) = parse_statement(src).unwrap() else { panic!() };
            assert!(Evaluator::with_defaults(&store).query(&q).unwrap().is_true(), "{src}");
        }
    }

    #[test]
    fn chwab_rule_needs_date_exclusion() {
        // With an explicit guard the date-attribute artefact disappears:
        let mut store = base_store();
        let rules =
            vec![rule(".dbI.p(.date=D,.stk=S,.clsPrice=P) <- .chwab.r(.date=D,.S=P), S != date")];
        let engine = RuleEngine::new(rules).unwrap();
        engine.materialize(&mut store, EvalOptions::default()).unwrap();
        let p = store.relation("dbI", "p").unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn higher_order_view_one_relation_per_stock() {
        let mut store = base_store();
        let mut rules = unified_rules();
        rules.push(rule(
            ".dbO.S(.date=D,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P), S != date",
        ));
        let engine = RuleEngine::new(rules).unwrap();
        engine.materialize(&mut store, EvalOptions::default()).unwrap();
        let rels = store.relation_names("dbO").unwrap();
        let names: Vec<&str> = rels.iter().map(Name::as_str).collect();
        assert_eq!(names, vec!["hp", "ibm"], "one derived relation per stock");
        assert_eq!(store.relation("dbO", "hp").unwrap().len(), 2);
        assert_eq!(store.relation("dbO", "ibm").unwrap().len(), 1);
    }

    #[test]
    fn views_on_views_iterate_to_fixpoint() {
        let mut store = base_store();
        let mut rules = unified_rules();
        rules.push(rule(".dbE.r(.date=D,.stkCode=S,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P), S != date"));
        let engine = RuleEngine::new(rules).unwrap();
        let stats = engine.materialize(&mut store, EvalOptions::default()).unwrap();
        assert_eq!(store.relation("dbE", "r").unwrap().len(), 3);
        assert!(stats.iterations >= 2, "needs a second pass for the dependent view");
    }

    #[test]
    fn stratified_negation() {
        let mut store = base_store();
        let rules = vec![
            rule(".dbI.p(.stk=S) <- .euter.r(.stkCode=S)"),
            // stocks in euter that do NOT appear in ource
            rule(".dbI.only(.stk=S) <- .dbI.p(.stk=S), .ource¬.S"),
        ];
        let engine = RuleEngine::new(rules).unwrap();
        assert!(engine.stratum_count() >= 1);
        engine.materialize(&mut store, EvalOptions::default()).unwrap();
        let only = store.relation("dbI", "only").unwrap();
        assert!(only.is_empty(), "all euter stocks are in ource: {only:?}");
    }

    #[test]
    fn negative_recursion_rejected() {
        let rules =
            vec![rule(".a.p(.x=X) <- .a.q(.x=X), .a.r¬(.x=X)"), rule(".a.r(.x=X) <- .a.p(.x=X)")];
        let err = RuleEngine::new(rules).unwrap_err();
        assert!(matches!(err, RuleSetError::NotStratified(_)));
    }

    #[test]
    fn head_db_must_be_constant() {
        let rules = vec![rule(".X.p(.a=A) <- .euter.r(.stkCode=A), .euter.r(.stkCode=X)")];
        assert!(matches!(RuleEngine::new(rules), Err(RuleSetError::HeadDbNotConstant(_))));
    }

    #[test]
    fn make_true_is_idempotent() {
        let mut store = base_store();
        let engine = RuleEngine::new(unified_rules()).unwrap();
        let s1 = engine.materialize(&mut store, EvalOptions::default()).unwrap();
        let before = store.relation("dbI", "p").unwrap().clone();
        let s2 = engine.materialize(&mut store, EvalOptions::default()).unwrap();
        assert_eq!(s2.facts_added, 0, "second run derives nothing new");
        assert_eq!(&before, store.relation("dbI", "p").unwrap());
        assert!(s1.facts_added > 0);
    }

    #[test]
    fn seminaive_does_fewer_rule_evals() {
        let mut s1 = base_store();
        let mut rules = unified_rules();
        rules.push(rule(".dbE.r(.date=D,.stkCode=S,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P), S != date"));
        rules.push(rule(".dbC2.tot(.stk=S) <- .dbE.r(.stkCode=S)"));
        let engine = RuleEngine::new(rules).unwrap();
        let semi = engine.materialize(&mut s1, EvalOptions::default()).unwrap();
        let mut s2 = base_store();
        let naive =
            engine.materialize(&mut s2, EvalOptions::default().with_semi_naive(false)).unwrap();
        assert_eq!(s1.relation("dbC2", "tot").unwrap(), s2.relation("dbC2", "tot").unwrap());
        assert!(semi.rule_evals <= naive.rule_evals);
        assert_eq!(semi.facts_added, naive.facts_added);
    }

    /// Pinned options for the delta-scheduling counter tests: one worker
    /// (no sharding), compiled plans (delta variants exist), semi-naive on.
    fn semi_opts() -> EvalOptions {
        EvalOptions::default().with_threads(1).with_compile(true).with_semi_naive(true)
    }

    #[test]
    fn unchanged_rules_are_skipped_and_changed_rules_run_on_deltas() {
        // Same stratum: rule 0 reads only base data (never part of any
        // iteration's delta), rule 1 reads rule 0's head.
        let rules = vec![
            rule(".dbI.p(.stk=S) <- .euter.r(.stkCode=S)"),
            rule(".dbI.q(.stk=S) <- .dbI.p(.stk=S)"),
        ];
        let engine = RuleEngine::new(rules).unwrap();
        let mut store = base_store();
        let stats = engine.materialize(&mut store, semi_opts()).unwrap();
        assert_eq!(store.relation("dbI", "q").unwrap().len(), 2, "hp, ibm");
        // Iteration 1 runs both rules in full. Iteration 2: the delta is
        // {(dbI,p), (dbI,q)} — rule 0's body (euter,r) did not change, so
        // it is skipped; rule 1 re-runs over Δ(dbI,p) only, derives
        // nothing new, and the stratum quiesces.
        assert_eq!(stats.iterations, 2, "{stats:?}");
        assert_eq!(stats.full_evals, 2, "{stats:?}");
        assert_eq!(stats.delta_evals, 1, "{stats:?}");
        assert_eq!(stats.rules_skipped, 1, "{stats:?}");
        assert_eq!(stats.rule_evals, 3, "{stats:?}");
        // Per-stratum mirrors of the same counters.
        assert_eq!(stats.strata.len(), 1);
        assert_eq!(stats.strata[0].rules_skipped, 1);
        assert_eq!(stats.strata[0].delta_evals, 1);
    }

    #[test]
    fn naive_mode_reevaluates_everything_every_iteration() {
        let rules = vec![
            rule(".dbI.p(.stk=S) <- .euter.r(.stkCode=S)"),
            rule(".dbI.q(.stk=S) <- .dbI.p(.stk=S)"),
        ];
        let engine = RuleEngine::new(rules).unwrap();
        let mut store = base_store();
        let opts = semi_opts().with_semi_naive(false);
        let stats = engine.materialize(&mut store, opts).unwrap();
        assert_eq!(store.relation("dbI", "q").unwrap().len(), 2);
        // Both rules run in full on both iterations: no skips, no deltas.
        assert_eq!(stats.iterations, 2, "{stats:?}");
        assert_eq!(stats.rule_evals, 4, "{stats:?}");
        assert_eq!(stats.rules_skipped, 0, "{stats:?}");
        assert_eq!(stats.delta_evals, 0, "{stats:?}");
        assert_eq!(stats.full_evals, 4, "{stats:?}");
    }

    #[test]
    fn schematic_delta_reports_data_dependent_relations() {
        // A higher-order head materialises one relation per stock, each a
        // schematic event. The constant `dbO` database skeleton is
        // pre-created, so only genuine relation creations are logged.
        let mut rules = unified_rules();
        rules.push(rule(
            ".dbO.S(.date=D,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P), S != date",
        ));
        let engine = RuleEngine::new(rules).unwrap();
        let mut store = base_store();
        let stats = engine.materialize(&mut store, semi_opts()).unwrap();
        let dbo: Vec<PredPat> = stats
            .new_relations
            .iter()
            .filter(|p| p.db.as_ref().is_some_and(|d| d.as_str() == "dbO"))
            .cloned()
            .collect();
        let expect = |rel: &str| PredPat { db: Some(Name::new("dbO")), rel: Some(Name::new(rel)) };
        assert_eq!(dbo, vec![expect("hp"), expect("ibm")], "{stats:?}");
        // Constant-head skeletons (dbI.p) never count as schematic.
        assert!(
            !stats.new_relations.iter().any(|p| p.db.as_ref().is_some_and(|d| d.as_str() == "dbI")),
            "{stats:?}"
        );
    }

    #[test]
    fn one_row_delta_runs_one_task_at_four_threads() {
        // A repair of one inserted quote: its Δ has one row, so a second
        // shard would be an empty slice that still costs a worker thread.
        let rules = vec![rule(".dbI.p(.date=D,.stk=S) <- .euter.r(.date=D,.stkCode=S)")];
        let engine = RuleEngine::new(rules).unwrap();
        let repaired = |threads: usize| {
            let opts = semi_opts().with_threads(threads);
            let mut store = base_store();
            engine.materialize(&mut store, opts).unwrap();
            let (pre, v) = (store.universe().clone(), store.version());
            let src = "?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=7)";
            let Statement::Request(req) = parse_statement(src).unwrap() else { panic!() };
            let programs = crate::program::ProgramRegistry::new();
            crate::request::run_request(
                &mut store,
                &programs,
                &DerivedCatalog::empty(),
                &idl_storage::SchemaSet::new(),
                &req,
                opts,
                None,
            )
            .unwrap();
            let scopes: Vec<_> = store.changes_since(v).iter().map(|c| c.scope.clone()).collect();
            let delta = crate::maintain::diff_update(&pre, store.universe(), &scopes).unwrap();
            let stats = engine.maintain(&mut store, &delta, opts).unwrap().unwrap();
            (stats, idl_storage::persist::to_json(&store).unwrap())
        };
        let (stats, at_four) = repaired(4);
        assert_eq!(stats.strata.len(), 1, "{stats:?}");
        assert_eq!(stats.strata[0].delta_evals, 1, "{stats:?}");
        assert_eq!(stats.strata[0].workers, 1, "{stats:?}");
        assert_eq!(at_four, repaired(1).1, "the result does not depend on the thread count");
    }

    #[test]
    fn scalar_heads_always_reevaluate_in_full() {
        // A scalar (`=`) head has last-write-wins semantics, so the rule
        // is never delta-eligible: every one of its runs is a full
        // evaluation even when its input changed via a concrete delta.
        let rules = vec![
            rule(".dbI.p(.stk=S) <- .euter.r(.stkCode=S)"),
            rule(".agg.hi=P <- .dbI.p(.stk=hp), .euter.r(.stkCode=hp,.clsPrice=P)"),
        ];
        let engine = RuleEngine::new(rules).unwrap();
        let mut store = base_store();
        let stats = engine.materialize(&mut store, semi_opts()).unwrap();
        // However many iterations ran, no delta task ever targeted the
        // scalar rule — and the value is still derived.
        assert_eq!(stats.delta_evals, 0, "{stats:?}");
        assert!(stats.full_evals >= 2, "{stats:?}");
        assert!(store.relation("agg", "hi").is_err(), "hi is an atom, not a relation");
    }
}
