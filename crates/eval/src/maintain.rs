//! Incremental view repair (DESIGN.md "View repair").
//!
//! When the views are next read after one or more writes, the engine
//! diffs the universe against its freshness point ([`diff_update`]) and
//! hands the row-level delta to [`RuleEngine::maintain`], which
//! drives it through the stratified rule set *bottom-up* instead of
//! re-deriving the world:
//!
//! * **inserts** reuse the semi-naive machinery — the stratum fixpoint is
//!   seeded with the update's Δ⁺ rows, so woken rules run their
//!   `(Δ ⋈ full)` plan variants over just the new rows
//!   (`RuleEngine::run_stratum` with a seed delta). A shrunk relation
//!   joins the seed as a *coarse* pattern only where the stratum reads it
//!   through negation, the one place a deletion can enable a derivation;
//! * **retractions** run a DRed-style deletion cascade: for every rule
//!   whose body reads a deleted row positively (or a freshly inserted row
//!   through negation), a *victim query* over-approximates the derived
//!   rows that may have lost support. It is the rule's own compiled
//!   `(Δ ⋈ full)` variant, run against the *pre-round* store: the
//!   positive occurrence's variant over the deleted rows, or the negated
//!   occurrence's variant, whose negated scan becomes a positive scan over
//!   the inserted rows. Victims are deleted, then each one's
//!   support is **checked** exactly (the backward check of Motik et al.'s
//!   B/F algorithm): every rule whose head overlaps the victim runs its
//!   plan from a seed substitution taken from the victim row, and the row
//!   survives if an answer's head fact is the row itself. Survivors go
//!   back and the rest are checked again until none survives, so a victim
//!   supported only through another surviving victim is kept. Only the
//!   unsupported remainder stays deleted and cascades. A recursive
//!   stratum over-deletes to completion before it checks, so that a cycle
//!   cannot hold itself up. The cost follows the victims, not the
//!   relations they live in;
//! * **schematic deltas** are first-class: a delta that materialises a
//!   data-dependent relation is reported through
//!   [`FixpointStats::new_relations`] and counted as a schematic create,
//!   and a retraction that empties one garbage-collects the slot (a
//!   schematic GC) so the maintained store stays byte-identical to a full
//!   rebuild. No plan needs to hear of either: a plan with a variable
//!   relation position enumerates the relations there are when it runs.
//!
//! The pass runs the rule set's compiled plans and `(Δ ⋈ full)` variants
//! (`RuleEngine::plan_set`) only, whatever [`EvalOptions::compile`]
//! says. It is *sound but partial*: any shape it cannot maintain exactly
//! (scalar heads, coarse writes, non-row base changes, a changed subgoal
//! with no Δ variant) makes it bail with `Ok(None)`, and the engine falls
//! back to a full rebuild. Bailing late is safe — a half-applied pass
//! only ever leaves state the full rebuild recomputes from scratch.

use crate::delta::{DeltaLog, DeltaTable};
use crate::error::{EvalError, EvalResult};
use crate::physical::CompiledItems;
use crate::query::{EvalOptions, Evaluator};
use crate::rules::{FixpointStats, PlanSet, PredPat, RuleEngine};
use crate::subst::Subst;
use crate::update::materialize;
use idl_lang::{AttrTerm, Expr, RelOp, Rule, Term};
use idl_object::{Atom, Name, Value};
use idl_storage::Store;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The row-level difference the writes since the views were last fresh
/// made to *base* relations: the seed of a maintenance pass.
#[derive(Clone, Debug, Default)]
pub struct UpdateDelta {
    /// Rows the update inserted, grouped by `(db, rel)`.
    pub plus: DeltaTable,
    /// Rows the update deleted, grouped by `(db, rel)`.
    pub minus: DeltaTable,
}

impl UpdateDelta {
    /// Whether the update changed any rows at all.
    pub fn is_empty(&self) -> bool {
        self.plus.values().all(Vec::is_empty) && self.minus.values().all(Vec::is_empty)
    }
}

/// Extracts the row-level [`UpdateDelta`] of an update from the pre/post
/// universes and the journalled change scopes, or `None` when the change
/// is not expressible as relation-row edits (universe-scoped writes,
/// created or dropped database/relation slots, scalar or nested-value
/// changes) — the caller then falls back to the refresh path.
pub fn diff_update(
    pre: &Value,
    post: &Value,
    changes: &[idl_storage::ChangeScope],
) -> Option<UpdateDelta> {
    use idl_storage::ChangeScope;
    let mut delta = UpdateDelta::default();
    let mut seen: BTreeSet<(Name, Option<Name>)> = BTreeSet::new();
    for scope in changes {
        match scope {
            ChangeScope::Universe => return None,
            ChangeScope::Relation { db, rel } => {
                if !seen.insert((db.clone(), Some(rel.clone()))) {
                    continue;
                }
                diff_relation(pre, post, db, rel, &mut delta)?;
            }
            ChangeScope::Database { db } => {
                if !seen.insert((db.clone(), None)) {
                    continue;
                }
                let pre_db = pre.attr(db.as_str())?.as_tuple()?;
                let post_db = post.attr(db.as_str())?.as_tuple()?;
                let pre_rels: Vec<&Name> = pre_db.keys().collect();
                let post_rels: Vec<&Name> = post_db.keys().collect();
                if pre_rels != post_rels {
                    return None; // relation slot created or dropped
                }
                for rel in pre_rels {
                    diff_relation(pre, post, db, rel, &mut delta)?;
                }
            }
        }
    }
    delta.plus.retain(|_, rows| !rows.is_empty());
    delta.minus.retain(|_, rows| !rows.is_empty());
    Some(delta)
}

/// Row-diffs one relation slot into `delta`; `None` when either side is
/// missing or not a set (slot created/dropped, or a scalar "relation").
fn diff_relation(
    pre: &Value,
    post: &Value,
    db: &Name,
    rel: &Name,
    delta: &mut UpdateDelta,
) -> Option<()> {
    let pre_v = pre.attr(db.as_str())?.attr(rel.as_str())?;
    let post_v = post.attr(db.as_str())?.attr(rel.as_str())?;
    if pre_v == post_v {
        return Some(());
    }
    let (minus, plus) = pre_v.as_set()?.diff(post_v.as_set()?);
    if !plus.is_empty() {
        delta.plus.entry((db.clone(), rel.clone())).or_default().extend(plus);
    }
    if !minus.is_empty() {
        delta.minus.entry((db.clone(), rel.clone())).or_default().extend(minus);
    }
    Some(())
}

/// The view state a durable checkpoint persists beside the universe when
/// the views match it, so a restart resumes repairing instead of
/// rebuilding: the fingerprint of the rule set the views were derived
/// under. A mismatch with the installed rules discards the state, and the
/// first read rebuilds.
///
/// Blobs written before the state was cut to its fingerprint also carry a
/// `views` list of per-view row counts; decoding ignores it.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MaintainedViews {
    /// Each rule's canonical display form, in installation order.
    pub rules: Vec<String>,
}

impl MaintainedViews {
    /// The state of views derived under `rules`.
    pub fn for_rules(rules: &[Rule]) -> MaintainedViews {
        MaintainedViews { rules: rules.iter().map(|r| r.to_string()).collect() }
    }

    /// Whether this state was computed under exactly these rules.
    pub fn matches_rules(&self, rules: &[Rule]) -> bool {
        self.rules.len() == rules.len()
            && self.rules.iter().zip(rules).all(|(s, r)| *s == r.to_string())
    }
}

impl RuleEngine {
    /// Incrementally maintains the derived views after base writes, given
    /// the update's row-level [`UpdateDelta`]. Returns `Ok(None)` when
    /// the pass cannot maintain exactly (the caller must fall back to a
    /// full refresh) and the pass's statistics when the store now matches
    /// what a full rebuild would produce.
    pub fn maintain(
        &self,
        store: &mut Store,
        delta: &UpdateDelta,
        opts: EvalOptions,
    ) -> EvalResult<Option<FixpointStats>> {
        if !opts.semi_naive {
            return Ok(None);
        }
        // The repair runs compiled plans and their Δ variants only;
        // `compile` chooses how reads and rebuilds evaluate.
        let opts = opts.with_compile(true);
        let mut stats = FixpointStats::default();
        let set = self.plan_set(opts, &mut stats)?;
        // Stratum index per rule, for the rederive cross-stratum guard.
        let mut rule_stratum = vec![0usize; self.rules.len()];
        for (si, stratum) in self.strata.iter().enumerate() {
            for &ri in stratum {
                rule_stratum[ri] = si;
            }
        }
        // Deltas carried into each stratum: the base update's rows plus
        // every derived change made by the strata already maintained.
        let mut carry_plus: DeltaTable = delta.plus.clone();
        let mut carry_minus: DeltaTable = delta.minus.clone();
        // The derived relations the pass inserted into, deleted from or
        // garbage-collected.
        let mut touched: BTreeSet<(Name, Name)> = BTreeSet::new();
        for (si, stratum) in self.strata.iter().enumerate() {
            let carry_pats: Vec<PredPat> = carry_plus
                .keys()
                .chain(carry_minus.keys())
                .map(|(db, rel)| PredPat { db: Some(db.clone()), rel: Some(rel.clone()) })
                .collect();
            let woken = stratum.iter().any(|&ri| {
                self.body_refs[ri].iter().any(|br| carry_pats.iter().any(|c| br.pat.overlaps(c)))
            });
            if !woken {
                // Nothing this stratum reads changed: skip it entirely.
                stats.rules_skipped += stratum.len();
                continue;
            }
            if stratum.iter().any(|&ri| head_is_scalar_rule(&self.rules[ri])) {
                // Scalar (`=`) heads have last-write-wins semantics a
                // delta pass cannot maintain — and an intra-stratum delta
                // could wake one mid-fixpoint, so the whole stratum bails.
                return Ok(None);
            }
            // --- deletion cascade (DRed: over-approximate, check support) ---
            // A recursive stratum over-deletes to completion before it
            // checks support: a victim checked early could keep support
            // through a row the cascade has yet to reach, and a cycle
            // would then hold itself up. A non-recursive stratum checks
            // each round's victims at once; a row kept through a row that
            // a later round deletes is a victim of that round again.
            let recursive = self.is_recursive(stratum);
            let mut overdeleted: DeltaTable = BTreeMap::new();
            let mut pend_plus: DeltaTable = carry_plus.clone();
            let mut pend_minus: DeltaTable = carry_minus.clone();
            loop {
                let victims = match self.find_victims(
                    store,
                    stratum,
                    &pend_plus,
                    &pend_minus,
                    set,
                    opts,
                    &mut stats,
                )? {
                    Some(v) => v,
                    None => return Ok(None),
                };
                // Keep only victims actually present in the store.
                let mut present: BTreeMap<(Name, Name), Vec<Value>> = BTreeMap::new();
                for ((db, rel), rows) in victims {
                    let Ok(set) = store.relation(db.as_str(), rel.as_str()) else { continue };
                    let rows: Vec<Value> = rows.into_iter().filter(|r| set.contains(r)).collect();
                    if !rows.is_empty() {
                        present.insert((db, rel), rows);
                    }
                }
                if present.is_empty() {
                    break;
                }
                // Overestimate: delete every victim, then check each one's
                // support in what remains (cyclic self-support cannot save
                // a row).
                for ((db, rel), rows) in &present {
                    store
                        .remove_rows(db.as_str(), rel.as_str(), rows)
                        .map_err(|e| EvalError::Storage(e.to_string()))?;
                }
                let next_minus = if recursive {
                    for (key, rows) in &present {
                        overdeleted.entry(key.clone()).or_default().extend(rows.iter().cloned());
                    }
                    present
                } else {
                    let Some(gone) =
                        self.rederive(store, present, &rule_stratum, si, set, opts, &mut stats)?
                    else {
                        return Ok(None);
                    };
                    record_minus(&gone, &mut carry_minus, &mut touched);
                    gone
                };
                if next_minus.is_empty() {
                    break;
                }
                pend_plus = BTreeMap::new();
                pend_minus = next_minus;
            }
            if !overdeleted.is_empty() {
                let Some(gone) =
                    self.rederive(store, overdeleted, &rule_stratum, si, set, opts, &mut stats)?
                else {
                    return Ok(None);
                };
                record_minus(&gone, &mut carry_minus, &mut touched);
            }
            // --- insert pass: seeded semi-naive fixpoint -------------
            // A shrunk relation is seeded as a *coarse* pattern only where
            // this stratum reads it through negation: such a rule may now
            // derive new rows, and only a full evaluation can find them.
            // A positive reader cannot gain a derivation from a deletion.
            let seed = DeltaLog {
                rels: carry_plus.clone(),
                coarse: carry_minus
                    .keys()
                    .map(|(db, rel)| PredPat { db: Some(db.clone()), rel: Some(rel.clone()) })
                    .filter(|pat| {
                        stratum.iter().any(|&ri| {
                            self.body_refs[ri].iter().any(|br| br.negated && br.pat.overlaps(pat))
                        })
                    })
                    .collect(),
                new_rels: Vec::new(),
            };
            let mut accum = DeltaLog::default();
            self.run_stratum(
                store,
                stratum,
                opts,
                Some(set),
                &mut stats,
                Some(seed),
                Some(&mut accum),
            )?;
            if !accum.coarse.is_empty() {
                // The pass produced writes the delta model cannot carry
                // (nested sets, whole-db effects): hand over to repair.
                return Ok(None);
            }
            for (key, rows) in accum.rels {
                touched.insert(key.clone());
                carry_plus.entry(key).or_default().extend(rows);
            }
            // --- schematic GC: deleted-from, now-empty, data-dependent -
            let catalog = self.derived_catalog();
            let deleted_rels: Vec<(Name, Name)> = carry_minus.keys().cloned().collect();
            for (db, rel) in deleted_rels {
                let Ok(set) = store.relation(db.as_str(), rel.as_str()) else { continue };
                if !set.is_empty() || !catalog.covers_relation(db.as_str(), rel.as_str()) {
                    continue;
                }
                let constant_head = self
                    .head_pats
                    .iter()
                    .any(|p| p.db.as_ref() == Some(&db) && p.rel.as_ref() == Some(&rel));
                if constant_head {
                    continue; // constant-head skeletons exist even empty
                }
                store
                    .drop_relation(db.as_str(), rel.as_str())
                    .map_err(|e| EvalError::Storage(e.to_string()))?;
                stats.maintenance.schematic_gcs += 1;
                touched.insert((db, rel));
            }
        }
        stats.new_relations.sort();
        stats.new_relations.dedup();
        stats.maintenance.schematic_creates = stats.new_relations.len();
        stats.maintenance.delta_rules_run = stats.rule_evals;
        stats.maintenance.views_maintained = touched.len();
        Ok(Some(stats))
    }

    /// Whether some rule of `stratum` reads, through a chain of positive
    /// body references, what it derives itself.
    fn is_recursive(&self, stratum: &[usize]) -> bool {
        let reads = |ri: usize, rj: usize| {
            self.body_refs[ri].iter().any(|br| !br.negated && br.pat.overlaps(&self.head_pats[rj]))
        };
        stratum.iter().any(|&start| {
            let mut seen = BTreeSet::new();
            let mut stack = vec![start];
            while let Some(ri) = stack.pop() {
                for &rj in stratum {
                    if reads(ri, rj) {
                        if rj == start {
                            return true;
                        }
                        if seen.insert(rj) {
                            stack.push(rj);
                        }
                    }
                }
            }
            false
        })
    }

    /// One deletion-cascade round's victim over-approximation: runs the
    /// `(Δ ⋈ full)` variant of every occurrence the round's rows trigger
    /// against the *pre-round* store and extracts candidate head facts. A
    /// positive occurrence's variant scans the deleted rows (Δ⁻); a
    /// negated occurrence's variant scans the inserted rows (Δ⁺)
    /// positively. `Ok(None)` = a triggered occurrence has no variant
    /// (bail).
    #[allow(clippy::too_many_arguments)]
    fn find_victims(
        &self,
        store: &Store,
        woken: &[usize],
        pend_plus: &DeltaTable,
        pend_minus: &DeltaTable,
        set: &PlanSet,
        opts: EvalOptions,
        stats: &mut FixpointStats,
    ) -> EvalResult<Option<DeltaTable>> {
        // The variants to run, each with the Δ table it scans; if none,
        // skip the old-store restoration entirely.
        let mut runs: Vec<(usize, &CompiledItems, &DeltaTable)> = Vec::new();
        for &ri in woken {
            for (negated, table, variants) in
                [(false, pend_minus, &set.variants[ri]), (true, pend_plus, &set.negated[ri])]
            {
                let changed = |pat: &PredPat| table.keys().any(|(db, rel)| pat.matches(db, rel));
                let triggered =
                    self.body_refs[ri].iter().any(|br| br.negated == negated && changed(&br.pat));
                if !triggered {
                    continue;
                }
                if variants.is_empty() {
                    return Ok(None);
                }
                for (pat, variant) in variants {
                    if changed(pat) {
                        runs.push((ri, variant, table));
                    }
                }
            }
        }
        if runs.is_empty() {
            return Ok(Some(BTreeMap::new()));
        }
        // Pre-round store: O(1) universe clone with the pending frontier
        // restored (Δ⁺ removed, Δ⁻ re-added) so a derivation whose *other*
        // premises also changed this round is still found.
        let mut old = Store::from_universe(store.universe().clone())
            .map_err(|e| EvalError::Storage(e.to_string()))?;
        for ((db, rel), rows) in pend_plus {
            if old.relation(db.as_str(), rel.as_str()).is_ok() {
                old.remove_rows(db.as_str(), rel.as_str(), rows)
                    .map_err(|e| EvalError::Storage(e.to_string()))?;
            }
        }
        for ((db, rel), rows) in pend_minus {
            if old.relation(db.as_str(), rel.as_str()).is_err() {
                old.create_relation(db.clone(), rel.clone())
                    .map_err(|e| EvalError::Storage(e.to_string()))?;
            }
            for row in rows {
                old.insert(db.clone(), rel.clone(), row.clone())
                    .map_err(|e| EvalError::Storage(e.to_string()))?;
            }
        }
        let mut victims: BTreeMap<(Name, Name), Vec<Value>> = BTreeMap::new();
        for (ri, variant, table) in runs {
            // Driven by the round's Δ rows: a delta evaluation.
            stats.rule_evals += 1;
            stats.delta_evals += 1;
            let ev = Evaluator::with_delta(&old, opts, table, (0, 1));
            for s in &ev.eval_compiled(variant, vec![Subst::new()])? {
                let Some((vdb, vrel, row)) = head_fact(&self.rules[ri].head, s) else {
                    return Ok(None);
                };
                victims.entry((vdb, vrel)).or_default().push(row);
            }
        }
        for rows in victims.values_mut() {
            rows.sort();
            rows.dedup();
        }
        Ok(Some(victims))
    }

    /// Exact support check for deletion-cascade victims, which the
    /// caller has already removed from `store`. Each victim row is checked
    /// against every rule whose head overlaps its relation by evaluating
    /// that rule's plan from one seed substitution taken from the row
    /// ([`support_seed`]): the row survives when some answer's
    /// [`head_fact`] is the row itself. Survivors go back into the store
    /// and the remaining victims are checked again, until a round saves
    /// none: a victim whose only other support is another victim that
    /// survives is kept too (recursion). Returns the rows that stay
    /// deleted. `Ok(None)` = an overlapping rule cannot be head-extracted
    /// or lives in a later stratum (bail).
    #[allow(clippy::too_many_arguments)]
    fn rederive(
        &self,
        store: &mut Store,
        present: DeltaTable,
        rule_stratum: &[usize],
        current_stratum: usize,
        set: &PlanSet,
        opts: EvalOptions,
        stats: &mut FixpointStats,
    ) -> EvalResult<Option<DeltaTable>> {
        // Per victim relation: the rules that may derive into it.
        let mut pending: Vec<Victims> = Vec::new();
        for ((db, rel), rows) in present {
            let pat = PredPat { db: Some(db.clone()), rel: Some(rel.clone()) };
            let deriving: Vec<usize> =
                (0..self.rules.len()).filter(|&ri| self.head_pats[ri].overlaps(&pat)).collect();
            if deriving.iter().any(|&ri| rule_stratum[ri] > current_stratum) {
                return Ok(None);
            }
            pending.push(Victims { key: (db, rel), deriving, rows });
        }
        loop {
            let mut saved: Vec<(usize, Value)> = Vec::new();
            {
                let ev = Evaluator::new(store, opts);
                for (gi, group) in pending.iter_mut().enumerate() {
                    let (db, rel) = &group.key;
                    let mut still = Vec::with_capacity(group.rows.len());
                    for row in group.rows.drain(..) {
                        let mut supported = Some(false);
                        for &ri in &group.deriving {
                            supported =
                                self.derives(&ev, ri, &set.plans[ri], db, rel, &row, stats)?;
                            if supported != Some(false) {
                                break;
                            }
                        }
                        let Some(supported) = supported else { return Ok(None) };
                        if supported {
                            saved.push((gi, row));
                        } else {
                            still.push(row);
                        }
                    }
                    group.rows = still;
                }
            }
            if saved.is_empty() {
                break;
            }
            for (gi, row) in saved {
                let (db, rel) = &pending[gi].key;
                store
                    .insert(db.clone(), rel.clone(), row)
                    .map_err(|e| EvalError::Storage(e.to_string()))?;
            }
        }
        Ok(Some(
            pending.into_iter().filter(|g| !g.rows.is_empty()).map(|g| (g.key, g.rows)).collect(),
        ))
    }

    /// Whether rule `ri` derives `row` into `db.rel` from the store `ev`
    /// reads: its plan runs from the row's seed ([`support_seed`]) and
    /// some answer's head fact must be the row. `None` = an answer's head
    /// cannot be extracted (bail).
    #[allow(clippy::too_many_arguments)]
    fn derives(
        &self,
        ev: &Evaluator<'_>,
        ri: usize,
        plan: &CompiledItems,
        db: &Name,
        rel: &Name,
        row: &Value,
        stats: &mut FixpointStats,
    ) -> EvalResult<Option<bool>> {
        let rule = &self.rules[ri];
        let Some(seed) = support_seed(&rule.head, row) else { return Ok(Some(false)) };
        // Driven by one Δ row: a delta evaluation.
        stats.rule_evals += 1;
        stats.delta_evals += 1;
        for s in &ev.eval_compiled(plan, vec![seed])? {
            let Some((hdb, hrel, hrow)) = head_fact(&rule.head, s) else { return Ok(None) };
            if hdb == *db && hrel == *rel && hrow == *row {
                return Ok(Some(true));
            }
        }
        Ok(Some(false))
    }
}

/// One relation's victims awaiting a support check, with the rules whose
/// heads may derive into it.
struct Victims {
    key: (Name, Name),
    deriving: Vec<usize>,
    rows: Vec<Value>,
}

/// The substitution a support check for `row` starts from. A head row
/// field named by a constant and written `= V` binds `V` to the row's
/// value there when that value is a non-numeric atom (string, date,
/// bool). Everything else stays unbound: attribute, relation and database
/// variables, and numeric values, which a plan's `Bind` compares
/// numerically (`50 = 50.0`) where the row needs the exact atom; the
/// caller's [`head_fact`] equality settles them. `None` when no answer
/// can produce the row: it lacks a field the head always writes, or
/// gives one variable two values.
fn support_seed(head: &Expr, row: &Value) -> Option<Subst> {
    let mut seed = Subst::new();
    let Expr::Tuple(fields) = head else { return Some(seed) };
    let [f] = fields.as_slice() else { return Some(seed) };
    let Expr::Tuple(inner) = &f.expr else { return Some(seed) };
    let [g] = inner.as_slice() else { return Some(seed) };
    let Expr::Set(row_expr) = &g.expr else { return Some(seed) };
    let Expr::Tuple(row_fields) = row_expr.as_ref() else { return Some(seed) };
    for rf in row_fields {
        let (None, AttrTerm::Const(name), Expr::Atomic(RelOp::Eq, Term::Var(v))) =
            (rf.sign, &rf.attr, &rf.expr)
        else {
            continue;
        };
        let val = row.attr(name.as_str())?;
        if let Value::Atom(Atom::Str(_) | Atom::Date(_) | Atom::Bool(_)) = val {
            seed = seed.bind(v, val)?;
        }
    }
    Some(seed)
}

/// Records rows that stay deleted: they feed the later strata, and their
/// relations count as maintained.
fn record_minus(
    gone: &DeltaTable,
    carry_minus: &mut DeltaTable,
    touched: &mut BTreeSet<(Name, Name)>,
) {
    for (key, rows) in gone {
        touched.insert(key.clone());
        carry_minus.entry(key.clone()).or_default().extend(rows.iter().cloned());
    }
}

/// Whether a rule's head contains a scalar (`=`) write (not maintainable).
fn head_is_scalar_rule(rule: &Rule) -> bool {
    fn scan(e: &Expr) -> bool {
        match e {
            Expr::Atomic(..) => true,
            Expr::Tuple(fields) => fields.iter().any(|f| scan(&f.expr)),
            _ => false,
        }
    }
    scan(&rule.head)
}

/// Extracts the concrete `(db, rel, row)` a head produces under one
/// grounding substitution. `None` for head shapes the maintenance pass
/// cannot decompose (multi-field heads, non-set leaves, unbindable
/// attribute variables) — the caller bails to the refresh path.
fn head_fact(head: &Expr, subst: &Subst) -> Option<(Name, Name, Value)> {
    let Expr::Tuple(fields) = head else { return None };
    let [f] = fields.as_slice() else { return None };
    let db = attr_name(&f.attr, subst)?;
    let Expr::Tuple(inner) = &f.expr else { return None };
    let [g] = inner.as_slice() else { return None };
    let rel = attr_name(&g.attr, subst)?;
    let Expr::Set(row) = &g.expr else { return None };
    let row = materialize(row, subst).ok()?;
    Some((db, rel, row))
}

/// Resolves a head attribute position to a name under a substitution,
/// with the same displayable-atom coercion as `make_true`.
fn attr_name(attr: &AttrTerm, subst: &Subst) -> Option<Name> {
    match attr {
        AttrTerm::Const(n) => Some(n.clone()),
        AttrTerm::Var(v) => match subst.get(v)? {
            Value::Atom(Atom::Str(n)) => Some(n.clone()),
            Value::Atom(a) if !a.is_null() => Some(Name::new(a.to_string())),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{MaintenanceStats, RuleEngine};
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

    fn opts() -> EvalOptions {
        EvalOptions::default().with_threads(1).with_compile(true).with_semi_naive(true)
    }

    fn fingerprint(store: &Store) -> String {
        idl_storage::persist::to_json(store).unwrap()
    }

    /// Runs an update request against a store, returning its row diff.
    fn apply(store: &mut Store, src: &str) -> UpdateDelta {
        apply_all(store, &crate::program::ProgramRegistry::new(), &[src])
    }

    /// Runs update requests in order (program calls through `programs`),
    /// returning their accumulated row diff: one repair's delta.
    fn apply_all(
        store: &mut Store,
        programs: &crate::program::ProgramRegistry,
        srcs: &[&str],
    ) -> UpdateDelta {
        let pre = store.universe().clone();
        let v = store.version();
        for src in srcs {
            let Statement::Request(req) = parse_statement(src).unwrap() else { panic!() };
            crate::request::run_request(
                store,
                programs,
                &crate::rules::DerivedCatalog::empty(),
                &idl_storage::SchemaSet::new(),
                &req,
                opts(),
                None,
            )
            .unwrap();
        }
        let scopes: Vec<_> = store.changes_since(v).iter().map(|c| c.scope.clone()).collect();
        diff_update(&pre, store.universe(), &scopes).expect("row diff extractable")
    }

    /// The differential harness: maintain must land on the exact store a
    /// full rebuild produces.
    fn check_maintain(rules: Vec<Rule>, updates: &[&str]) -> MaintenanceStats {
        let engine = RuleEngine::new(rules).unwrap();
        let mut maintained = base_store();
        engine.materialize(&mut maintained, opts()).unwrap();
        let mut last = MaintenanceStats::default();
        for update in updates {
            let delta = apply(&mut maintained, update);
            let stats =
                engine.maintain(&mut maintained, &delta, opts()).unwrap().expect("maintainable");
            last = stats.maintenance;

            // Reference: rebuild from the same base data.
            let mut reference = base_store();
            for done in updates.iter().take_while(|u| *u != update).chain([update]) {
                apply(&mut reference, done);
            }
            // Rebuild derived state from scratch.
            let mut fresh = Store::from_universe(reference.universe().clone()).unwrap();
            for db in engine.derived_databases() {
                if fresh.has_database(db.as_str()) {
                    let rels = fresh.relation_names(db.as_str()).unwrap();
                    for rel in rels {
                        fresh.drop_relation(db.as_str(), rel.as_str()).unwrap();
                    }
                }
            }
            engine.materialize(&mut fresh, opts()).unwrap();
            assert_eq!(
                fingerprint(&maintained),
                fingerprint(&fresh),
                "maintained ≠ rebuilt after {update}"
            );
        }
        last
    }

    #[test]
    fn insert_maintains_union_view() {
        let stats = check_maintain(
            vec![rule(
                ".dbI.p(.date=D,.stk=S,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P)",
            )],
            &["?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=7)"],
        );
        assert_eq!(stats.views_maintained, 1);
        assert!(stats.delta_rules_run >= 1);
    }

    #[test]
    fn delete_cascades_with_exact_rederivation() {
        // hp appears on two dates; deleting one quote must keep the other
        // derivation alive (rederive), deleting both must empty it.
        check_maintain(
            vec![rule(".dbI.p(.stk=S) <- .euter.r(.stkCode=S)")],
            &[
                "?.euter.r-(.date=3/3/85,.stkCode=hp,.clsPrice=50)",
                "?.euter.r-(.date=3/4/85,.stkCode=hp,.clsPrice=62)",
            ],
        );
    }

    #[test]
    fn insert_through_negation_deletes_dependents() {
        // `only` holds stocks absent from ource; inserting a new ource
        // relation is a schema change (bails), but inserting a row into
        // an *existing* negated relation must delete dependent rows.
        let rules = vec![
            rule(".dbI.p(.stk=S) <- .euter.r(.stkCode=S)"),
            rule(".dbI.lone(.stk=S) <- .dbI.p(.stk=S), .chwab.r¬(.S>0)"),
        ];
        check_maintain(rules, &["?.chwab.r+(.date=9/9/99, .hp=1, .ibm=2)"]);
    }

    #[test]
    fn negated_comparison_against_body_variable_is_maintained() {
        // The negated subgoal compares against P, bound by the positive
        // subgoal. The victim query is the rule's negated Δ variant, which
        // keeps the planner's conjunct order: its Δ scan runs where the
        // negated scan ran, after P is bound.
        let rules = vec![
            rule(".dbU.q(.stk=S,.clsPrice=P) <- .euter.r(.stkCode=S,.clsPrice=P)"),
            rule(
                ".dbHi.h(.stk=S,.clsPrice=P) <- .euter.r(.stkCode=S,.clsPrice=P), \
                 .dbU.q¬(.stk=S,.clsPrice>P)",
            ),
        ];
        check_maintain(
            rules,
            &[
                "?.euter.r+(.date=3/9/85,.stkCode=hp,.clsPrice=70)",
                "?.euter.r-(.date=3/9/85,.stkCode=hp,.clsPrice=70)",
            ],
        );
    }

    #[test]
    fn database_level_negation_is_maintained() {
        // `.chwab¬.r(…)` negates at the database level: a chwab row for a
        // date defeats `nochw` for every stock quoted on it, and deleting
        // the row derives them again.
        let rules = vec![
            rule(".dbI.p(.stk=S,.date=D) <- .euter.r(.stkCode=S,.date=D)"),
            rule(".dbI.nochw(.stk=S) <- .dbI.p(.stk=S,.date=D), .chwab¬.r(.date=D)"),
        ];
        check_maintain(
            rules,
            &[
                "?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=7)",
                "?.chwab.r+(.date=3/9/85, .sun=7)",
                "?.chwab.r-(.date=3/9/85)",
                "?.chwab.r-(.date=3/3/85)",
                "?.chwab.r+(.date=3/3/85, .hp=50)",
            ],
        );
    }

    #[test]
    fn negation_without_a_scan_bails_to_refresh() {
        // `.ource¬.S` scans no relation, so the rule has no negated Δ
        // variant: a row entering `ource` cannot be repaired.
        let rules = vec![
            rule(".dbI.p(.stk=S) <- .euter.r(.stkCode=S)"),
            rule(".dbI.only(.stk=S) <- .dbI.p(.stk=S), .ource¬.S"),
        ];
        let engine = RuleEngine::new(rules).unwrap();
        let mut store = base_store();
        engine.materialize(&mut store, opts()).unwrap();
        let delta = apply(&mut store, "?.ource.hp+(.date=9/9/99,.clsPrice=1)");
        let out = engine.maintain(&mut store, &delta, opts()).unwrap();
        assert!(out.is_none(), "a triggered negation without a variant bails");
    }

    #[test]
    fn delete_through_negation_derives_new_rows() {
        // Deleting the last chwab row for a stock makes `lone` derive it.
        let rules = vec![
            rule(".dbI.p(.stk=S) <- .euter.r(.stkCode=S)"),
            rule(".dbI.lone(.stk=S) <- .dbI.p(.stk=S), .chwab.r¬(.S>0)"),
        ];
        check_maintain(rules, &["?.chwab.r-(.date=3/3/85)", "?.chwab.r-(.date=3/4/85)"]);
    }

    #[test]
    fn schematic_create_and_gc_roundtrip() {
        // A higher-order head derives one relation per stock: a new stock
        // materialises a relation (schematic create), retracting its only
        // quote GCs it again.
        let rules =
            vec![rule(".dbO.S(.date=D,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P)")];
        let create =
            check_maintain(rules.clone(), &["?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=7)"]);
        assert_eq!(create.schematic_gcs, 0);
        let gc = check_maintain(
            rules,
            &[
                "?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=7)",
                "?.euter.r-(.date=3/9/85,.stkCode=sun,.clsPrice=7)",
            ],
        );
        assert_eq!(gc.schematic_gcs, 1, "{gc:?}");
    }

    /// A group of the feed's writes — §7's `insStk`/`delStk`, each
    /// touching all three schemata — repairs Figure 1's two-level mapping
    /// from its Δ rows alone: every evaluation is seeded by a delta row or
    /// runs a `(Δ ⋈ full)` variant, none runs a rule over its whole
    /// input. The counts, not the times, guard the repair's cost.
    #[test]
    fn feed_group_repairs_two_level_mapping_without_full_evaluations() {
        let rules: Vec<Rule> = [
            ".dbI.p(.date=D,.stk=S,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P)",
            ".dbI.p(.date=D,.stk=S,.clsPrice=P) <- .chwab.r(.date=D,.S=P), S != date",
            ".dbI.p(.date=D,.stk=S,.clsPrice=P) <- .ource.S(.date=D,.clsPrice=P)",
            ".dbE.r(.date=D,.stkCode=S,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P)",
            ".dbC.r(.date=D,.S=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P)",
            ".dbO.S(.date=D,.clsPrice=P) <- .dbI.p(.date=D,.stk=S,.clsPrice=P)",
        ]
        .into_iter()
        .map(rule)
        .collect();
        let mut programs = crate::program::ProgramRegistry::new();
        let clauses = idl_lang::parse_program(
            ".dbU.delStk(.stk=S,.date=D) -> .euter.r-(.stkCode=S,.date=D) ;
             .dbU.delStk(.stk=S,.date=D) -> .chwab.r(.S-=X,.date=D) ;
             .dbU.delStk(.stk=S,.date=D) -> .ource.S-(.date=D) ;
             .dbU.insStk(.stk=S,.date=D,.price=P) -> .euter.r+(.stkCode=S,.date=D,.clsPrice=P) ;
             .dbU.insStk(.stk=S,.date=D,.price=P) -> .chwab.r(.date=D,+.S=P) ;
             .dbU.insStk(.stk=S,.date=D,.price=P) -> .ource.S+(.date=D,.clsPrice=P) ;",
        )
        .unwrap();
        for clause in clauses {
            let Statement::Program(clause) = clause else { panic!("not a program clause") };
            programs.register(&clause).unwrap();
        }
        let engine = RuleEngine::new(rules).unwrap();
        let mut store = base_store();
        // date-only chwab rows: insStk on these dates edits all three
        // schemata; an earlier group quoted hp on the first
        apply(&mut store, "?.chwab.r+(.date=3/9/85), .chwab.r+(.date=3/10/85)");
        apply_all(&mut store, &programs, &["?.dbU.insStk(.stk=hp,.date=3/9/85,.price=7)"]);
        engine.materialize(&mut store, opts()).unwrap();
        // the feed's shape: inserts lead, a delete trails an earlier insert
        let delta = apply_all(
            &mut store,
            &programs,
            &[
                "?.dbU.insStk(.stk=ibm,.date=3/9/85,.price=8)",
                "?.dbU.insStk(.stk=hp,.date=3/10/85,.price=9)",
                "?.dbU.delStk(.stk=hp,.date=3/9/85)",
                "?.dbU.insStk(.stk=ibm,.date=3/10/85,.price=6)",
            ],
        );
        let stats = engine.maintain(&mut store, &delta, opts()).unwrap().expect("maintains");
        assert_eq!(stats.full_evals, 0, "{stats:?}");
        assert!(stats.maintenance.delta_rules_run > 0, "{stats:?}");
        // the delete cascaded out of the customised view
        let on_3_9 = |row: &Value| row.attr("date").is_some_and(|d| d.to_string() == "3/9/85");
        assert!(!store.relation("dbO", "hp").unwrap().iter().any(on_3_9), "{stats:?}");

        let mut fresh = Store::from_universe(store.universe().clone()).unwrap();
        for db in engine.derived_databases() {
            fresh.drop_database(db.as_str()).unwrap();
        }
        engine.materialize(&mut fresh, opts()).unwrap();
        assert_eq!(fingerprint(&store), fingerprint(&fresh), "repaired ≠ rebuilt");
    }

    #[test]
    fn scalar_heads_bail_to_refresh() {
        let rules = vec![rule(".agg.hi=P <- .euter.r(.stkCode=hp,.clsPrice=P)")];
        let engine = RuleEngine::new(rules).unwrap();
        let mut store = base_store();
        engine.materialize(&mut store, opts()).unwrap();
        let delta = apply(&mut store, "?.euter.r+(.date=3/9/85,.stkCode=hp,.clsPrice=99)");
        let out = engine.maintain(&mut store, &delta, opts()).unwrap();
        assert!(out.is_none(), "scalar heads cannot be maintained");
    }

    #[test]
    fn unrelated_strata_are_skipped() {
        let rules = vec![
            rule(".dbI.p(.stk=S) <- .euter.r(.stkCode=S)"),
            rule(".dbI.q(.d=D) <- .chwab.r(.date=D)"),
        ];
        let engine = RuleEngine::new(rules).unwrap();
        let mut store = base_store();
        engine.materialize(&mut store, opts()).unwrap();
        let delta = apply(&mut store, "?.euter.r+(.date=3/9/85,.stkCode=sun,.clsPrice=7)");
        let stats = engine.maintain(&mut store, &delta, opts()).unwrap().expect("maintains");
        // Only the euter-reading rule ran; the chwab rule was skipped.
        assert!(stats.rules_skipped >= 1, "{stats:?}");
        assert_eq!(stats.maintenance.views_maintained, 1, "{stats:?}");
    }

    #[test]
    fn maintained_views_fingerprint_the_rule_set() {
        let rules = vec![rule(".dbI.p(.stk=S) <- .euter.r(.stkCode=S)")];
        let state = MaintainedViews::for_rules(&rules);
        assert!(state.matches_rules(&rules));
        assert!(!state.matches_rules(&[rule(".x.y(.a=A) <- .euter.r(.stkCode=A)")]));
        assert!(!state.matches_rules(&[]));
        let back = MaintainedViews::from_content(&serde::Serialize::to_content(&state)).unwrap();
        assert_eq!(back, state);
    }

    /// A blob checkpointed before the state was cut to its fingerprint,
    /// `{"rules":[…],"views":[{"db":…,"rel":…,"rows":…}]}`, also carries
    /// per-view row counts. It still decodes and matches, so a directory
    /// written then reopens without a rebuild.
    #[test]
    fn a_blob_with_per_view_row_counts_still_adopts() {
        use serde::content::Content;
        let rules = vec![
            rule(".dbI.p(.stk=S) <- .euter.r(.stkCode=S)"),
            rule(".dbO.S(.date=D) <- .euter.r(.date=D,.stkCode=S)"),
        ];
        let view = |rel: &str, rows: i64| {
            Content::Map(vec![
                ("db".into(), Content::Str(if rel == "p" { "dbI" } else { "dbO" }.into())),
                ("rel".into(), Content::Str(rel.into())),
                ("rows".into(), Content::I64(rows)),
            ])
        };
        let blob = Content::Map(vec![
            (
                "rules".into(),
                Content::Seq(rules.iter().map(|r| Content::Str(r.to_string())).collect()),
            ),
            ("views".into(), Content::Seq(vec![view("p", 2), view("hp", 2)])),
        ]);
        let state = MaintainedViews::from_content(&blob).unwrap();
        assert!(state.matches_rules(&rules), "{blob:?}");
    }

    #[test]
    fn diff_update_bails_on_schema_changes() {
        let mut store = base_store();
        let pre = store.universe().clone();
        let v = store.version();
        // Creating a whole new relation slot is a schema change.
        store.create_relation("euter", "extra").unwrap();
        let scopes: Vec<_> = store.changes_since(v).iter().map(|c| c.scope.clone()).collect();
        assert!(diff_update(&pre, store.universe(), &scopes).is_none());
    }
}
