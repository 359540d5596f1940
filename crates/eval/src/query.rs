//! Query evaluation (§4.2–§4.3).
//!
//! The evaluator computes, for an expression and an object, the set of
//! substitutions under which the object satisfies the expression:
//!
//! * an **atomic** expression `α t` is satisfied by an atomic object `o`
//!   when `o α tσ` holds; the null atom satisfies nothing (§5.2); `= X`
//!   with `X` unbound *binds* `X` to the object (including aggregate
//!   objects — tuples and sets, §4.1's generalisation);
//! * a **tuple** expression is a conjunction over its fields, threaded left
//!   to right; an attribute position holding an *unbound higher-order
//!   variable enumerates the tuple's attribute names* (§4.3) — this single
//!   rule is what lets data range over metadata;
//! * a **set** expression `(exp)` is satisfied when some element satisfies
//!   `exp`; answers union over elements;
//! * `¬exp` succeeds when `exp` has no satisfying extension
//!   (negation-as-failure; unbound variables inside the negation are
//!   existential).
//!
//! ## Access paths
//!
//! The evaluator tracks *where* in the universe it is walking
//! ([`Loc`]): when a set expression scans a stored relation and a field
//! provides a ground equality or range probe, the storage layer's index is
//! consulted for candidates instead of scanning every element. Candidates
//! are always re-checked against the full expression, so index probes only
//! have to be *supersets* — which is what makes mixed int/float data safe.
//! [`EvalOptions`] can disable this (and conjunct reordering) for the
//! naive reference mode used in differential tests and ablation benches.

use crate::arith::try_eval_term;
use crate::delta::DeltaTable;
use crate::error::{EvalError, EvalResult};
use crate::plan;
use crate::subst::{AnswerSet, Subst};
use idl_lang::{AttrTerm, Expr, Field, RelOp, Request, Term};
use idl_object::{Atom, Name, SetObj, Value};
use idl_storage::index::Index;
use idl_storage::{IndexKind, Store};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

/// Evaluation options (planner/index toggles, result limits, fixpoint
/// parallelism).
#[derive(Clone, Copy, Debug)]
pub struct EvalOptions {
    /// Consult storage indexes when scanning stored relations.
    pub use_indexes: bool,
    /// Reorder tuple-expression conjuncts before evaluation.
    pub reorder: bool,
    /// Compile expressions to the physical plan IR before execution
    /// ([`crate::physical`]). `false` keeps the tree-walking interpreter
    /// as the reference mode for differential testing.
    pub compile: bool,
    /// Abort with [`EvalError::TooManyResults`] beyond this many
    /// substitutions in any intermediate result.
    pub max_results: Option<usize>,
    /// Worker threads for intra-stratum fixpoint evaluation. `1` keeps the
    /// sequential path; `0` is treated as `1`. Query evaluation itself is
    /// unaffected — only `RuleEngine` materialisation fans out.
    pub threads: usize,
    /// Semi-naive (delta-driven) fixpoint scheduling: skip rules whose
    /// body predicates saw no delta and join new facts against the full
    /// store instead of re-deriving everything each iteration. `false`
    /// keeps naive full re-evaluation as the reference mode for
    /// differential testing. Query evaluation itself is unaffected.
    pub semi_naive: bool,
    /// Incremental view repair: stale views catch up with the base
    /// writes since they were last fresh through the delta pass
    /// ([`crate::maintain`]) instead of a full re-derivation. `false`
    /// keeps refresh-the-world as the reference mode for differential
    /// testing. Query evaluation itself is unaffected.
    pub maintain: bool,
}

impl Default for EvalOptions {
    /// The production configuration: indexes, reordering, compiled
    /// plans, semi-naive fixpoint, incremental view repair, and
    /// [`default_threads`] fixpoint workers.
    fn default() -> Self {
        EvalOptions {
            use_indexes: true,
            reorder: true,
            compile: true,
            max_results: None,
            threads: default_threads(),
            semi_naive: true,
            maintain: true,
        }
    }
}

impl EvalOptions {
    /// The naive reference configuration: no indexes, no reordering, no
    /// plan compilation (pure tree walk), sequential fixpoint.
    pub fn naive() -> Self {
        EvalOptions {
            use_indexes: false,
            reorder: false,
            compile: false,
            max_results: None,
            threads: 1,
            semi_naive: false,
            maintain: false,
        }
    }

    /// This configuration with a fixed fixpoint worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// This configuration with plan compilation switched on or off.
    pub fn with_compile(mut self, compile: bool) -> Self {
        self.compile = compile;
        self
    }

    /// This configuration with semi-naive fixpoint scheduling switched on
    /// or off.
    pub fn with_semi_naive(mut self, semi_naive: bool) -> Self {
        self.semi_naive = semi_naive;
        self
    }

    /// This configuration with incremental view repair switched on or
    /// off.
    pub fn with_maintain(mut self, maintain: bool) -> Self {
        self.maintain = maintain;
        self
    }
}

/// The default fixpoint worker count: the `IDL_TEST_THREADS` environment
/// variable when set (how CI pins the thread matrix), otherwise the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("IDL_TEST_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Where in the stored universe the walk currently is (for index probes).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Loc {
    /// At the universe root (attributes are database names).
    Root,
    /// Inside a database (attributes are relation names).
    Db(Name),
    /// At a stored relation — the probe point.
    Rel(Name, Name),
    /// Anywhere else (no index support).
    Off,
}

impl Loc {
    pub(crate) fn descend(&self, attr: &Name) -> Loc {
        match self {
            Loc::Root => Loc::Db(attr.clone()),
            Loc::Db(db) => Loc::Rel(db.clone(), attr.clone()),
            Loc::Rel(..) | Loc::Off => Loc::Off,
        }
    }
}

/// The query evaluator, borrowing the store it reads.
pub struct Evaluator<'a> {
    pub(crate) store: &'a Store,
    pub(crate) opts: EvalOptions,
    /// Previous-iteration delta relations for semi-naive fixpoint tasks:
    /// [`crate::physical::PhysOp::DeltaScan`] reads these instead of the
    /// stored relation. `None` outside the fixpoint (a delta scan then
    /// degrades to the full scan, which is always a sound superset).
    pub(crate) delta: Option<&'a DeltaTable>,
    /// `(shard, shard_count)` slice of each delta relation this evaluator
    /// sees — how one rule's delta work is split across workers.
    pub(crate) chunk: (usize, usize),
    /// Per-evaluator index memo: the store's index cache sits behind a
    /// global mutex and re-checks journal staleness per call, which
    /// dominates probe-heavy fixpoint iterations when several workers
    /// hammer it. The store is borrowed immutably for this evaluator's
    /// whole lifetime, so a fetched index can never go stale here.
    index_memo: RefCell<HashMap<IndexMemoKey, Arc<Index>>>,
}

/// `(db, relation, attribute, kind)` — identifies one memoized index.
type IndexMemoKey = (Name, Name, Name, IndexKind);

impl<'a> Evaluator<'a> {
    /// Evaluator with the given options.
    pub fn new(store: &'a Store, opts: EvalOptions) -> Self {
        Evaluator {
            store,
            opts,
            delta: None,
            chunk: (0, 1),
            index_memo: RefCell::new(HashMap::new()),
        }
    }

    /// Evaluator for one semi-naive fixpoint task: delta scans read
    /// `delta`, sliced to the `chunk = (shard, shard_count)` shard.
    pub(crate) fn with_delta(
        store: &'a Store,
        opts: EvalOptions,
        delta: &'a DeltaTable,
        chunk: (usize, usize),
    ) -> Self {
        let mut ev = Evaluator::new(store, opts);
        ev.delta = Some(delta);
        ev.chunk = (chunk.0, chunk.1.max(1));
        ev
    }

    /// A stored index, memoised for this evaluator's lifetime (see
    /// `index_memo`).
    pub(crate) fn fetch_index(
        &self,
        db: &Name,
        rel: &Name,
        attr: &Name,
        kind: IndexKind,
    ) -> EvalResult<Arc<Index>> {
        let key = (db.clone(), rel.clone(), attr.clone(), kind);
        if let Some(idx) = self.index_memo.borrow().get(&key) {
            return Ok(Arc::clone(idx));
        }
        let idx = self.store.index(db.as_str(), rel.as_str(), attr.as_str(), kind)?;
        self.index_memo.borrow_mut().insert(key, Arc::clone(&idx));
        Ok(idx)
    }

    /// Evaluator with default options (planner + indexes on).
    pub fn with_defaults(store: &'a Store) -> Self {
        Self::new(store, EvalOptions::default())
    }

    /// The store this evaluator reads.
    pub fn store(&self) -> &Store {
        self.store
    }

    /// The options in effect.
    pub fn options(&self) -> EvalOptions {
        self.opts
    }

    /// Evaluates a pure-query request: the answer is the set of grounding
    /// substitutions projected onto the request's named variables (§4.2).
    pub fn query(&self, request: &Request) -> EvalResult<AnswerSet> {
        if !request.is_pure_query() {
            return Err(EvalError::Malformed(
                "request contains update expressions; use the update runner".into(),
            ));
        }
        let substs = self.eval_items(&request.items, vec![Subst::new()])?;
        let vars = request.vars();
        let named: std::collections::BTreeSet<_> =
            vars.into_iter().filter(|v| !v.is_gensym()).collect();
        Ok(substs.into_iter().map(|s| s.project(&named)).collect())
    }

    /// Threads a list of universe-level conjuncts over a set of seed
    /// substitutions, left to right.
    ///
    /// With [`EvalOptions::compile`] set this compiles the items to the
    /// physical plan IR and executes that (an uncached compile — callers
    /// with a [`crate::compile::PlanCache`] should compile through it and
    /// call [`Evaluator::eval_compiled`] directly); otherwise it
    /// tree-walks the AST, re-planning per item as the reference
    /// interpreter always has.
    pub fn eval_items(&self, items: &[Expr], seed: Vec<Subst>) -> EvalResult<Vec<Subst>> {
        if self.opts.compile {
            let plan = crate::compile::compile_items(items, self.opts)?;
            return self.eval_compiled(&plan, seed);
        }
        let mut current = seed;
        for item in items {
            let item = if self.opts.reorder { plan::plan_query_expr(item) } else { item.clone() };
            let mut next = Vec::new();
            for s in &current {
                self.satisfy_at(self.store.universe(), &item, s, &Loc::Root, &mut next)?;
                self.check_limit(next.len())?;
            }
            next.sort();
            next.dedup();
            current = next;
            if current.is_empty() {
                break;
            }
        }
        Ok(current)
    }

    /// Public single-expression satisfaction on an arbitrary object
    /// (no index support — location unknown).
    pub fn satisfy(
        &self,
        obj: &Value,
        expr: &Expr,
        subst: &Subst,
        out: &mut Vec<Subst>,
    ) -> EvalResult<()> {
        self.satisfy_at(obj, expr, subst, &Loc::Off, out)
    }

    /// Boolean satisfaction check.
    pub fn holds(&self, obj: &Value, expr: &Expr, subst: &Subst) -> EvalResult<bool> {
        let mut out = Vec::new();
        self.satisfy_at(obj, expr, subst, &Loc::Off, &mut out)?;
        Ok(!out.is_empty())
    }

    pub(crate) fn check_limit(&self, n: usize) -> EvalResult<()> {
        match self.opts.max_results {
            Some(limit) if n > limit => Err(EvalError::TooManyResults(limit)),
            _ => Ok(()),
        }
    }

    fn satisfy_at(
        &self,
        obj: &Value,
        expr: &Expr,
        subst: &Subst,
        loc: &Loc,
        out: &mut Vec<Subst>,
    ) -> EvalResult<()> {
        match expr {
            Expr::Epsilon => {
                out.push(subst.clone());
                Ok(())
            }
            Expr::Not(inner) => {
                let mut tmp = Vec::new();
                self.satisfy_at(obj, inner, subst, loc, &mut tmp)?;
                if tmp.is_empty() {
                    out.push(subst.clone());
                }
                Ok(())
            }
            Expr::Atomic(op, term) => self.atomic(obj, *op, term, subst, out),
            Expr::Constraint(a, op, b) => self.constraint(a, *op, b, subst, out),
            Expr::Tuple(fields) => {
                let Some(t) = obj.as_tuple() else { return Ok(()) };
                let _ = t;
                self.tuple_fields(obj, fields, subst, loc, out)
            }
            Expr::Set(inner) => {
                let Some(s) = obj.as_set() else { return Ok(()) };
                self.set_scan(s, inner, subst, loc, out)
            }
            Expr::AtomicUpdate(..) | Expr::SetUpdate(..) => {
                Err(EvalError::Malformed("update expression in query position".into()))
            }
        }
    }

    // ---- atomic ---------------------------------------------------------

    pub(crate) fn atomic(
        &self,
        obj: &Value,
        op: RelOp,
        term: &Term,
        subst: &Subst,
        out: &mut Vec<Subst>,
    ) -> EvalResult<()> {
        // The null atom satisfies no atomic expression (§5.2).
        if obj.is_null() {
            return Ok(());
        }
        match try_eval_term(term, subst) {
            Ok(val) => {
                if compare_query(obj, op, &val) {
                    out.push(subst.clone());
                }
                Ok(())
            }
            Err(unbound) => {
                if op == RelOp::Eq {
                    if let Term::Var(v) = term {
                        // `= X` with X unbound: bind X to the object —
                        // including aggregate objects (§4.1).
                        if let Some(s2) = subst.bind(v, obj) {
                            out.push(s2);
                        }
                        return Ok(());
                    }
                }
                Err(EvalError::Uninstantiated(unbound))
            }
        }
    }

    pub(crate) fn constraint(
        &self,
        a: &Term,
        op: RelOp,
        b: &Term,
        subst: &Subst,
        out: &mut Vec<Subst>,
    ) -> EvalResult<()> {
        match (try_eval_term(a, subst), try_eval_term(b, subst)) {
            (Ok(x), Ok(y)) => {
                if compare_query(&x, op, &y) {
                    out.push(subst.clone());
                }
                Ok(())
            }
            (Err(_), Ok(y)) if op == RelOp::Eq => {
                if let Term::Var(v) = a {
                    if let Some(s2) = subst.bind(v, &y) {
                        out.push(s2);
                    }
                    return Ok(());
                }
                Err(EvalError::Uninstantiated(first_unbound(a, subst).unwrap()))
            }
            (Ok(x), Err(_)) if op == RelOp::Eq => {
                if let Term::Var(v) = b {
                    if let Some(s2) = subst.bind(v, &x) {
                        out.push(s2);
                    }
                    return Ok(());
                }
                Err(EvalError::Uninstantiated(first_unbound(b, subst).unwrap()))
            }
            (Err(v), _) | (_, Err(v)) => Err(EvalError::Uninstantiated(v)),
        }
    }

    // ---- tuple ----------------------------------------------------------

    fn tuple_fields(
        &self,
        obj: &Value,
        fields: &[Field],
        subst: &Subst,
        loc: &Loc,
        out: &mut Vec<Subst>,
    ) -> EvalResult<()> {
        self.tuple_fields_rec(obj, fields, 0, subst, loc, out)
    }

    fn tuple_fields_rec(
        &self,
        obj: &Value,
        fields: &[Field],
        i: usize,
        subst: &Subst,
        loc: &Loc,
        out: &mut Vec<Subst>,
    ) -> EvalResult<()> {
        if i == fields.len() {
            out.push(subst.clone());
            return Ok(());
        }
        let field = &fields[i];
        if field.sign.is_some() {
            return Err(EvalError::Malformed("update field in query position".into()));
        }
        let t = obj.as_tuple().expect("caller checked tuple kind");
        match &field.attr {
            AttrTerm::Const(name) => {
                let Some(child) = t.get(name.as_str()) else { return Ok(()) };
                let child_loc = loc.descend(name);
                let mut exts = Vec::new();
                self.satisfy_at(child, &field.expr, subst, &child_loc, &mut exts)?;
                for s2 in exts {
                    self.tuple_fields_rec(obj, fields, i + 1, &s2, loc, out)?;
                    self.check_limit(out.len())?;
                }
                Ok(())
            }
            AttrTerm::Var(v) => {
                if let Some(bound) = subst.get(v) {
                    // Bound higher-order variable: must name an attribute.
                    let Value::Atom(Atom::Str(name)) = bound else {
                        return Ok(()); // non-name binding satisfies nothing
                    };
                    let name = name.clone();
                    let Some(child) = t.get(name.as_str()) else { return Ok(()) };
                    let child_loc = loc.descend(&name);
                    let mut exts = Vec::new();
                    self.satisfy_at(child, &field.expr, subst, &child_loc, &mut exts)?;
                    for s2 in exts {
                        self.tuple_fields_rec(obj, fields, i + 1, &s2, loc, out)?;
                        self.check_limit(out.len())?;
                    }
                    Ok(())
                } else {
                    // §4.3: the higher-order variable ranges over the
                    // tuple's attribute names.
                    for (name, child) in t.iter() {
                        let Some(s1) = subst.bind(v, &Value::str(name.as_str())) else {
                            continue;
                        };
                        let child_loc = loc.descend(name);
                        let mut exts = Vec::new();
                        self.satisfy_at(child, &field.expr, &s1, &child_loc, &mut exts)?;
                        for s2 in exts {
                            self.tuple_fields_rec(obj, fields, i + 1, &s2, loc, out)?;
                            self.check_limit(out.len())?;
                        }
                    }
                    Ok(())
                }
            }
        }
    }

    // ---- set ------------------------------------------------------------

    fn set_scan(
        &self,
        set: &SetObj,
        inner: &Expr,
        subst: &Subst,
        loc: &Loc,
        out: &mut Vec<Subst>,
    ) -> EvalResult<()> {
        // Index probe when scanning a stored relation. Candidates are
        // borrowed from the (Arc-held) index — no tuple cloning.
        if self.opts.use_indexes {
            if let Loc::Rel(db, rel) = loc {
                if let Expr::Tuple(fields) = inner {
                    if let Some(spec) = self.probe_spec(db, rel, fields, subst)? {
                        match spec {
                            ProbeSpec::Eq { index, keys } => {
                                for key in &keys {
                                    for cand in index.lookup_eq(key) {
                                        self.satisfy_at(cand, inner, subst, &Loc::Off, out)?;
                                        self.check_limit(out.len())?;
                                    }
                                }
                            }
                            ProbeSpec::Range { index, bounds } => {
                                for (lo, hi) in &bounds {
                                    if let Some(hits) =
                                        index.lookup_range(bound_ref(lo), bound_ref(hi))
                                    {
                                        for cand in hits {
                                            self.satisfy_at(cand, inner, subst, &Loc::Off, out)?;
                                            self.check_limit(out.len())?;
                                        }
                                    }
                                }
                            }
                        }
                        return Ok(());
                    }
                }
            }
        }
        for elem in set.iter() {
            self.satisfy_at(elem, inner, subst, &Loc::Off, out)?;
            self.check_limit(out.len())?;
        }
        Ok(())
    }

    /// Chooses an index probe for the given relation-scan fields, returning
    /// the access path (always a *superset* of the matching tuples — every
    /// candidate is re-checked against the full expression) or `None` when
    /// no probeable field exists.
    fn probe_spec(
        &self,
        db: &Name,
        rel: &Name,
        fields: &[Field],
        subst: &Subst,
    ) -> EvalResult<Option<ProbeSpec>> {
        // Equality probe first.
        for f in fields {
            if f.sign.is_some() {
                continue;
            }
            let AttrTerm::Const(attr) = &f.attr else { continue };
            let Expr::Atomic(RelOp::Eq, term) = &f.expr else { continue };
            let Ok(key) = try_eval_term(term, subst) else { continue };
            let index = self.fetch_index(db, rel, attr, IndexKind::Hash)?;
            let mut keys = vec![key];
            if let Some(twin) = numeric_twin(&keys[0]) {
                keys.push(twin);
            }
            return Ok(Some(ProbeSpec::Eq { index, keys }));
        }
        // Range probe.
        for f in fields {
            if f.sign.is_some() {
                continue;
            }
            let AttrTerm::Const(attr) = &f.attr else { continue };
            let Expr::Atomic(op, term) = &f.expr else { continue };
            if !matches!(op, RelOp::Lt | RelOp::Le | RelOp::Gt | RelOp::Ge) {
                continue;
            }
            let Ok(key) = try_eval_term(term, subst) else { continue };
            let index = self.fetch_index(db, rel, attr, IndexKind::BTree)?;
            return Ok(Some(ProbeSpec::Range { index, bounds: range_bounds(*op, &key) }));
        }
        Ok(None)
    }
}

/// A chosen index access path.
enum ProbeSpec {
    /// Point lookups for each (coercion-widened) key.
    Eq {
        /// The hash index, kept alive while candidates are borrowed.
        index: std::sync::Arc<idl_storage::index::Index>,
        /// The probe keys (value + numeric twin).
        keys: Vec<Value>,
    },
    /// Range scans over (widened) bounds, one per candidate key type.
    Range {
        /// The B-tree index.
        index: std::sync::Arc<idl_storage::index::Index>,
        /// Bound pairs.
        bounds: Vec<(Bound<Value>, Bound<Value>)>,
    },
}

pub(crate) fn bound_ref(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}

fn first_unbound(term: &Term, subst: &Subst) -> Option<idl_lang::Var> {
    match term {
        Term::Const(_) => None,
        Term::Var(v) => {
            if subst.is_bound(v) {
                None
            } else {
                Some(v.clone())
            }
        }
        Term::Arith(_, a, b) => first_unbound(a, subst).or_else(|| first_unbound(b, subst)),
    }
}

/// Query-level comparison between two objects (§4.2 + §4.1's aggregate
/// variables): atoms compare via [`Atom::compare`] (numeric coercion, null
/// incomparable); aggregates support only `=` / `!=`, structurally.
pub fn compare_query(obj: &Value, op: RelOp, val: &Value) -> bool {
    match (obj, val) {
        (Value::Atom(a), Value::Atom(b)) => match a.compare(b) {
            Some(ord) => op.matches(ord),
            None => false,
        },
        _ => match op {
            RelOp::Eq => obj == val,
            RelOp::Ne => obj != val,
            _ => false,
        },
    }
}

/// The structurally-equal "numeric twin" of an atom: `50 ↔ 50.0`. Used to
/// widen index probes so structural indexes serve numeric query equality.
pub fn numeric_twin(v: &Value) -> Option<Value> {
    match v.as_atom()? {
        Atom::Int(i) => Some(Value::float(*i as f64)),
        Atom::Float(f) => {
            let x = f.get();
            if x.fract() == 0.0 && x >= i64::MIN as f64 && x <= i64::MAX as f64 {
                Some(Value::int(x as i64))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Superset range bounds for an index probe: one (lower, upper) pair per
/// key type that could satisfy `attr op key`. Bounds are widened to
/// inclusive where exactness is fiddly — candidates are re-checked.
pub(crate) fn range_bounds(op: RelOp, key: &Value) -> Vec<(Bound<Value>, Bound<Value>)> {
    use Bound::*;
    let Some(atom) = key.as_atom() else { return vec![] };
    match atom {
        Atom::Int(_) | Atom::Float(_) => {
            let x = atom.as_numeric().unwrap();
            let mut out = Vec::new();
            // Int-side (widened to Included of floor/ceil).
            let (ilo, ihi): (Bound<Value>, Bound<Value>) = match op {
                RelOp::Gt | RelOp::Ge => (Included(Value::int(x.floor() as i64)), Unbounded),
                RelOp::Lt | RelOp::Le => (Unbounded, Included(Value::int(x.ceil() as i64))),
                _ => return vec![],
            };
            out.push((ilo, ihi));
            // Float-side.
            let (flo, fhi): (Bound<Value>, Bound<Value>) = match op {
                RelOp::Gt | RelOp::Ge => (Included(Value::float(x)), Unbounded),
                RelOp::Lt | RelOp::Le => (Unbounded, Included(Value::float(x))),
                _ => unreachable!(),
            };
            out.push((flo, fhi));
            out
        }
        _ => {
            let v = key.clone();
            let pair = match op {
                RelOp::Gt => (Excluded(v), Unbounded),
                RelOp::Ge => (Included(v), Unbounded),
                RelOp::Lt => (Unbounded, Excluded(v)),
                RelOp::Le => (Unbounded, Included(v)),
                _ => return vec![],
            };
            vec![pair]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idl_lang::parse_statement;
    use idl_lang::Statement;
    use idl_object::universe::stock_universe;

    fn store() -> Store {
        let quotes = vec![
            ("3/3/85", "hp", 50.0),
            ("3/3/85", "ibm", 160.0),
            ("3/4/85", "hp", 62.0),
            ("3/4/85", "ibm", 155.0),
            ("3/5/85", "hp", 61.0),
            ("3/5/85", "ibm", 210.0),
        ];
        Store::from_universe(stock_universe(quotes)).unwrap()
    }

    fn ask(store: &Store, src: &str) -> AnswerSet {
        let Statement::Request(req) = parse_statement(src).unwrap() else {
            panic!("not a request: {src}")
        };
        Evaluator::with_defaults(store).query(&req).unwrap_or_else(|e| panic!("{src}: {e}"))
    }

    fn ask_naive(store: &Store, src: &str) -> AnswerSet {
        let Statement::Request(req) = parse_statement(src).unwrap() else {
            panic!("not a request: {src}")
        };
        Evaluator::new(store, EvalOptions::naive())
            .query(&req)
            .unwrap_or_else(|e| panic!("{src}: {e}"))
    }

    #[test]
    fn ground_boolean_queries() {
        let s = store();
        assert!(ask(&s, "?.euter.r(.stkCode=hp, .clsPrice>60)").is_true());
        assert!(!ask(&s, "?.euter.r(.stkCode=hp, .clsPrice>100)").is_true());
        // same intention on the other two schemata (§4.3 closing example)
        assert!(ask(&s, "?.chwab.r(.hp>60)").is_true());
        assert!(ask(&s, "?.ource.hp(.clsPrice>60)").is_true());
    }

    #[test]
    fn join_on_shared_variable() {
        let s = store();
        // dates where hp>60 and ibm>150
        let a = ask(
            &s,
            "?.euter.r(.stkCode=hp,.clsPrice>60,.date=D), .euter.r(.stkCode=ibm,.clsPrice>150,.date=D)",
        );
        let dates = a.column("D");
        assert_eq!(dates.len(), 2);
    }

    #[test]
    fn negation_alltime_high() {
        let s = store();
        let a = ask(
            &s,
            "?.euter.r(.stkCode=hp,.clsPrice=P,.date=D), .euter.r¬(.stkCode=hp,.clsPrice>P)",
        );
        assert_eq!(a.len(), 1);
        assert_eq!(a.column("P"), vec![Value::float(62.0)]);
    }

    #[test]
    fn higher_order_any_stock_above_200() {
        let s = store();
        // euter: data; chwab: attributes; ource: relations
        let a = ask(&s, "?.euter.r(.stkCode=S, .clsPrice>200)");
        assert_eq!(a.column("S"), vec![Value::str("ibm")]);
        let a = ask(&s, "?.chwab.r(.S>200)");
        assert_eq!(a.column("S"), vec![Value::str("ibm")]);
        let a = ask(&s, "?.ource.S(.clsPrice>200)");
        assert_eq!(a.column("S"), vec![Value::str("ibm")]);
    }

    #[test]
    fn metadata_browsing() {
        let s = store();
        // database names
        let a = ask(&s, "?.X.Y");
        let dbs = a.column("X");
        assert_eq!(dbs.len(), 3);
        // relations in ource = stock names
        let a = ask(&s, "?.ource.Y");
        assert_eq!(a.column("Y"), vec![Value::str("hp"), Value::str("ibm")]);
        // databases containing a relation named hp
        let a = ask(&s, "?.X.hp");
        assert_eq!(a.column("X"), vec![Value::str("ource")]);
        // database/relation containing attribute stkCode
        let a = ask(&s, "?.X.Y(.stkCode)");
        assert_eq!(a.column("X"), vec![Value::str("euter")]);
        assert_eq!(a.column("Y"), vec![Value::str("r")]);
    }

    #[test]
    fn constraint_filter() {
        let s = store();
        let a = ask(&s, "?.X.Y, X = ource");
        assert_eq!(a.column("X"), vec![Value::str("ource")]);
        assert_eq!(a.column("Y").len(), 2);
    }

    #[test]
    fn relations_in_all_databases() {
        let s = store();
        // ?.euter.Y, .chwab.Y, .ource.Y — relation names present everywhere
        let a = ask(&s, "?.euter.Y, .chwab.Y, .ource.Y");
        assert!(a.is_empty(), "no relation name occurs in all three (r vs stocks)");
        // but hp occurs in ource only; r occurs in euter and chwab
        let a = ask(&s, "?.euter.Y, .chwab.Y");
        assert_eq!(a.column("Y"), vec![Value::str("r")]);
    }

    #[test]
    fn cross_database_join_on_price() {
        let s = store();
        // stocks in ource and chwab with the same closing price (same date)
        let a = ask(&s, "?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)");
        // every (stock, date) pair matches (same data in both schemata)
        assert_eq!(a.column("S").len(), 2);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn aggregate_variable_binds_whole_relation() {
        let s = store();
        let a = ask(&s, "?.euter.r=R");
        assert_eq!(a.len(), 1);
        let bound = &a.column("R")[0];
        assert_eq!(bound.as_set().unwrap().len(), 6);
    }

    #[test]
    fn planner_equals_naive() {
        let s = store();
        for q in [
            "?.euter.r(.stkCode=hp, .clsPrice>60)",
            "?.euter.r(.clsPrice>60, .stkCode=S)",
            "?.chwab.r(.S>200)",
            "?.ource.S(.clsPrice>100)",
            "?.euter.r(.stkCode=hp,.clsPrice=P,.date=D), .euter.r¬(.stkCode=hp,.clsPrice>P)",
            "?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)",
            "?.X.Y(.stkCode)",
        ] {
            assert_eq!(ask(&s, q), ask_naive(&s, q), "planner/naive mismatch on {q}");
        }
    }

    #[test]
    fn index_probe_numeric_coercion() {
        let s = store();
        // prices stored as floats; integer literal must still match via twin
        let a = ask(&s, "?.euter.r(.clsPrice=50, .stkCode=S)");
        assert_eq!(a.column("S"), vec![Value::str("hp")]);
    }

    #[test]
    fn uninstantiated_comparison_errors() {
        let s = store();
        let Statement::Request(req) = parse_statement("?.euter.r(.clsPrice>P)").unwrap() else {
            panic!()
        };
        let err = Evaluator::with_defaults(&s).query(&req).unwrap_err();
        assert!(matches!(err, EvalError::Uninstantiated(_)));
    }

    #[test]
    fn result_limit() {
        let s = store();
        let Statement::Request(req) = parse_statement("?.euter.r(.date=D,.stkCode=S)").unwrap()
        else {
            panic!()
        };
        let opts = EvalOptions { max_results: Some(2), ..Default::default() };
        let err = Evaluator::new(&s, opts).query(&req).unwrap_err();
        assert!(matches!(err, EvalError::TooManyResults(2)));
    }

    #[test]
    fn null_never_satisfies() {
        let mut s = Store::new();
        s.insert("db", "r", idl_object::tuple! { a: Value::null(), b: 1i64 }).unwrap();
        assert!(!ask(&s, "?.db.r(.a=null)").is_true(), "even = null fails on null");
        assert!(!ask(&s, "?.db.r(.a=X)").is_true(), "binding through null fails");
        assert!(ask(&s, "?.db.r(.b=1)").is_true());
    }

    #[test]
    fn repeated_attribute_conjuncts() {
        let s = store();
        // .clsPrice>60, .clsPrice<100 — two constraints on one attribute
        let a = ask(&s, "?.euter.r(.stkCode=S, .clsPrice>60, .clsPrice<100)");
        assert_eq!(a.column("S"), vec![Value::str("hp")]);
    }

    #[test]
    fn fresh_variables_hidden_from_answers() {
        let s = store();
        let a = ask(&s, "?.euter.r(.stkCode=hp, .clsPrice=_)");
        assert_eq!(a.len(), 1, "anonymous variables are projected away");
    }

    #[test]
    fn user_variable_named_like_gensym_survives() {
        // Regression: `_G1` used to collide with the parser's fresh-variable
        // names and was silently projected out of the answers. Gensyms now
        // carry an unparseable marker, so this is an ordinary variable.
        let s = store();
        let a = ask(&s, "?.euter.r(.stkCode=_G1, .clsPrice>200)");
        assert_eq!(a.column("_G1"), vec![Value::str("ibm")]);
        // and it coexists with a real anonymous variable
        let a = ask(&s, "?.euter.r(.stkCode=_G1, .clsPrice=_)");
        assert_eq!(a.column("_G1").len(), 2, "hp and ibm, _ projected away");
    }
}
