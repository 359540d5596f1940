//! Physical plan IR — the compiled form of §4.2–§4.3 query evaluation.
//!
//! [`crate::compile`] lowers a `lang::Expr` into a [`PhysOp`] operator tree
//! *once*; [`Evaluator::eval_compiled`] then executes that tree any number
//! of times. Everything the tree-walk interpreter decides per call is
//! decided at compile time instead:
//!
//! * **conjunct order** — the planner's reordering is baked into the field
//!   list, so no per-call clone of the AST;
//! * **index-probe candidates** — a relation scan carries the ordered list
//!   of probeable fields ([`ProbePlan`]); at run time the first candidate
//!   whose key term is ground wins, exactly reproducing the interpreter's
//!   probe choice;
//! * **binder vs filter** — `= X` positions that can bind are split from
//!   plain comparisons ([`PhysOp::Bind`] vs [`PhysOp::Filter`]).
//!
//! The executor is deliberately a method-for-method mirror of
//! `Evaluator::satisfy_at`: the differential battery in
//! `tests/prop_compile_differential.rs` holds the two pipelines to
//! byte-identical universes and answer sets.

use crate::arith::try_eval_term;
use crate::error::EvalResult;
use crate::query::{bound_ref, compare_query, numeric_twin, range_bounds, Evaluator, Loc};
use crate::rules::PredPat;
use crate::subst::Subst;
use idl_lang::{RelOp, Term, Var};
use idl_object::{Atom, Name, SetObj, Value};
use idl_storage::IndexKind;
use std::fmt;

/// A compiled physical operator. One node per AST node of the (planned)
/// source expression — compilation changes representation, never
/// semantics.
#[derive(Clone, Debug, PartialEq)]
pub enum PhysOp {
    /// The empty expression: always satisfied.
    Epsilon,
    /// Negation as failure over the same object.
    Not(Box<PhysOp>),
    /// Atomic comparison `α t` against the current object; errors if the
    /// term has unbound variables (it can never bind).
    Filter(RelOp, Term),
    /// `= X` against the current object: compares when `X` is bound,
    /// binds `X` to the object (aggregates included, §4.1) when not.
    Bind(Var),
    /// Object-free comparison between two terms, `t₁ α t₂`; either side
    /// may bind when `α` is `=` and the other side is ground.
    Constraint(Term, RelOp, Term),
    /// Conjunction over tuple fields, threaded left to right in the
    /// (planner-chosen) order of the field list.
    Tuple(Vec<PhysField>),
    /// Set scan `(exp)`: some element satisfies the inner operator.
    /// When the walk is at a stored relation, `probes` lists the index
    /// access paths to try before falling back to the full scan.
    Scan {
        /// Operator each element is checked against.
        inner: Box<PhysOp>,
        /// Probe candidates in priority order (equalities before ranges,
        /// field order within each class).
        probes: Vec<ProbePlan>,
    },
    /// Semi-naive delta scan: like [`PhysOp::Scan`] at a stored relation,
    /// but only the facts first derived in the previous fixpoint
    /// iteration (the evaluator's delta table, sliced to the evaluator's
    /// shard) are enumerated. Outside the fixpoint — no delta table
    /// installed — it degrades to the full scan, which is always a sound
    /// superset. Deltas are small, so no index probes.
    DeltaScan {
        /// Operator each delta fact is checked against.
        inner: Box<PhysOp>,
    },
}

/// One compiled tuple field: attribute selector plus the operator applied
/// to the attribute's value.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysField {
    /// Attribute position: a constant name, or a (possibly higher-order)
    /// variable that enumerates attribute names when unbound (§4.3).
    pub attr: PhysAttr,
    /// Operator applied to the selected child object.
    pub inner: PhysOp,
}

/// A compiled attribute selector.
#[derive(Clone, Debug, PartialEq)]
pub enum PhysAttr {
    /// A fixed attribute name.
    Const(Name),
    /// An attribute variable: looked up when bound, enumerating the
    /// tuple's attribute names when not.
    Var(Var),
}

/// A candidate index probe for a stored-relation scan. Chosen at run time:
/// the first candidate whose key term evaluates to a ground value is used;
/// probes yield supersets and every candidate tuple is re-checked.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbePlan {
    /// The indexed attribute.
    pub attr: Name,
    /// Point lookup or range scan.
    pub kind: ProbeKind,
    /// The key term (evaluated under the ambient substitution).
    pub term: Term,
}

/// The access-path class of a [`ProbePlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// Hash-index point lookup (plus the numeric twin key).
    Eq,
    /// B-tree range scan for `attr op key`.
    Range(RelOp),
}

/// A compiled request body or rule body: one plan per conjunct, threaded
/// left to right over the substitution set exactly as
/// [`Evaluator::eval_items`] threads raw items.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledItems {
    items: Vec<PhysOp>,
}

impl CompiledItems {
    pub(crate) fn new(items: Vec<PhysOp>) -> Self {
        CompiledItems { items }
    }

    /// The compiled per-conjunct plans.
    pub fn items(&self) -> &[PhysOp] {
        &self.items
    }

    /// Multi-line, indented rendering of the plan (what `idl --explain`
    /// prints).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for (i, item) in self.items.iter().enumerate() {
            if self.items.len() > 1 {
                out.push_str(&format!("conjunct {}:\n", i + 1));
                item.render(&mut out, 1);
            } else {
                item.render(&mut out, 0);
            }
        }
        out
    }
}

impl fmt::Display for CompiledItems {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

impl PhysOp {
    fn render(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PhysOp::Epsilon => out.push_str(&format!("{pad}epsilon\n")),
            PhysOp::Not(inner) => {
                out.push_str(&format!("{pad}not\n"));
                inner.render(out, depth + 1);
            }
            PhysOp::Filter(op, term) => out.push_str(&format!("{pad}filter {op} {term}\n")),
            PhysOp::Bind(v) => out.push_str(&format!("{pad}bind {}\n", v.name())),
            PhysOp::Constraint(a, op, b) => {
                out.push_str(&format!("{pad}constraint {a} {op} {b}\n"))
            }
            PhysOp::Tuple(fields) => {
                out.push_str(&format!("{pad}tuple\n"));
                for f in fields {
                    match &f.attr {
                        PhysAttr::Const(n) => out.push_str(&format!("{pad}  .{n}:\n")),
                        PhysAttr::Var(v) => {
                            out.push_str(&format!("{pad}  .{} (enumerates attrs):\n", v.name()))
                        }
                    }
                    f.inner.render(out, depth + 2);
                }
            }
            PhysOp::Scan { inner, probes } => {
                if probes.is_empty() {
                    out.push_str(&format!("{pad}scan\n"));
                } else {
                    let specs: Vec<String> = probes
                        .iter()
                        .map(|p| match p.kind {
                            ProbeKind::Eq => format!("eq(.{} = {})", p.attr, p.term),
                            ProbeKind::Range(op) => format!("range(.{} {} {})", p.attr, op, p.term),
                        })
                        .collect();
                    out.push_str(&format!("{pad}scan [probe {}]\n", specs.join(", ")));
                }
                inner.render(out, depth + 1);
            }
            PhysOp::DeltaScan { inner } => {
                out.push_str(&format!("{pad}delta-scan\n"));
                inner.render(out, depth + 1);
            }
        }
    }
}

/// The statically-known level of the universe walk, tracked while
/// analysing a plan (the compile-time mirror of [`Loc`]): attribute
/// positions held by variables are `None` in the resulting pattern.
#[derive(Clone, Debug)]
enum Lvl {
    Root,
    Db(Option<Name>),
    Rel(Option<Name>, Option<Name>),
    Off,
}

impl Lvl {
    fn descend(&self, attr: &PhysAttr) -> Lvl {
        let name = match attr {
            PhysAttr::Const(n) => Some(n.clone()),
            PhysAttr::Var(_) => None,
        };
        match self {
            Lvl::Root => Lvl::Db(name),
            Lvl::Db(db) => Lvl::Rel(db.clone(), name),
            Lvl::Rel(..) | Lvl::Off => Lvl::Off,
        }
    }
}

/// Whether `op`, reached at level `lvl`, is a relation-scan occurrence of
/// the given sign (positive, or under negation); if so, the pattern of the relation it scans and the
/// operator its Δ variant puts in its place: a positive
/// [`PhysOp::DeltaScan`] over the same inner operator.
///
/// A positive occurrence is a `Scan` at the relation level. A negated one
/// is `.db.r¬(…)`, a `Not(Scan)` at the relation level, or `.db¬.r(…)`, a
/// `Not` at the database level over a one-field tuple holding a `Scan`.
/// Stratification guarantees negated subgoals never change within a
/// stratum, so only a view repair's victim queries use negated ones.
fn occurrence(op: &PhysOp, lvl: &Lvl, negated: bool) -> Option<(PredPat, PhysOp)> {
    let delta = |inner: &PhysOp| PhysOp::DeltaScan { inner: Box::new(inner.clone()) };
    match (negated, op, lvl) {
        (false, PhysOp::Scan { inner, .. }, Lvl::Rel(db, rel)) => {
            Some((PredPat { db: db.clone(), rel: rel.clone() }, delta(inner)))
        }
        (true, PhysOp::Not(under), _) => match (under.as_ref(), lvl) {
            (PhysOp::Scan { inner, .. }, Lvl::Rel(db, rel)) => {
                Some((PredPat { db: db.clone(), rel: rel.clone() }, delta(inner)))
            }
            (PhysOp::Tuple(fields), Lvl::Db(_)) => {
                let [f] = fields.as_slice() else { return None };
                let PhysOp::Scan { inner, .. } = &f.inner else { return None };
                let Lvl::Rel(db, rel) = lvl.descend(&f.attr) else { return None };
                let field = PhysField { attr: f.attr.clone(), inner: delta(inner) };
                Some((PredPat { db, rel }, PhysOp::Tuple(vec![field])))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Pre-order collection of the relation-scan occurrences of one sign.
fn collect_occurrences(op: &PhysOp, lvl: Lvl, negated: bool, out: &mut Vec<PredPat>) {
    if let Some((pat, _)) = occurrence(op, &lvl, negated) {
        out.push(pat);
    } else if let PhysOp::Tuple(fields) = op {
        for f in fields {
            collect_occurrences(&f.inner, lvl.descend(&f.attr), negated, out);
        }
    }
}

/// Rewrites the `target`-th occurrence of one sign (numbered as
/// [`collect_occurrences`] numbers them) into its Δ operator.
fn rewrite_occurrence(
    op: &PhysOp,
    lvl: Lvl,
    negated: bool,
    counter: &mut usize,
    target: usize,
) -> PhysOp {
    if let Some((_, variant)) = occurrence(op, &lvl, negated) {
        let here = *counter;
        *counter += 1;
        return if here == target { variant } else { op.clone() };
    }
    match op {
        PhysOp::Tuple(fields) => PhysOp::Tuple(
            fields
                .iter()
                .map(|f| PhysField {
                    attr: f.attr.clone(),
                    inner: rewrite_occurrence(
                        &f.inner,
                        lvl.descend(&f.attr),
                        negated,
                        counter,
                        target,
                    ),
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

impl CompiledItems {
    fn occurrences(&self, negated: bool) -> Vec<PredPat> {
        let mut out = Vec::new();
        for item in &self.items {
            collect_occurrences(item, Lvl::Root, negated, &mut out);
        }
        out
    }

    fn variant(&self, negated: bool, occ: usize) -> CompiledItems {
        let mut counter = 0usize;
        let items = self
            .items
            .iter()
            .map(|item| rewrite_occurrence(item, Lvl::Root, negated, &mut counter, occ))
            .collect();
        CompiledItems::new(items)
    }

    /// The stored-relation scan occurrences a semi-naive delta can be
    /// anchored at: every positive relation-level `Scan`, pre-order
    /// across conjuncts, with the statically-known pattern of the
    /// relation it scans. The index into the returned vector numbers the
    /// occurrence for [`CompiledItems::delta_variant`].
    pub fn delta_occurrences(&self) -> Vec<PredPat> {
        self.occurrences(false)
    }

    /// A copy of this plan with the `occ`-th delta occurrence (as
    /// numbered by [`CompiledItems::delta_occurrences`]) rewritten from a
    /// full relation scan to a [`PhysOp::DeltaScan`] — the `(Δ ⋈ full)`
    /// plan for that occurrence.
    pub fn delta_variant(&self, occ: usize) -> CompiledItems {
        self.variant(false, occ)
    }

    /// The relation scans under negation, `.db.r¬(…)` and `.db¬.r(…)`,
    /// pre-order across conjuncts: where a row inserted into the scanned
    /// relation can defeat a derivation. The index numbers the
    /// occurrence for [`CompiledItems::negated_delta_variant`].
    pub fn negated_occurrences(&self) -> Vec<PredPat> {
        self.occurrences(true)
    }

    /// A copy of this plan with the `occ`-th negated occurrence (as
    /// numbered by [`CompiledItems::negated_occurrences`]) rewritten from
    /// a negated scan to a *positive* [`PhysOp::DeltaScan`]: the rule's
    /// bindings that a Δ row matching the negated subgoal defeats.
    pub fn negated_delta_variant(&self, occ: usize) -> CompiledItems {
        self.variant(true, occ)
    }
}

impl<'a> Evaluator<'a> {
    /// Executes a compiled body: threads the per-conjunct plans over the
    /// seed substitutions left to right, sorting and deduplicating after
    /// each conjunct (the same determinism discipline as the tree walk).
    pub fn eval_compiled(&self, plan: &CompiledItems, seed: Vec<Subst>) -> EvalResult<Vec<Subst>> {
        let mut current = seed;
        for item in plan.items() {
            let mut next = Vec::new();
            for s in &current {
                self.exec_at(self.store.universe(), item, s, &Loc::Root, &mut next)?;
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

    fn exec_at(
        &self,
        obj: &Value,
        op: &PhysOp,
        subst: &Subst,
        loc: &Loc,
        out: &mut Vec<Subst>,
    ) -> EvalResult<()> {
        match op {
            PhysOp::Epsilon => {
                out.push(subst.clone());
                Ok(())
            }
            PhysOp::Not(inner) => {
                let mut tmp = Vec::new();
                self.exec_at(obj, inner, subst, loc, &mut tmp)?;
                if tmp.is_empty() {
                    out.push(subst.clone());
                }
                Ok(())
            }
            PhysOp::Filter(rel, term) => self.atomic(obj, *rel, term, subst, out),
            PhysOp::Bind(v) => {
                // The null atom satisfies no atomic expression (§5.2).
                if obj.is_null() {
                    return Ok(());
                }
                match subst.get(v) {
                    Some(val) => {
                        if compare_query(obj, RelOp::Eq, &val.clone()) {
                            out.push(subst.clone());
                        }
                    }
                    None => {
                        if let Some(s2) = subst.bind(v, obj) {
                            out.push(s2);
                        }
                    }
                }
                Ok(())
            }
            PhysOp::Constraint(a, rel, b) => self.constraint(a, *rel, b, subst, out),
            PhysOp::Tuple(fields) => {
                if obj.as_tuple().is_none() {
                    return Ok(());
                }
                self.exec_tuple(obj, fields, 0, subst, loc, out)
            }
            PhysOp::Scan { inner, probes } => {
                let Some(s) = obj.as_set() else { return Ok(()) };
                self.exec_scan(s, inner, probes, subst, loc, out)
            }
            PhysOp::DeltaScan { inner } => {
                let Some(s) = obj.as_set() else { return Ok(()) };
                if let (Some(table), Loc::Rel(db, rel)) = (self.delta, loc) {
                    if let Some(facts) = table.get(&(db.clone(), rel.clone())) {
                        // This evaluator's shard of the delta; shards
                        // tile the vector, so the union over shard tasks
                        // is the whole delta.
                        let (shard, shards) = self.chunk;
                        let lo = shard * facts.len() / shards;
                        let hi = ((shard + 1) * facts.len() / shards).min(facts.len());
                        for fact in &facts[lo..hi] {
                            self.exec_at(fact, inner, subst, &Loc::Off, out)?;
                            self.check_limit(out.len())?;
                        }
                    }
                    return Ok(());
                }
                // No delta table installed: degrade to the full scan.
                for elem in s.iter() {
                    self.exec_at(elem, inner, subst, &Loc::Off, out)?;
                    self.check_limit(out.len())?;
                }
                Ok(())
            }
        }
    }

    fn exec_tuple(
        &self,
        obj: &Value,
        fields: &[PhysField],
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
        let t = obj.as_tuple().expect("caller checked tuple kind");
        match &field.attr {
            PhysAttr::Const(name) => {
                let Some(child) = t.get(name.as_str()) else { return Ok(()) };
                let child_loc = loc.descend(name);
                let mut exts = Vec::new();
                self.exec_at(child, &field.inner, subst, &child_loc, &mut exts)?;
                for s2 in exts {
                    self.exec_tuple(obj, fields, i + 1, &s2, loc, out)?;
                    self.check_limit(out.len())?;
                }
                Ok(())
            }
            PhysAttr::Var(v) => {
                if let Some(bound) = subst.get(v) {
                    // Bound higher-order variable: must name an attribute.
                    let Value::Atom(Atom::Str(name)) = bound else {
                        return Ok(()); // non-name binding satisfies nothing
                    };
                    let name = name.clone();
                    let Some(child) = t.get(name.as_str()) else { return Ok(()) };
                    let child_loc = loc.descend(&name);
                    let mut exts = Vec::new();
                    self.exec_at(child, &field.inner, subst, &child_loc, &mut exts)?;
                    for s2 in exts {
                        self.exec_tuple(obj, fields, i + 1, &s2, loc, out)?;
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
                        self.exec_at(child, &field.inner, &s1, &child_loc, &mut exts)?;
                        for s2 in exts {
                            self.exec_tuple(obj, fields, i + 1, &s2, loc, out)?;
                            self.check_limit(out.len())?;
                        }
                    }
                    Ok(())
                }
            }
        }
    }

    fn exec_scan(
        &self,
        set: &SetObj,
        inner: &PhysOp,
        probes: &[ProbePlan],
        subst: &Subst,
        loc: &Loc,
        out: &mut Vec<Subst>,
    ) -> EvalResult<()> {
        // Index probe when scanning a stored relation: the first candidate
        // whose key term is ground under the ambient substitution wins —
        // the same choice `probe_spec` makes in the interpreter. Candidates
        // are borrowed from the (Arc-held) index — no tuple cloning.
        if self.opts.use_indexes {
            if let Loc::Rel(db, rel) = loc {
                for probe in probes {
                    let Ok(key) = try_eval_term(&probe.term, subst) else { continue };
                    match probe.kind {
                        ProbeKind::Eq => {
                            let index = self.fetch_index(db, rel, &probe.attr, IndexKind::Hash)?;
                            let mut keys = vec![key];
                            if let Some(twin) = numeric_twin(&keys[0]) {
                                keys.push(twin);
                            }
                            for key in &keys {
                                for cand in index.lookup_eq(key) {
                                    self.exec_at(cand, inner, subst, &Loc::Off, out)?;
                                    self.check_limit(out.len())?;
                                }
                            }
                        }
                        ProbeKind::Range(op) => {
                            let index = self.fetch_index(db, rel, &probe.attr, IndexKind::BTree)?;
                            for (lo, hi) in &range_bounds(op, &key) {
                                if let Some(hits) = index.lookup_range(bound_ref(lo), bound_ref(hi))
                                {
                                    for cand in hits {
                                        self.exec_at(cand, inner, subst, &Loc::Off, out)?;
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
        for elem in set.iter() {
            self.exec_at(elem, inner, subst, &Loc::Off, out)?;
            self.check_limit(out.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_items;
    use crate::query::EvalOptions;
    use idl_lang::{parse_statement, Statement};

    fn plan(src: &str) -> CompiledItems {
        let Statement::Request(req) = parse_statement(src).unwrap() else { panic!("{src}") };
        compile_items(&req.items, EvalOptions::default()).unwrap()
    }

    fn pat(db: &str, rel: &str) -> PredPat {
        PredPat { db: Some(Name::new(db)), rel: Some(Name::new(rel)) }
    }

    /// The relation patterns a plan's Δ scans read, pre-order.
    fn delta_scans(plan: &CompiledItems) -> Vec<PredPat> {
        fn walk(op: &PhysOp, lvl: Lvl, out: &mut Vec<PredPat>) {
            match op {
                PhysOp::DeltaScan { .. } => {
                    if let Lvl::Rel(db, rel) = lvl {
                        out.push(PredPat { db, rel });
                    }
                }
                PhysOp::Not(inner) => walk(inner, lvl, out),
                PhysOp::Tuple(fields) => {
                    for f in fields {
                        walk(&f.inner, lvl.descend(&f.attr), out);
                    }
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        for item in plan.items() {
            walk(item, Lvl::Root, &mut out);
        }
        out
    }

    #[test]
    fn negated_delta_variant_rewrites_exactly_the_kth_occurrence() {
        // `.chwab¬.r(…)` negates at the database level, `.euter.r¬(…)` at
        // the relation level: both are negated occurrences.
        let p = plan("?.dbI.p(.stk=S,.date=D), .chwab¬.r(.date=D), .euter.r¬(.stkCode=S)");
        let occs = p.negated_occurrences();
        let mut sorted = occs.clone();
        sorted.sort();
        assert_eq!(sorted, vec![pat("chwab", "r"), pat("euter", "r")]);
        assert_eq!(p.delta_occurrences(), vec![pat("dbI", "p")]);
        assert!(delta_scans(&p).is_empty());
        for (k, occ) in occs.iter().enumerate() {
            let v = p.negated_delta_variant(k);
            assert_eq!(delta_scans(&v), vec![occ.clone()], "variant {k} scans Δ at its occurrence");
            let mut rest = occs.clone();
            rest.remove(k);
            assert_eq!(v.negated_occurrences(), rest, "variant {k} keeps the other negation");
            assert_eq!(v.delta_occurrences(), p.delta_occurrences(), "positive scans untouched");
        }
        // The positive variant leaves both negations alone.
        let v = p.delta_variant(0);
        assert_eq!(delta_scans(&v), vec![pat("dbI", "p")]);
        assert_eq!(v.negated_occurrences(), occs);
    }

    #[test]
    fn negation_without_a_scan_is_no_occurrence() {
        // `.ource¬.S` asks that no relation be named S: no relation scan
        // sits under the `¬`, so no Δ row can be matched against it.
        let p = plan("?.dbI.p(.stk=S), .ource¬.S");
        assert!(p.negated_occurrences().is_empty());
        assert_eq!(p.delta_occurrences(), vec![pat("dbI", "p")]);
    }
}
