//! Expression → physical plan compilation, and the memoized plan cache.
//!
//! Compilation runs the conjunct planner ([`crate::plan`]) once per
//! expression and lowers the planned AST into the [`crate::physical`] IR,
//! precomputing index-probe candidate lists for every stored-relation
//! scan. The result is reusable across substitutions, fixpoint iterations
//! and worker threads — compile once, run many.
//!
//! A plan is a function of its text and the plan-shaping options alone
//! (`reorder`, `use_indexes`): compilation never reads a store. A
//! relation name is data that a higher-order variable ranges over at run
//! time (§4.3), so a plan with a variable relation position (`?.dbO.Y(…)`)
//! enumerates whatever relations exist when it runs — one that a view
//! creates or garbage-collects later changes nothing about the plan. A
//! compiled plan therefore never needs invalidating: a rule set compiles
//! its bodies once ([`crate::rules::RuleEngine`]), and [`PlanCache`]
//! memoizes request bodies across *calls*, keyed by the canonical
//! (process-stable) expression hash from `idl_lang::hash` plus the
//! plan-shaping bits. Hash collisions are benign — each bucket stores the
//! source items and an entry only hits on full structural equality.

use crate::error::{EvalError, EvalResult};
use crate::physical::{CompiledItems, PhysAttr, PhysField, PhysOp, ProbeKind, ProbePlan};
use crate::plan;
use crate::query::EvalOptions;
use idl_lang::{canonical_hash_items, AttrTerm, Expr, Field, RelOp, Term};
use std::collections::HashMap;
use std::sync::Arc;

/// Compiles a request body or rule body: one physical plan per conjunct.
pub fn compile_items(items: &[Expr], opts: EvalOptions) -> EvalResult<CompiledItems> {
    let mut plans = Vec::with_capacity(items.len());
    for item in items {
        plans.push(compile_expr(item, opts)?);
    }
    Ok(CompiledItems::new(plans))
}

/// Compiles one expression: plans the conjunct order (when
/// [`EvalOptions::reorder`] is on, exactly as the interpreter would per
/// call), then lowers to the physical IR. Update forms are rejected —
/// only queries compile.
pub fn compile_expr(expr: &Expr, opts: EvalOptions) -> EvalResult<PhysOp> {
    let planned;
    let expr = if opts.reorder {
        planned = plan::plan_query_expr(expr);
        &planned
    } else {
        expr
    };
    lower(expr, opts.use_indexes)
}

fn lower(expr: &Expr, use_indexes: bool) -> EvalResult<PhysOp> {
    match expr {
        Expr::Epsilon => Ok(PhysOp::Epsilon),
        Expr::Not(inner) => Ok(PhysOp::Not(Box::new(lower(inner, use_indexes)?))),
        Expr::Atomic(op, term) => match (op, term) {
            (RelOp::Eq, Term::Var(v)) => Ok(PhysOp::Bind(v.clone())),
            _ => Ok(PhysOp::Filter(*op, term.clone())),
        },
        Expr::Constraint(a, op, b) => Ok(PhysOp::Constraint(a.clone(), *op, b.clone())),
        Expr::Tuple(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for f in fields {
                if f.sign.is_some() {
                    return Err(EvalError::Malformed("update field in query position".into()));
                }
                let attr = match &f.attr {
                    AttrTerm::Const(n) => PhysAttr::Const(n.clone()),
                    AttrTerm::Var(v) => PhysAttr::Var(v.clone()),
                };
                out.push(PhysField { attr, inner: lower(&f.expr, use_indexes)? });
            }
            Ok(PhysOp::Tuple(out))
        }
        Expr::Set(inner) => {
            let probes = if use_indexes { probe_candidates(inner) } else { Vec::new() };
            Ok(PhysOp::Scan { inner: Box::new(lower(inner, use_indexes)?), probes })
        }
        Expr::AtomicUpdate(..) | Expr::SetUpdate(..) => {
            Err(EvalError::Malformed("update expression in query position".into()))
        }
    }
}

/// The ordered index-probe candidates for a relation scan over `inner`:
/// every equality field first (in field order), then every range field —
/// the priority order the interpreter's `probe_spec` searches in. Which
/// candidate actually fires is a run-time question (its key term must be
/// ground), so all of them are kept.
fn probe_candidates(inner: &Expr) -> Vec<ProbePlan> {
    let Expr::Tuple(fields) = inner else { return Vec::new() };
    let mut out = Vec::new();
    for f in fields {
        if let Some((attr, term)) = eligible(f, |op| op == RelOp::Eq) {
            out.push(ProbePlan { attr, kind: ProbeKind::Eq, term });
        }
    }
    for f in fields {
        let range = |op: RelOp| matches!(op, RelOp::Lt | RelOp::Le | RelOp::Gt | RelOp::Ge);
        if let Some((attr, term)) = eligible(f, range) {
            let Expr::Atomic(op, _) = &f.expr else { unreachable!("eligible checked Atomic") };
            out.push(ProbePlan { attr, kind: ProbeKind::Range(*op), term });
        }
    }
    out
}

fn eligible(f: &Field, op_ok: impl Fn(RelOp) -> bool) -> Option<(idl_object::Name, Term)> {
    if f.sign.is_some() {
        return None;
    }
    let AttrTerm::Const(attr) = &f.attr else { return None };
    let Expr::Atomic(op, term) = &f.expr else { return None };
    if !op_ok(*op) {
        return None;
    }
    Some((attr.clone(), term.clone()))
}

/// One cached plan: the source expressions (checked for structural
/// equality on lookup) and the compiled plan.
#[derive(Debug)]
struct CacheEntry {
    src: Vec<Expr>,
    plan: Arc<CompiledItems>,
}

/// One collision bucket.
type Bucket = Vec<CacheEntry>;

/// A memoized plan cache: canonical expression hash (+ plan-shaping option
/// bits) → compiled plan. Shared plans are `Arc`-held, so hits are a
/// pointer clone; the hit/miss counters feed the server's stats and the
/// bench reports.
#[derive(Debug, Default)]
pub struct PlanCache {
    buckets: HashMap<(u64, u8), Bucket>,
    hits: u64,
    misses: u64,
}

/// The option bits that change compiled-plan shape. `threads`,
/// `max_results` and the rest are execution knobs, not plan knobs, so they
/// key neither the cache nor a rule set's plans.
pub(crate) fn plan_flags(opts: EvalOptions) -> u8 {
    (opts.reorder as u8) | ((opts.use_indexes as u8) << 1)
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Returns the memoized plan for `items`, compiling and inserting on
    /// first sight. A hit requires structural equality with the cached
    /// source, never just hash equality.
    pub fn get_or_compile(
        &mut self,
        items: &[Expr],
        opts: EvalOptions,
    ) -> EvalResult<Arc<CompiledItems>> {
        let key = (canonical_hash_items(items), plan_flags(opts));
        let bucket = self.buckets.entry(key).or_default();
        if let Some(e) = bucket.iter().find(|e| e.src.as_slice() == items) {
            self.hits += 1;
            return Ok(Arc::clone(&e.plan));
        }
        let plan = Arc::new(compile_items(items, opts)?);
        bucket.push(CacheEntry { src: items.to_vec(), plan: Arc::clone(&plan) });
        self.misses += 1;
        Ok(plan)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (= compiles through this cache) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct cached plans.
    pub fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Evaluator;
    use crate::subst::Subst;
    use idl_lang::{parse_statement, Statement};
    use idl_object::universe::stock_universe;
    use idl_storage::Store;

    fn store() -> Store {
        let quotes = vec![
            ("3/3/85", "hp", 50.0),
            ("3/3/85", "ibm", 160.0),
            ("3/4/85", "hp", 62.0),
            ("3/4/85", "ibm", 155.0),
        ];
        Store::from_universe(stock_universe(quotes)).unwrap()
    }

    fn items(src: &str) -> Vec<Expr> {
        let Statement::Request(req) = parse_statement(src).unwrap() else { panic!("{src}") };
        req.items
    }

    #[test]
    fn compiled_equals_tree_walk() {
        let s = store();
        for q in [
            "?.euter.r(.stkCode=hp, .clsPrice>60)",
            "?.chwab.r(.S>150)",
            "?.ource.S(.clsPrice=P)",
            "?.X.Y(.stkCode)",
            "?.euter.r(.stkCode=hp,.clsPrice=P,.date=D), .euter.r¬(.stkCode=hp,.clsPrice>P)",
        ] {
            let body = items(q);
            let interp = Evaluator::new(&s, EvalOptions::default().with_compile(false));
            let compiled = Evaluator::new(&s, EvalOptions::default().with_compile(true));
            let plan = compile_items(&body, compiled.options()).unwrap();
            let a = interp.eval_items(&body, vec![Subst::new()]).unwrap();
            let b = compiled.eval_compiled(&plan, vec![Subst::new()]).unwrap();
            assert_eq!(a, b, "compiled/interpreted mismatch on {q}");
        }
    }

    #[test]
    fn relation_scans_carry_probe_candidates() {
        let body = items("?.euter.r(.stkCode=hp, .clsPrice>60)");
        let plan = compile_items(&body, EvalOptions::default()).unwrap();
        let rendered = plan.explain();
        assert!(rendered.contains("probe eq(.stkCode = hp)"), "{rendered}");
        assert!(rendered.contains("range(.clsPrice > 60)"), "{rendered}");
    }

    #[test]
    fn cache_hits_only_on_structural_equality() {
        let mut cache = PlanCache::new();
        let opts = EvalOptions::default();
        let a = items("?.euter.r(.stkCode=hp)");
        let b = items("?.euter.r(.stkCode=ibm)");
        let p1 = cache.get_or_compile(&a, opts).unwrap();
        let p2 = cache.get_or_compile(&a, opts).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "second lookup must reuse the plan");
        let _ = cache.get_or_compile(&b, opts).unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_distinguishes_plan_shaping_options() {
        let mut cache = PlanCache::new();
        let a = items("?.euter.r(.clsPrice>60, .stkCode=hp)");
        let _ = cache.get_or_compile(&a, EvalOptions::default()).unwrap();
        let _ = cache
            .get_or_compile(&a, EvalOptions { reorder: false, ..EvalOptions::default() })
            .unwrap();
        assert_eq!(cache.misses(), 2, "reorder changes plan shape, so it must miss");
    }

    #[test]
    fn update_expressions_do_not_compile() {
        let Statement::Request(req) =
            parse_statement("?.euter.r+(.stkCode=hp,.date=1/1/99,.clsPrice=1)").unwrap()
        else {
            panic!()
        };
        let err = compile_items(&req.items, EvalOptions::default()).unwrap_err();
        assert!(matches!(err, EvalError::Malformed(_)));
    }
}
