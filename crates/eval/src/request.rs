//! Request execution: queries, update requests and program calls, in one
//! item loop.
//!
//! A request `?e₁, …, eₖ` is evaluated left to right under shared bindings
//! (§5.1): query items filter and extend the current substitutions, update
//! items apply once per current substitution, and items that name a
//! registered update program dispatch to it (§7.1). A program clause body
//! is a request body: the call binds its parameters
//! ([`ProgramRegistry::bind_call`]) and each clause body runs through the
//! same loop, so its query items compile through the request's plan cache
//! and its update items pass the same derived-state guard.
//!
//! The whole request is atomic: it runs in the store's one transaction,
//! which rolls back on any error, including a declared-schema violation
//! found before the commit. A failed binding-signature check, kind
//! mismatch or refused write anywhere in the request, program bodies
//! included, leaves the universe untouched.
//!
//! Updates targeting *derived* databases are rejected unless a view-update
//! program is registered for that exact path and sign (§7.2); base updates
//! go straight to the storage layer.

use crate::compile::PlanCache;
use crate::error::{EvalError, EvalResult};
use crate::program::{update_scope, ProgramRegistry};
use crate::query::{EvalOptions, Evaluator};
use crate::rules::DerivedCatalog;
use crate::subst::{AnswerSet, Subst};
use crate::update::{apply_update, UpdateStats};
use idl_lang::{Expr, Request};
use idl_storage::{SchemaSet, Store};
use std::collections::BTreeSet;

/// What a request produced.
#[derive(Clone, Debug, Default)]
pub struct RequestOutcome {
    /// The answer substitutions (projected onto named variables). For a
    /// variable-free query this is the boolean reading via
    /// [`AnswerSet::is_true`].
    pub answers: AnswerSet,
    /// Mutation counters accumulated by update items and program calls.
    pub stats: UpdateStats,
}

impl RequestOutcome {
    /// Whether the request succeeded with at least one satisfying binding
    /// (queries) — updates count as satisfying too.
    pub fn is_true(&self) -> bool {
        self.answers.is_true()
    }
}

/// Runs a request atomically against the store, in one transaction.
///
/// `derived` is the relation-granular catalog of view-materialised state:
/// direct updates touching it, in the request or in a program body, are
/// rejected ([`EvalError::UpdateOnDerived`]) unless the item matches a
/// registered (view-)update program. When the request wrote, `schemas`
/// is checked before the commit, and a violation rolls the request back
/// ([`EvalError::Schema`]). Query items compile through `cache` when one
/// is given and [`EvalOptions::compile`] is on, so a repeated request or
/// program body re-uses its plans instead of re-compiling.
pub fn run_request(
    store: &mut Store,
    programs: &ProgramRegistry,
    derived: &DerivedCatalog,
    schemas: &SchemaSet,
    request: &Request,
    opts: EvalOptions,
    cache: Option<&mut PlanCache>,
) -> EvalResult<RequestOutcome> {
    store.begin();
    let mut runner =
        Runner { store, programs, derived, opts, cache, stats: UpdateStats::default() };
    let outcome = runner.run_items(&request.items, Subst::new(), 0).and_then(|substs| {
        let Runner { store, stats, .. } = &runner;
        if stats.total() > 0 {
            let violations = schemas.check(store);
            if !violations.is_empty() {
                return Err(EvalError::Schema(violations));
            }
        }
        // Project answers onto named variables.
        let named: BTreeSet<_> = request.vars().into_iter().filter(|v| !v.is_gensym()).collect();
        let answers = substs.into_iter().map(|s| s.project(&named)).collect();
        Ok(RequestOutcome { answers, stats: *stats })
    });
    match outcome {
        Ok(_) => runner.store.commit(),
        Err(_) => runner.store.rollback(),
    }
    .expect("the request's transaction is open");
    outcome
}

/// The item loop's state: the store the request writes, what guards and
/// compiles its items, and the mutation counters they accumulate.
struct Runner<'a> {
    store: &'a mut Store,
    programs: &'a ProgramRegistry,
    derived: &'a DerivedCatalog,
    opts: EvalOptions,
    cache: Option<&'a mut PlanCache>,
    stats: UpdateStats,
}

impl Runner<'_> {
    /// Runs `items` top-down from `seed` and returns the substitutions that
    /// survive them. A program call runs every clause body through this
    /// same loop, seeded with the clause's bound parameters; no bindings
    /// escape a call. `depth` is the call nesting, bounded by
    /// [`ProgramRegistry::bind_call`].
    fn run_items(&mut self, items: &[Expr], seed: Subst, depth: usize) -> EvalResult<Vec<Subst>> {
        let programs = self.programs;
        let mut substs = vec![seed];
        for item in items {
            // Program call? (takes precedence over the relation-scan reading)
            if let Some((key, args)) = programs.match_call(item) {
                for s in &substs {
                    for (body, seed) in programs.bind_call(&key, args, s, depth)? {
                        self.run_items(body, seed, depth + 1)?;
                    }
                }
                continue;
            }
            if item.is_query() {
                let ev = Evaluator::new(self.store, self.opts);
                substs = match self.cache.as_deref_mut() {
                    Some(cache) if self.opts.compile => {
                        let plan = cache.get_or_compile(std::slice::from_ref(item), self.opts)?;
                        ev.eval_compiled(&plan, substs)?
                    }
                    _ => ev.eval_items(std::slice::from_ref(item), substs)?,
                };
                if substs.is_empty() {
                    break;
                }
                continue;
            }
            // Plain update item: guard derived state (relation-granular).
            let scope = update_scope(item);
            if self.derived.guards_update(&scope) {
                return Err(EvalError::UpdateOnDerived(format!("{scope:?}")));
            }
            for s in &substs {
                let st = self.store.mutate(scope.clone(), |u| apply_update(u, item, s))?;
                self.stats.merge(st);
            }
        }
        Ok(substs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::PredPat;
    use idl_lang::{parse_program, parse_statement, Statement};
    use idl_object::universe::stock_universe;
    use idl_object::{Name, Value};

    fn base_store() -> Store {
        Store::from_universe(stock_universe(vec![
            ("3/3/85", "hp", 50.0),
            ("3/3/85", "ibm", 160.0),
            ("3/4/85", "hp", 62.0),
        ]))
        .unwrap()
    }

    /// A catalog marking one whole database as derived.
    fn whole_db(db: &str) -> DerivedCatalog {
        DerivedCatalog::from_patterns([&PredPat { db: Some(Name::new(db)), rel: None }])
    }

    fn run(
        store: &mut Store,
        registry: &ProgramRegistry,
        derived: &DerivedCatalog,
        src: &str,
    ) -> EvalResult<RequestOutcome> {
        let Statement::Request(req) = parse_statement(src).unwrap() else { panic!() };
        run_request(store, registry, derived, &SchemaSet::new(), &req, EvalOptions::default(), None)
    }

    #[test]
    fn mixed_query_then_update_per_binding() {
        let mut store = base_store();
        let reg = ProgramRegistry::new();
        let derived = DerivedCatalog::empty();
        // delete every hp row, driven by bindings
        let out = run(
            &mut store,
            &reg,
            &derived,
            "?.euter.r(.stkCode=hp,.date=D,.clsPrice=C), .euter.r-(.stkCode=hp,.date=D,.clsPrice=C)",
        )
        .unwrap();
        assert_eq!(out.stats.deleted, 2);
        assert_eq!(store.relation("euter", "r").unwrap().len(), 1);
    }

    #[test]
    fn atomicity_on_error() {
        let mut store = base_store();
        let reg = ProgramRegistry::new();
        let derived = DerivedCatalog::empty();
        // first item succeeds, second errors (insert payload unbound)
        let err = run(
            &mut store,
            &reg,
            &derived,
            "?.euter.r+(.stkCode=sun,.date=3/5/85,.clsPrice=1), .euter.r+(.stkCode=U)",
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::Uninstantiated(_)));
        assert_eq!(
            store.relation("euter", "r").unwrap().len(),
            3,
            "first insert rolled back with the failure"
        );
    }

    #[test]
    fn derived_guard() {
        let mut store = base_store();
        let reg = ProgramRegistry::new();
        let derived = whole_db("dbE");
        let err = run(&mut store, &reg, &derived, "?.dbE.r+(.stkCode=hp)").unwrap_err();
        assert!(matches!(err, EvalError::UpdateOnDerived(_)));
    }

    #[test]
    fn view_update_program_dispatch() {
        let mut store = base_store();
        let mut reg = ProgramRegistry::new();
        for stmt in parse_program(
            ".dbE.r+(.date=D,.stkCode=S,.clsPrice=P) -> .euter.r+(.date=D,.stkCode=S,.clsPrice=P) ;",
        )
        .unwrap()
        {
            let Statement::Program(p) = stmt else { panic!() };
            reg.register(&p).unwrap();
        }
        let derived = whole_db("dbE");
        let out =
            run(&mut store, &reg, &derived, "?.dbE.r+(.date=3/9/85,.stkCode=sun,.clsPrice=5)")
                .unwrap();
        assert_eq!(out.stats.inserted, 1);
        assert_eq!(store.relation("euter", "r").unwrap().len(), 4, "routed to base table");
    }

    #[test]
    fn pure_query_answers() {
        let mut store = base_store();
        let reg = ProgramRegistry::new();
        let derived = DerivedCatalog::empty();
        let out = run(&mut store, &reg, &derived, "?.euter.r(.stkCode=S, .clsPrice>100)").unwrap();
        assert_eq!(out.answers.column("S"), vec![Value::str("ibm")]);
    }

    #[test]
    fn update_with_no_matching_bindings_is_noop() {
        let mut store = base_store();
        let reg = ProgramRegistry::new();
        let derived = DerivedCatalog::empty();
        let out =
            run(&mut store, &reg, &derived, "?.euter.r(.stkCode=nope,.date=D), .euter.r-(.date=D)")
                .unwrap();
        assert_eq!(out.stats.total(), 0);
        assert!(!out.is_true());
        assert_eq!(store.relation("euter", "r").unwrap().len(), 3);
    }
}
