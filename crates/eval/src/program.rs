//! Update programs (§7).
//!
//! An update program is a *named, parameterized collection of update and
//! query expressions* with top-down parameter passing. The schema
//! administrator writes programs like `delStk` / `rmStk` / `insStk` to
//! translate a single logical update into the (schematically different)
//! physical updates each database needs — and programs named after view
//! paths (`.dbE.r+(…) -> …`, §7.2) give users *view updatability*.
//!
//! Implemented semantics:
//!
//! * **all clauses run**: a call executes every clause registered under the
//!   program's name, in definition order (delStk has one clause per
//!   database);
//! * **partial bindings**: parameters not supplied stay unbound and act as
//!   wildcards in make-false positions ("if the stock code is not passed …
//!   the closing price of all stocks … is deleted");
//! * **binding signatures**: a parameter that a clause *needs* ground (it
//!   feeds a make-true payload and no earlier body query binds it) must be
//!   supplied — calls violating this are rejected before any mutation, the
//!   paper's `insStk` "compile time analysis";
//! * **no recursion** (§7.1): the static call graph must be acyclic;
//!   programs may call other programs non-recursively (reuse);
//! * programs return **success or failure only** — no bindings escape.
//!
//! The registry stores and binds programs; it does not execute them. A
//! clause body is a request body, and [`crate::request::run_request`] runs
//! it through the request's own item loop and transaction: body queries
//! compile through the request's plan cache, and a body update that
//! touches derived state is refused with [`EvalError::UpdateOnDerived`]
//! exactly as a direct one is (§7.2 lets a view change only through the
//! base writes a program makes).

use crate::arith::eval_term;
use crate::error::{EvalError, EvalResult};
use crate::rules::{read_patterns, PredPat};
use crate::subst::Subst;
use idl_lang::{AttrTerm, Expr, Field, ProgramClause, RelOp, Sign, Term, Var};
use idl_object::{Name, Value};
use idl_storage::ChangeScope;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identity of an update program: its dotted constant path and the optional
/// update sign (`.dbX.p+` vs `.dbX.p-` vs plain `.dbU.delStk`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ProgramKey {
    /// Constant attribute path, e.g. `["dbU", "delStk"]`.
    pub path: Vec<Name>,
    /// `Some(Plus)` / `Some(Minus)` for view-update programs.
    pub sign: Option<Sign>,
}

impl fmt::Display for ProgramKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.path {
            write!(f, ".{p}")?;
        }
        if let Some(s) = self.sign {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

// Sign lacks Ord upstream; provide ordering through a local key.
impl ProgramKey {
    fn sign_rank(&self) -> u8 {
        match self.sign {
            None => 0,
            Some(Sign::Plus) => 1,
            Some(Sign::Minus) => 2,
        }
    }
}

/// One registered clause with its analysed signature.
#[derive(Clone, Debug)]
struct CompiledClause {
    /// Parameter name → head variable.
    params: BTreeMap<Name, Var>,
    /// Parameters that must be bound for this clause to execute.
    required: BTreeSet<Name>,
    body: Vec<Expr>,
}

/// Registry of update programs, keyed by [`ProgramKey`].
#[derive(Clone, Default)]
pub struct ProgramRegistry {
    programs: BTreeMap<(Vec<Name>, u8), (ProgramKey, Vec<CompiledClause>)>,
}

impl ProgramRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered program names.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether no program is registered.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Registered program keys.
    pub fn keys(&self) -> impl Iterator<Item = &ProgramKey> {
        self.programs.values().map(|(k, _)| k)
    }

    /// Registers one clause (clauses under the same head accumulate in
    /// definition order). Re-checks the whole registry for recursion.
    pub fn register(&mut self, clause: &ProgramClause) -> EvalResult<()> {
        let (key, params) = parse_head(&clause.head)?;
        let required = required_params(&params, &clause.body);
        let compiled = CompiledClause { params, required, body: clause.body.clone() };
        self.programs
            .entry((key.path.clone(), key.sign_rank()))
            .or_insert_with(|| (key.clone(), Vec::new()))
            .1
            .push(compiled);
        if let Err(e) = self.check_acyclic() {
            // Roll the registration back so the registry stays usable.
            let rank = key.sign_rank();
            let entry = self.programs.get_mut(&(key.path.clone(), rank)).unwrap();
            entry.1.pop();
            if entry.1.is_empty() {
                self.programs.remove(&(key.path, rank));
            }
            return Err(e);
        }
        Ok(())
    }

    /// If the expression is a call to a registered program, returns the
    /// key and the argument fields.
    pub fn match_call<'e>(&self, expr: &'e Expr) -> Option<(ProgramKey, &'e [Field])> {
        let (path, sign, args) = call_shape(expr)?;
        let key = ProgramKey { path, sign };
        let rank = key.sign_rank();
        self.programs.get(&(key.path.clone(), rank)).map(|(k, _)| (k.clone(), args))
    }

    /// The static read set of `items` run as a request: the `(db, rel)`
    /// pattern of every atom, with each call to a registered program
    /// replaced by the read sets of its clause bodies, transitively (the
    /// call graph is acyclic). `None` when an item has a shape the
    /// analysis does not read, such as an atomic expression over the whole
    /// universe: such a request may read anything.
    pub fn read_set(&self, items: &[Expr]) -> Option<Vec<PredPat>> {
        let mut reads = Vec::new();
        self.collect_reads(items, &mut reads)?;
        Some(reads)
    }

    fn collect_reads(&self, items: &[Expr], reads: &mut Vec<PredPat>) -> Option<()> {
        for item in items {
            match self.match_call(item) {
                Some((key, _)) => {
                    let (_, clauses) = &self.programs[&(key.path.clone(), key.sign_rank())];
                    for clause in clauses {
                        self.collect_reads(&clause.body, reads)?;
                    }
                }
                None => item_reads(item, reads)?,
            }
        }
        Some(())
    }

    /// Binds a program call (§7.1): evaluates the supplied arguments under
    /// the caller's bindings, checks argument names and every clause's
    /// binding signature, and returns each clause's body with the
    /// substitution its parameters seed it with, in definition order.
    /// Nothing runs here: the request runner executes the bodies, so every
    /// check fails before any clause writes. `depth` is the caller's call
    /// nesting; past 64 the call is refused as recursive.
    pub fn bind_call(
        &self,
        key: &ProgramKey,
        args: &[Field],
        caller_subst: &Subst,
        depth: usize,
    ) -> EvalResult<Vec<(&[Expr], Subst)>> {
        if depth > 64 {
            return Err(EvalError::RecursiveProgram(key.to_string()));
        }
        let (_, clauses) = self
            .programs
            .get(&(key.path.clone(), key.sign_rank()))
            .ok_or_else(|| EvalError::NoSuchProgram(key.to_string()))?;

        // Evaluate the supplied arguments once, under the caller's bindings.
        let mut supplied: BTreeMap<Name, Value> = BTreeMap::new();
        for arg in args {
            let AttrTerm::Const(pname) = &arg.attr else {
                return Err(EvalError::Malformed(format!(
                    "program call {key}: argument names must be constants"
                )));
            };
            let Expr::Atomic(RelOp::Eq, term) = &arg.expr else {
                return Err(EvalError::Malformed(format!(
                    "program call {key}: arguments must be `.name = value`"
                )));
            };
            // An unbound caller variable means "parameter not supplied".
            match term {
                Term::Var(v) if !caller_subst.is_bound(v) => continue,
                _ => {
                    let val = eval_term(term, caller_subst)?;
                    supplied.insert(pname.clone(), val);
                }
            }
        }

        // Validate argument names and binding signatures across clauses
        // BEFORE any clause mutates (atomicity of the signature check).
        for pname in supplied.keys() {
            if !clauses.iter().any(|c| c.params.contains_key(pname)) {
                return Err(EvalError::UnknownParameter {
                    program: key.to_string(),
                    param: pname.clone(),
                });
            }
        }
        for clause in clauses {
            for req in &clause.required {
                if !supplied.contains_key(req) {
                    return Err(EvalError::InsufficientBindings {
                        program: key.to_string(),
                        missing: req.clone(),
                    });
                }
            }
        }

        // Top-down parameter passing.
        let seeded = clauses.iter().map(|clause| {
            let mut subst = Subst::new();
            for (pname, var) in &clause.params {
                if let Some(val) = supplied.get(pname) {
                    subst.insert(var.clone(), val.clone());
                }
            }
            (clause.body.as_slice(), subst)
        });
        Ok(seeded.collect())
    }

    /// Static validation of a call site without executing anything — the
    /// paper's §7.1 "compile time analysis … to check the validity of the
    /// 'call'". An argument whose term is a variable counts as *not
    /// supplied* (that is its runtime meaning). Returns human-readable
    /// problems; empty = the call shape is valid.
    pub fn static_call_issues(&self, key: &ProgramKey, args: &[Field]) -> Vec<String> {
        let Some((_, clauses)) = self.programs.get(&(key.path.clone(), key.sign_rank())) else {
            return vec![format!("no update program named {key}")];
        };
        let mut issues = Vec::new();
        let mut supplied: BTreeSet<Name> = BTreeSet::new();
        for arg in args {
            let AttrTerm::Const(pname) = &arg.attr else {
                issues.push(format!("{key}: argument names must be constants"));
                continue;
            };
            match &arg.expr {
                Expr::Atomic(RelOp::Eq, Term::Var(_)) => {} // unbound: not supplied
                Expr::Atomic(RelOp::Eq, _) => {
                    supplied.insert(pname.clone());
                }
                _ => issues.push(format!("{key}: argument .{pname} must be `.{pname} = value`")),
            }
            if !clauses.iter().any(|c| c.params.contains_key(pname)) {
                issues.push(format!("{key} has no parameter .{pname}"));
            }
        }
        for clause in clauses {
            for req in &clause.required {
                if !supplied.contains(req) {
                    issues.push(format!("{key} requires parameter .{req} to be bound"));
                }
            }
        }
        issues.sort();
        issues.dedup();
        issues
    }

    /// Static non-recursion check over the call graph (§7.1).
    fn check_acyclic(&self) -> EvalResult<()> {
        // Build edges: program → programs its bodies call.
        let keys: Vec<(Vec<Name>, u8)> = self.programs.keys().cloned().collect();
        let index_of = |k: &(Vec<Name>, u8)| keys.iter().position(|x| x == k).unwrap();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); keys.len()];
        for (k, (_, clauses)) in &self.programs {
            let from = index_of(k);
            for clause in clauses {
                for item in &clause.body {
                    if let Some((callee, _)) = self.match_call(item) {
                        let to = index_of(&(callee.path.clone(), callee.sign_rank()));
                        edges[from].push(to);
                    }
                }
            }
        }
        // DFS cycle detection.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        fn dfs(v: usize, edges: &[Vec<usize>], marks: &mut [Mark]) -> Option<usize> {
            marks[v] = Mark::Grey;
            for &w in &edges[v] {
                match marks[w] {
                    Mark::Grey => return Some(w),
                    Mark::White => {
                        if let Some(c) = dfs(w, edges, marks) {
                            return Some(c);
                        }
                    }
                    Mark::Black => {}
                }
            }
            marks[v] = Mark::Black;
            None
        }
        let mut marks = vec![Mark::White; keys.len()];
        for v in 0..keys.len() {
            if marks[v] == Mark::White {
                if let Some(c) = dfs(v, &edges, &mut marks) {
                    let (key, _) = &self.programs[&keys[c]];
                    return Err(EvalError::RecursiveProgram(key.to_string()));
                }
            }
        }
        Ok(())
    }
}

/// Adds the `(db, rel)` patterns one request item reads to `reads`;
/// `None` when the item compares or updates the universe as a whole.
fn item_reads(item: &Expr, reads: &mut Vec<PredPat>) -> Option<()> {
    match item {
        Expr::Tuple(_) => reads.extend(read_patterns(std::slice::from_ref(item))),
        Expr::Not(inner) | Expr::Set(inner) => item_reads(inner, reads)?,
        Expr::Epsilon | Expr::Constraint(..) => {}
        Expr::Atomic(..) | Expr::AtomicUpdate(..) | Expr::SetUpdate(..) => return None,
    }
    Some(())
}

/// The change scope an update item can touch, from its constant prefix.
pub fn update_scope(item: &Expr) -> ChangeScope {
    let mut path = Vec::new();
    let mut cur = item;
    loop {
        match cur {
            Expr::Tuple(fields) if fields.len() == 1 => {
                let f = &fields[0];
                match (&f.attr, f.sign) {
                    (AttrTerm::Const(n), _) => {
                        path.push(n.clone());
                        if path.len() == 2 {
                            break;
                        }
                        cur = &f.expr;
                    }
                    _ => break,
                }
            }
            _ => break,
        }
    }
    match path.len() {
        2 => ChangeScope::Relation { db: path[0].clone(), rel: path[1].clone() },
        1 => ChangeScope::Database { db: path[0].clone() },
        _ => ChangeScope::Universe,
    }
}

/// Decomposes a head/call expression into (constant path, sign, argument
/// fields). Shape: single-field tuple chain ending in `(…)`, `+(…)`,
/// or `-(…)`.
fn call_shape(expr: &Expr) -> Option<(Vec<Name>, Option<Sign>, &[Field])> {
    let mut path = Vec::new();
    let mut cur = expr;
    loop {
        match cur {
            Expr::Tuple(fields) if fields.len() == 1 && fields[0].sign.is_none() => {
                let f = &fields[0];
                let AttrTerm::Const(n) = &f.attr else { return None };
                path.push(n.clone());
                cur = &f.expr;
            }
            Expr::Set(inner) => {
                let Expr::Tuple(args) = inner.as_ref() else {
                    return if matches!(inner.as_ref(), Expr::Epsilon) {
                        Some((path, None, &[]))
                    } else {
                        None
                    };
                };
                return Some((path, None, args.as_slice()));
            }
            Expr::SetUpdate(sign, inner) => {
                let Expr::Tuple(args) = inner.as_ref() else {
                    return if matches!(inner.as_ref(), Expr::Epsilon) {
                        Some((path, Some(*sign), &[]))
                    } else {
                        None
                    };
                };
                return Some((path, Some(*sign), args.as_slice()));
            }
            _ => return None,
        }
    }
}

/// Extracts the program key and parameter map from a clause head.
fn parse_head(head: &Expr) -> EvalResult<(ProgramKey, BTreeMap<Name, Var>)> {
    let (path, sign, args) = call_shape(head).ok_or_else(|| {
        EvalError::Malformed(
            "program head must be a constant path ending in a parameter tuple".into(),
        )
    })?;
    if path.is_empty() {
        return Err(EvalError::Malformed("program head has an empty path".into()));
    }
    let mut params = BTreeMap::new();
    for f in args {
        let AttrTerm::Const(pname) = &f.attr else {
            return Err(EvalError::Malformed("program parameters must have constant names".into()));
        };
        let Expr::Atomic(RelOp::Eq, Term::Var(v)) = &f.expr else {
            return Err(EvalError::Malformed(format!(
                "program parameter .{pname} must be `.{pname} = Var`"
            )));
        };
        params.insert(pname.clone(), v.clone());
    }
    Ok((ProgramKey { path, sign }, params))
}

/// Parameters a clause requires bound: head variables that feed a make-true
/// payload and are not produced by an earlier query item in the body.
fn required_params(params: &BTreeMap<Name, Var>, body: &[Expr]) -> BTreeSet<Name> {
    let mut produced: BTreeSet<Var> = BTreeSet::new();
    let mut required_vars: BTreeSet<Var> = BTreeSet::new();
    for item in body {
        if item.is_query() {
            // everything a query item mentions it can in principle bind
            item.collect_vars(&mut produced);
        } else {
            collect_plus_vars(item, &mut required_vars);
        }
    }
    params
        .iter()
        .filter(|(_, v)| required_vars.contains(v) && !produced.contains(v))
        .map(|(n, _)| n.clone())
        .collect()
}

/// Variables occurring inside make-true payloads (which must be ground).
fn collect_plus_vars(e: &Expr, out: &mut BTreeSet<Var>) {
    match e {
        Expr::SetUpdate(Sign::Plus, inner) => inner.collect_vars(out),
        Expr::AtomicUpdate(Sign::Plus, t) => t.collect_vars(out),
        Expr::SetUpdate(Sign::Minus, _) | Expr::AtomicUpdate(Sign::Minus, _) => {}
        Expr::Tuple(fields) => {
            for f in fields {
                match f.sign {
                    Some(Sign::Plus) => {
                        // the attribute name of a make-true field must be
                        // ground too
                        if let AttrTerm::Var(v) = &f.attr {
                            out.insert(v.clone());
                        }
                        f.expr.collect_vars(out);
                    }
                    Some(Sign::Minus) => {}
                    None => collect_plus_vars(&f.expr, out),
                }
            }
        }
        Expr::Set(inner) | Expr::Not(inner) => collect_plus_vars(inner, out),
        Expr::Epsilon | Expr::Atomic(..) | Expr::Constraint(..) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{EvalOptions, Evaluator};
    use crate::request::run_request;
    use crate::rules::DerivedCatalog;
    use crate::update::UpdateStats;
    use idl_lang::{parse_program, parse_statement, Statement};
    use idl_object::universe::stock_universe;
    use idl_storage::{SchemaSet, Store};

    fn base_store() -> Store {
        Store::from_universe(stock_universe(vec![
            ("3/3/85", "hp", 50.0),
            ("3/3/85", "ibm", 160.0),
            ("3/4/85", "hp", 62.0),
        ]))
        .unwrap()
    }

    /// Date atom from its surface literal.
    fn dval(s: &str) -> Value {
        Value::date(s.parse().unwrap())
    }

    fn registry(src: &str) -> ProgramRegistry {
        let mut reg = ProgramRegistry::new();
        for stmt in parse_program(src).unwrap() {
            match stmt {
                Statement::Program(p) => reg.register(&p).unwrap(),
                _ => panic!("expected only programs"),
            }
        }
        reg
    }

    const DEL_STK: &str = "
        .dbU.delStk(.stk=S, .date=D) -> .euter.r-(.stkCode=S,.date=D) ;
        .dbU.delStk(.stk=S, .date=D) -> .chwab.r(.S-=X, .date=D) ;
        .dbU.delStk(.stk=S, .date=D) -> .ource.S-(.date=D) ;
    ";

    const RM_STK: &str = "
        .dbU.rmStk(.stk=S) -> .euter.r-(.stkCode=S) ;
        .dbU.rmStk(.stk=S) -> .chwab.r(-.S) ;
        .dbU.rmStk(.stk=S) -> .ource-.S ;
    ";

    const INS_STK: &str = "
        .dbU.insStk(.stk=S, .date=D, .price=P) -> .euter.r+(.stkCode=S,.date=D,.clsPrice=P) ;
        .dbU.insStk(.stk=S, .date=D, .price=P) -> .chwab.r(.date=D, +.S=P) ;
        .dbU.insStk(.stk=S, .date=D, .price=P) -> .ource.S+(.date=D,.clsPrice=P) ;
    ";

    fn call(reg: &ProgramRegistry, store: &mut Store, src: &str) -> EvalResult<UpdateStats> {
        let Statement::Request(req) = parse_statement(src).unwrap() else { panic!() };
        assert!(reg.match_call(&req.items[0]).is_some(), "call should match");
        let (derived, schemas) = (DerivedCatalog::empty(), SchemaSet::new());
        run_request(store, reg, &derived, &schemas, &req, EvalOptions::default(), None)
            .map(|outcome| outcome.stats)
    }

    #[test]
    fn delstk_full_bindings() {
        let mut store = base_store();
        let reg = registry(DEL_STK);
        let stats = call(&reg, &mut store, "?.dbU.delStk(.stk=hp, .date=3/3/85)").unwrap();
        assert!(stats.total() >= 3, "one mutation per database: {stats:?}");
        // euter: tuple gone
        assert_eq!(store.relation("euter", "r").unwrap().len(), 2);
        // chwab: hp attribute nulled on that date, attribute still present
        let r = store.relation("chwab", "r").unwrap();
        let day = r.iter().find(|t| t.attr("date") == Some(&dval("3/3/85"))).unwrap();
        assert!(day.attr("hp").unwrap().is_null());
        // ource: tuple gone from hp relation
        assert_eq!(store.relation("ource", "hp").unwrap().len(), 1);
    }

    #[test]
    fn delstk_partial_bindings_delete_wider() {
        // no date → all dates for hp
        let mut store = base_store();
        let reg = registry(DEL_STK);
        call(&reg, &mut store, "?.dbU.delStk(.stk=hp)").unwrap();
        assert_eq!(store.relation("euter", "r").unwrap().len(), 1, "only ibm remains");
        assert!(store.relation("ource", "hp").unwrap().is_empty());
        // structure preserved: relations/attributes still exist
        assert!(store.relation_names("ource").unwrap().iter().any(|n| n == "hp"));
    }

    #[test]
    fn delstk_no_bindings_clears_values_not_structure() {
        let mut store = base_store();
        let reg = registry(DEL_STK);
        call(&reg, &mut store, "?.dbU.delStk(.stk=S, .date=D)").unwrap();
        assert!(store.relation("euter", "r").unwrap().is_empty());
        assert!(store.relation("ource", "hp").unwrap().is_empty());
        assert!(store.relation("ource", "ibm").unwrap().is_empty());
        // chwab keeps its attribute names (paper: "the structure of the
        // database is not changed")
        assert!(store.relation_names("chwab").unwrap().iter().any(|n| n == "r"));
    }

    #[test]
    fn rmstk_removes_metadata() {
        let mut store = base_store();
        let reg = registry(RM_STK);
        call(&reg, &mut store, "?.dbU.rmStk(.stk=hp)").unwrap();
        // euter: data rows gone
        assert_eq!(store.relation("euter", "r").unwrap().len(), 1);
        // chwab: hp attribute deleted from every tuple
        for t in store.relation("chwab", "r").unwrap().iter() {
            assert!(t.attr("hp").is_none());
        }
        // ource: whole relation dropped
        assert!(store.relation("ource", "hp").is_err());
        assert!(store.relation("ource", "ibm").is_ok());
    }

    #[test]
    fn insstk_requires_all_parameters() {
        let mut store = base_store();
        let reg = registry(INS_STK);
        // fully bound: succeeds in all three schemata (using an existing
        // date — the chwab clause updates that date's tuple)
        call(&reg, &mut store, "?.dbU.insStk(.stk=sun, .date=3/3/85, .price=30)").unwrap();
        assert_eq!(store.relation("euter", "r").unwrap().len(), 4);
        assert!(store.relation("ource", "sun").unwrap().len() == 1);
        let r = store.relation("chwab", "r").unwrap();
        assert!(r.iter().any(|t| t.attr("sun").is_some()));

        // missing price: rejected before any mutation
        let before = store.relation("euter", "r").unwrap().clone();
        let err = call(&reg, &mut store, "?.dbU.insStk(.stk=x, .date=3/6/85)").unwrap_err();
        assert!(matches!(err, EvalError::InsufficientBindings { .. }), "{err}");
        assert_eq!(&before, store.relation("euter", "r").unwrap());
    }

    #[test]
    fn unknown_parameter_rejected() {
        let mut store = base_store();
        let reg = registry(DEL_STK);
        let err = call(&reg, &mut store, "?.dbU.delStk(.bogus=1)").unwrap_err();
        assert!(matches!(err, EvalError::UnknownParameter { .. }));
    }

    #[test]
    fn unknown_program() {
        let reg = registry(DEL_STK);
        let Statement::Request(req) = parse_statement("?.dbU.nope(.a=1)").unwrap() else {
            panic!()
        };
        assert!(reg.match_call(&req.items[0]).is_none());
    }

    #[test]
    fn programs_compose_nonrecursively() {
        let mut reg = registry(DEL_STK);
        // wipeStk deletes everywhere then logs
        let src = "
            .dbU.wipeStk(.stk=S) -> .dbU.delStk(.stk=S) ;
            .dbU.wipeStk(.stk=S) -> .audit.log+(.removed=S) ;
        ";
        for stmt in parse_program(src).unwrap() {
            let Statement::Program(p) = stmt else { panic!() };
            reg.register(&p).unwrap();
        }
        let mut store = base_store();
        call(&reg, &mut store, "?.dbU.wipeStk(.stk=hp)").unwrap();
        assert_eq!(store.relation("euter", "r").unwrap().len(), 1);
        assert_eq!(store.relation("audit", "log").unwrap().len(), 1);
    }

    #[test]
    fn recursion_rejected() {
        let mut reg = ProgramRegistry::new();
        let stmts = parse_program(
            ".dbU.a(.x=X) -> .dbU.b(.x=X) ;
             .dbU.b(.x=X) -> .dbU.a(.x=X) ;",
        )
        .unwrap();
        let Statement::Program(p1) = &stmts[0] else { panic!() };
        let Statement::Program(p2) = &stmts[1] else { panic!() };
        reg.register(p1).unwrap();
        let err = reg.register(p2).unwrap_err();
        assert!(matches!(err, EvalError::RecursiveProgram(_)));
        // failed registration rolled back
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn self_recursion_rejected() {
        let mut reg = ProgramRegistry::new();
        let stmts = parse_program(".dbU.a(.x=X) -> .dbU.a(.x=X) ;").unwrap();
        let Statement::Program(p) = &stmts[0] else { panic!() };
        assert!(matches!(reg.register(p), Err(EvalError::RecursiveProgram(_))));
    }

    #[test]
    fn view_update_program_keys() {
        let mut reg = ProgramRegistry::new();
        let stmts = parse_program(
            ".dbE.r+(.date=D,.stkCode=S,.clsPrice=P) -> .dbU.insStk(.stk=S,.date=D,.price=P) ;",
        )
        .unwrap();
        // need insStk registered first for acyclicity bookkeeping? No —
        // calls to unregistered names simply aren't matched as calls.
        let Statement::Program(p) = &stmts[0] else { panic!() };
        reg.register(p).unwrap();
        let key = reg.keys().next().unwrap();
        assert_eq!(key.to_string(), ".dbE.r+");
        assert_eq!(key.sign, Some(Sign::Plus));
    }

    #[test]
    fn query_dependent_clause_body() {
        // a program whose body first queries, then updates per binding
        let mut store = base_store();
        let reg = registry(
            ".dbU.bump(.stk=S) ->
                .euter.r(.stkCode=S,.date=D,.clsPrice=C),
                .euter.r-(.stkCode=S,.date=D,.clsPrice=C),
                .euter.r+(.stkCode=S,.date=D,.clsPrice=C+1) ;",
        );
        call(&reg, &mut store, "?.dbU.bump(.stk=hp)").unwrap();
        let Statement::Request(q) =
            parse_statement("?.euter.r(.stkCode=hp,.date=3/3/85,.clsPrice=51)").unwrap()
        else {
            panic!()
        };
        assert!(Evaluator::with_defaults(&store).query(&q).unwrap().is_true());
    }

    #[test]
    fn update_scope_extraction() {
        let Statement::Request(req) = parse_statement("?.euter.r-(.stkCode=hp)").unwrap() else {
            panic!()
        };
        assert_eq!(
            update_scope(&req.items[0]),
            ChangeScope::Relation { db: Name::new("euter"), rel: Name::new("r") }
        );
        let Statement::Request(req) = parse_statement("?.ource-.S").unwrap() else { panic!() };
        assert_eq!(update_scope(&req.items[0]), ChangeScope::Database { db: Name::new("ource") });
    }
}
