//! A first-order Datalog engine.
//!
//! Deliberately classical: relations have fixed arity, atoms are positional
//! (`r(X, hp, P)`), negation is stratified, and evaluation is semi-naive
//! bottom-up. There are no variables over predicate or attribute names —
//! that is the whole point of the comparison with IDL.

use idl_object::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// A positional term.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FoTerm {
    /// A constant.
    Const(Value),
    /// A variable, named for readability.
    Var(String),
}

impl FoTerm {
    /// Variable shorthand.
    pub fn v(name: &str) -> FoTerm {
        FoTerm::Var(name.to_string())
    }

    /// Constant shorthand.
    pub fn c(v: impl Into<Value>) -> FoTerm {
        FoTerm::Const(v.into())
    }
}

impl fmt::Display for FoTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoTerm::Const(v) => write!(f, "{v}"),
            FoTerm::Var(n) => write!(f, "{n}"),
        }
    }
}

/// Comparison operators for built-in literals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FoCmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl FoCmp {
    fn holds(self, a: &Value, b: &Value) -> bool {
        use idl_eval_free::compare;
        compare(self, a, b)
    }
}

// Local comparison identical to IDL's query comparison for atoms, so the
// differential tests compare like with like.
mod idl_eval_free {
    use super::FoCmp;
    use idl_object::Value;
    use std::cmp::Ordering;

    pub fn compare(op: FoCmp, a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Atom(x), Value::Atom(y)) => match x.compare(y) {
                Some(ord) => matches(op, ord),
                None => false,
            },
            _ => match op {
                FoCmp::Eq => a == b,
                FoCmp::Ne => a != b,
                _ => false,
            },
        }
    }

    fn matches(op: FoCmp, ord: Ordering) -> bool {
        match op {
            FoCmp::Lt => ord == Ordering::Less,
            FoCmp::Le => ord != Ordering::Greater,
            FoCmp::Eq => ord == Ordering::Equal,
            FoCmp::Ne => ord != Ordering::Equal,
            FoCmp::Gt => ord == Ordering::Greater,
            FoCmp::Ge => ord != Ordering::Less,
        }
    }
}

/// A body literal.
#[derive(Clone, PartialEq, Debug)]
pub enum FoLiteral {
    /// `pred(t₁, …, tₙ)` — positive atom.
    Atom {
        /// Predicate (relation) name.
        pred: String,
        /// Positional arguments.
        args: Vec<FoTerm>,
    },
    /// `¬pred(t₁, …, tₙ)` — negated atom (stratified).
    NegAtom {
        /// Predicate name.
        pred: String,
        /// Positional arguments.
        args: Vec<FoTerm>,
    },
    /// Built-in comparison between two terms.
    Cmp(FoTerm, FoCmp, FoTerm),
}

/// A rule `head(args) :- body`.
#[derive(Clone, PartialEq, Debug)]
pub struct FoRule {
    /// Head predicate name.
    pub head: String,
    /// Head argument terms (constants allowed).
    pub head_args: Vec<FoTerm>,
    /// Body literals.
    pub body: Vec<FoLiteral>,
}

/// A program: a set of rules.
#[derive(Clone, Default, Debug)]
pub struct FoProgram {
    /// The rules.
    pub rules: Vec<FoRule>,
}

/// A conjunctive query: body literals plus distinguished output variables.
#[derive(Clone, Debug)]
pub struct FoQuery {
    /// Conjuncts.
    pub body: Vec<FoLiteral>,
    /// Output variable names (projection).
    pub outputs: Vec<String>,
}

/// A first-order database: named fixed-arity fact relations.
#[derive(Clone, Default, Debug)]
pub struct FoDatabase {
    relations: BTreeMap<String, BTreeSet<Vec<Value>>>,
    arities: BTreeMap<String, usize>,
}

impl FoDatabase {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a relation with fixed arity.
    pub fn create_relation(&mut self, name: &str, arity: usize) {
        self.relations.entry(name.to_string()).or_default();
        self.arities.insert(name.to_string(), arity);
    }

    /// Inserts a fact; panics on arity mismatch (programming error in the
    /// encoder — first-order schemas are rigid, that is the point).
    pub fn insert(&mut self, name: &str, fact: Vec<Value>) -> bool {
        let arity =
            *self.arities.get(name).unwrap_or_else(|| panic!("relation {name} not declared"));
        assert_eq!(fact.len(), arity, "arity mismatch inserting into {name}");
        self.relations.get_mut(name).expect("declared above").insert(fact)
    }

    /// The facts of a relation.
    pub fn facts(&self, name: &str) -> Option<&BTreeSet<Vec<Value>>> {
        self.relations.get(name)
    }

    /// Relation names.
    pub fn relation_names(&self) -> impl Iterator<Item = &String> {
        self.relations.keys()
    }

    /// Declared arity.
    pub fn arity(&self, name: &str) -> Option<usize> {
        self.arities.get(name).copied()
    }

    /// Total fact count.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(BTreeSet::len).sum()
    }

    /// Evaluates a conjunctive query, returning output tuples.
    pub fn query(&self, q: &FoQuery) -> Result<BTreeSet<Vec<Value>>, String> {
        let substs = self.eval_body(&q.body, vec![HashMap::new()])?;
        let mut out = BTreeSet::new();
        for s in substs {
            let mut row = Vec::with_capacity(q.outputs.len());
            for o in &q.outputs {
                row.push(s.get(o).cloned().ok_or_else(|| format!("output variable {o} unbound"))?);
            }
            out.insert(row);
        }
        Ok(out)
    }

    fn eval_body(
        &self,
        body: &[FoLiteral],
        seed: Vec<HashMap<String, Value>>,
    ) -> Result<Vec<HashMap<String, Value>>, String> {
        let mut current = seed;
        for lit in body {
            let mut next = Vec::new();
            match lit {
                FoLiteral::Atom { pred, args } => {
                    let facts =
                        self.relations.get(pred).ok_or_else(|| format!("no relation {pred}"))?;
                    for s in &current {
                        for fact in facts {
                            if fact.len() != args.len() {
                                continue;
                            }
                            if let Some(s2) = unify(args, fact, s) {
                                next.push(s2);
                            }
                        }
                    }
                }
                FoLiteral::NegAtom { pred, args } => {
                    let facts =
                        self.relations.get(pred).ok_or_else(|| format!("no relation {pred}"))?;
                    for s in &current {
                        let witnessed = facts
                            .iter()
                            .any(|fact| fact.len() == args.len() && unify(args, fact, s).is_some());
                        if !witnessed {
                            next.push(s.clone());
                        }
                    }
                }
                FoLiteral::Cmp(a, op, b) => {
                    for s in &current {
                        let av = resolve(a, s).ok_or("comparison operand unbound")?;
                        let bv = resolve(b, s).ok_or("comparison operand unbound")?;
                        if op.holds(&av, &bv) {
                            next.push(s.clone());
                        }
                    }
                }
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        Ok(current)
    }

    /// Runs a program to fixpoint (stratified, semi-naive at rule
    /// granularity), adding derived facts to this database.
    pub fn run(&mut self, program: &FoProgram) -> Result<usize, String> {
        let strata = stratify(program)?;
        let mut total_new = 0usize;
        for stratum in strata {
            loop {
                let mut new_facts: Vec<(String, Vec<Value>)> = Vec::new();
                for &ri in &stratum {
                    let rule = &program.rules[ri];
                    // ensure head relation exists
                    if !self.relations.contains_key(&rule.head) {
                        self.create_relation(&rule.head, rule.head_args.len());
                    }
                    let substs = self.eval_body(&rule.body, vec![HashMap::new()])?;
                    for s in substs {
                        let mut fact = Vec::with_capacity(rule.head_args.len());
                        for t in &rule.head_args {
                            fact.push(resolve(t, &s).ok_or("unsafe head variable")?);
                        }
                        if !self.relations[&rule.head].contains(&fact) {
                            new_facts.push((rule.head.clone(), fact));
                        }
                    }
                }
                if new_facts.is_empty() {
                    break;
                }
                for (rel, fact) in new_facts {
                    if self.relations.get_mut(&rel).expect("created above").insert(fact) {
                        total_new += 1;
                    }
                }
            }
        }
        Ok(total_new)
    }
}

fn unify(
    args: &[FoTerm],
    fact: &[Value],
    s: &HashMap<String, Value>,
) -> Option<HashMap<String, Value>> {
    let mut s2 = s.clone();
    for (t, v) in args.iter().zip(fact) {
        match t {
            FoTerm::Const(c) => {
                if c != v {
                    return None;
                }
            }
            FoTerm::Var(name) => match s2.get(name) {
                Some(bound) if bound != v => return None,
                Some(_) => {}
                None => {
                    s2.insert(name.clone(), v.clone());
                }
            },
        }
    }
    Some(s2)
}

fn resolve(t: &FoTerm, s: &HashMap<String, Value>) -> Option<Value> {
    match t {
        FoTerm::Const(c) => Some(c.clone()),
        FoTerm::Var(n) => s.get(n).cloned(),
    }
}

/// Stratifies by predicate; error on negation through recursion.
fn stratify(program: &FoProgram) -> Result<Vec<Vec<usize>>, String> {
    let n = program.rules.len();
    let mut stratum = vec![0usize; n];
    for _ in 0..=(n * n + 1) {
        let mut changed = false;
        for (user, rule) in program.rules.iter().enumerate() {
            for lit in &rule.body {
                let (pred, neg) = match lit {
                    FoLiteral::Atom { pred, .. } => (pred, false),
                    FoLiteral::NegAtom { pred, .. } => (pred, true),
                    FoLiteral::Cmp(..) => continue,
                };
                for (definer, r2) in program.rules.iter().enumerate() {
                    if &r2.head == pred {
                        let need = stratum[definer] + usize::from(neg);
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
            return Err("program is not stratified".into());
        }
    }
    let max = stratum.iter().copied().max().unwrap_or(0);
    let mut out = vec![Vec::new(); max + 1];
    for (i, &s) in stratum.iter().enumerate() {
        out[s].push(i);
    }
    out.retain(|v| !v.is_empty());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn euter_db() -> FoDatabase {
        let mut db = FoDatabase::new();
        db.create_relation("r", 3); // (date, stk, price)
        for (d, s, p) in [("3/3/85", "hp", 50.0), ("3/3/85", "ibm", 160.0), ("3/4/85", "hp", 62.0)]
        {
            db.insert("r", vec![Value::str(d), Value::str(s), Value::float(p)]);
        }
        db
    }

    #[test]
    fn conjunctive_join_query() {
        let db = euter_db();
        // dates where hp and ibm both quoted
        let q = FoQuery {
            body: vec![
                FoLiteral::Atom {
                    pred: "r".into(),
                    args: vec![FoTerm::v("D"), FoTerm::c("hp"), FoTerm::v("P1")],
                },
                FoLiteral::Atom {
                    pred: "r".into(),
                    args: vec![FoTerm::v("D"), FoTerm::c("ibm"), FoTerm::v("P2")],
                },
            ],
            outputs: vec!["D".into()],
        };
        let rows = db.query(&q).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn comparison_builtin() {
        let db = euter_db();
        let q = FoQuery {
            body: vec![
                FoLiteral::Atom {
                    pred: "r".into(),
                    args: vec![FoTerm::v("D"), FoTerm::v("S"), FoTerm::v("P")],
                },
                FoLiteral::Cmp(FoTerm::v("P"), FoCmp::Gt, FoTerm::c(100.0)),
            ],
            outputs: vec!["S".into()],
        };
        let rows = db.query(&q).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.iter().next().unwrap()[0], Value::str("ibm"));
    }

    #[test]
    fn recursive_program_transitive_closure() {
        let mut db = FoDatabase::new();
        db.create_relation("edge", 2);
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            db.insert("edge", vec![Value::str(a), Value::str(b)]);
        }
        let prog = FoProgram {
            rules: vec![
                FoRule {
                    head: "path".into(),
                    head_args: vec![FoTerm::v("X"), FoTerm::v("Y")],
                    body: vec![FoLiteral::Atom {
                        pred: "edge".into(),
                        args: vec![FoTerm::v("X"), FoTerm::v("Y")],
                    }],
                },
                FoRule {
                    head: "path".into(),
                    head_args: vec![FoTerm::v("X"), FoTerm::v("Z")],
                    body: vec![
                        FoLiteral::Atom {
                            pred: "edge".into(),
                            args: vec![FoTerm::v("X"), FoTerm::v("Y")],
                        },
                        FoLiteral::Atom {
                            pred: "path".into(),
                            args: vec![FoTerm::v("Y"), FoTerm::v("Z")],
                        },
                    ],
                },
            ],
        };
        let added = db.run(&prog).unwrap();
        assert_eq!(added, 6, "3 edges + 3 longer paths");
        assert_eq!(db.facts("path").unwrap().len(), 6);
    }

    #[test]
    fn stratified_negation_runs() {
        let mut db = FoDatabase::new();
        db.create_relation("node", 1);
        db.create_relation("covered", 1);
        db.insert("node", vec![Value::str("a")]);
        db.insert("node", vec![Value::str("b")]);
        db.insert("covered", vec![Value::str("a")]);
        let prog = FoProgram {
            rules: vec![FoRule {
                head: "uncovered".into(),
                head_args: vec![FoTerm::v("X")],
                body: vec![
                    FoLiteral::Atom { pred: "node".into(), args: vec![FoTerm::v("X")] },
                    FoLiteral::NegAtom { pred: "covered".into(), args: vec![FoTerm::v("X")] },
                ],
            }],
        };
        db.run(&prog).unwrap();
        let facts = db.facts("uncovered").unwrap();
        assert_eq!(facts.len(), 1);
        assert_eq!(facts.iter().next().unwrap()[0], Value::str("b"));
    }

    #[test]
    fn unstratified_rejected() {
        let mut db = FoDatabase::new();
        db.create_relation("p", 1);
        let prog = FoProgram {
            rules: vec![
                FoRule {
                    head: "q".into(),
                    head_args: vec![FoTerm::v("X")],
                    body: vec![
                        FoLiteral::Atom { pred: "p".into(), args: vec![FoTerm::v("X")] },
                        FoLiteral::NegAtom { pred: "s".into(), args: vec![FoTerm::v("X")] },
                    ],
                },
                FoRule {
                    head: "s".into(),
                    head_args: vec![FoTerm::v("X")],
                    body: vec![FoLiteral::Atom { pred: "q".into(), args: vec![FoTerm::v("X")] }],
                },
            ],
        };
        assert!(db.run(&prog).is_err());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn rigid_arity() {
        let mut db = FoDatabase::new();
        db.create_relation("r", 2);
        db.insert("r", vec![Value::int(1)]);
    }
}
