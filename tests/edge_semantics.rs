//! Edge-case semantics pinned as tests: corners of the §3–§5 model that
//! are easy to get wrong and not covered by the paper's own examples.

use idl::{Backend, Engine, Value};
use idl_repro as _;

fn empty() -> Engine {
    Engine::new()
}

#[test]
fn sets_of_atoms() {
    // relations need not contain tuples: a set of plain numbers
    let mut e = empty();
    e.update("?.db.nums+(=5)").unwrap();
    e.update("?.db.nums+(=7)").unwrap();
    assert!(e.query("?.db.nums(=5)").unwrap().is_true());
    assert!(e.query("?.db.nums(>6)").unwrap().is_true());
    assert!(!e.query("?.db.nums(>7)").unwrap().is_true());
    let a = e.query("?.db.nums(=X)").unwrap();
    assert_eq!(a.column("X"), vec![Value::int(5), Value::int(7)]);
    // and deleted by predicate
    e.update("?.db.nums-(>6)").unwrap();
    assert!(!e.query("?.db.nums(=7)").unwrap().is_true());
}

#[test]
fn nested_sets_navigate() {
    // a tuple attribute holding a set of tuples — the model is fully nested
    let mut e = empty();
    e.update("?.db.orders+(.id=1, .items(.sku=pen, .qty=2))").unwrap();
    e.update("?.db.orders+(.id=2, .items(.sku=ink, .qty=9))").unwrap();
    let a = e.query("?.db.orders(.id=I, .items(.qty>5))").unwrap();
    assert_eq!(a.column("I"), vec![Value::int(2)]);
}

#[test]
fn double_negation() {
    let mut e = Engine::with_stock_universe(vec![("3/3/85", "hp", 50.0)]);
    // ¬¬exists == exists (for ground inner queries)
    assert!(e.query("?¬¬.euter.r(.stkCode=hp)").unwrap().is_true());
    assert!(!e.query("?¬.euter.r(.stkCode=hp)").unwrap().is_true());
    assert!(e.query("?¬.euter.r(.stkCode=ibm)").unwrap().is_true());
}

#[test]
fn higher_order_variable_bound_to_non_name_fails_quietly() {
    // binding Y to a number first makes `.Y` unsatisfiable, not an error
    let mut e = Engine::with_stock_universe(vec![("3/3/85", "hp", 50.0)]);
    let a = e.query("?Y = 42, .euter.Y").unwrap();
    assert!(a.is_empty());
    // bound to a proper name it navigates
    let a = e.query("?Y = r, .euter.Y(.stkCode=hp)").unwrap();
    assert!(a.is_true());
}

#[test]
fn heterogeneous_relation_mixed_arity_queries() {
    let mut e = empty();
    e.update("?.db.r+(.a=1)").unwrap();
    e.update("?.db.r+(.a=2, .b=20)").unwrap();
    e.update("?.db.r+(.b=30)").unwrap();
    // fields require attribute presence
    assert_eq!(e.query("?.db.r(.a=X)").unwrap().len(), 2);
    assert_eq!(e.query("?.db.r(.b=X)").unwrap().len(), 2);
    assert_eq!(e.query("?.db.r(.a=X, .b=Y)").unwrap().len(), 1);
    // attribute enumeration sees the union of attribute names
    let attrs = e.query("?.db.r(.A=V)").unwrap();
    assert_eq!(attrs.column("A"), vec![Value::str("a"), Value::str("b")]);
}

#[test]
fn empty_relation_and_empty_universe() {
    let mut e = empty();
    assert!(e.query("?.nodb.r(.a=1)").unwrap().is_empty());
    assert!(e.query("?.X.Y").unwrap().is_empty());
    e.update("?.db.r+(.a=1)").unwrap();
    e.update("?.db.r-(.a=1)").unwrap();
    // empty (but existing) relation: scans yield nothing, negations hold
    assert!(e.query("?.db.r¬(.a=1)").unwrap().is_true());
    assert!(e.query("?.db.r=R").unwrap().is_true(), "aggregate var binds the empty set");
}

#[test]
fn whole_tuple_and_whole_database_binding() {
    let mut e = Engine::with_stock_universe(vec![("3/3/85", "hp", 50.0)]);
    // bind a whole database object (a tuple of relations)
    let a = e.query("?.euter=DB").unwrap();
    let db = &a.column("DB")[0];
    assert!(db.as_tuple().is_some());
    // bind a whole element of a set
    let a = e.query("?.euter.r(=T)").unwrap();
    let t = &a.column("T")[0];
    assert_eq!(t.attr("stkCode"), Some(&Value::str("hp")));
}

#[test]
fn date_arithmetic_in_queries() {
    let mut e = Engine::with_stock_universe(vec![("3/3/85", "hp", 50.0), ("3/4/85", "hp", 51.0)]);
    // consecutive-day self join via D2 = D + 1
    let a = e
        .query(
            "?.euter.r(.stkCode=hp,.date=D,.clsPrice=P1), D2 = D + 1, \
              .euter.r(.stkCode=hp,.date=D2,.clsPrice=P2), P2 > P1",
        )
        .unwrap();
    assert_eq!(a.len(), 1, "one up-day pair: {a}");
}

#[test]
fn comparisons_across_types_are_false_not_errors() {
    let mut e = empty();
    e.update("?.db.r+(.a=hello)").unwrap();
    // string vs int: incomparable → unsatisfied (not an error), and this
    // includes `!=` — no relop holds between incomparable atoms (the
    // SQL-unknown-like reading; see `compare_query`)
    assert!(!e.query("?.db.r(.a>5)").unwrap().is_true());
    assert!(!e.query("?.db.r(.a=5)").unwrap().is_true());
    assert!(!e.query("?.db.r(.a!=5)").unwrap().is_true());
    // same-type comparisons behave classically
    assert!(e.query("?.db.r(.a!=world)").unwrap().is_true());
}

#[test]
fn deep_nesting_round_trips_through_snapshot() {
    let mut e = empty();
    e.update("?.db.r+(.a(.b(.c(.d=1))))").unwrap();
    let dir = std::env::temp_dir().join("idl-edge-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.json");
    e.save_snapshot(&path).unwrap();
    let mut e2 = Engine::load_snapshot(&path).unwrap();
    assert!(e2.query("?.db.r(.a(.b(.c(.d=1))))").unwrap().is_true());
    std::fs::remove_file(&path).ok();
}

#[test]
fn update_then_query_same_request() {
    // items run left to right: an update's effect is visible to later
    // query items in the same request
    let mut e = empty();
    let out = e.update("?.db.r+(.a=1), .db.r(.a=X)").unwrap();
    assert_eq!(out.answers().unwrap().column("X"), vec![Value::int(1)]);
}

#[test]
fn a_clause_sent_to_update_or_query_is_refused_and_installs_nothing() {
    // `update` and `query` take exactly one request: a clause is refused
    // before it runs, through every front door
    let mut e = empty();
    for clause in [".v.all(.a=A) <- .db.r(.a=A) ;", ".dbU.put(.k=K) -> .db.r+(.a=K) ;"] {
        assert_eq!(e.update(clause).unwrap_err().code(), "E-USAGE", "{clause}");
        assert_eq!(e.query(clause).unwrap_err().code(), "E-USAGE", "{clause}");
        let group = Backend::update_group(&mut e, &[clause.to_string()]);
        assert_eq!(group[0].as_ref().unwrap_err().code(), "E-USAGE", "{clause}");
    }
    assert!(e.rules().is_empty(), "a refused rule was installed");
    assert!(e.programs().is_empty(), "a refused program was registered");
    // two requests are not one either, and neither runs
    assert_eq!(e.update("?.db.r+(.a=1) ; ?.db.r+(.a=2)").unwrap_err().code(), "E-USAGE");
    assert!(!e.query("?.db.r(.a=A)").unwrap().is_true());
}

#[test]
fn the_change_journal_stays_bounded_over_a_long_update_read_run() {
    // Each read repairs the views and drops the journal records the
    // repair consumed; an engine without views drops them on every read.
    let mut with_views = empty();
    with_views.execute(".v.all(.a=A) <- .db.r(.a=A) ;").unwrap();
    for mut e in [with_views, empty()] {
        for i in 0..1_000 {
            e.update(&format!("?.db.r{}(.a=1)", ['+', '-'][i % 2])).unwrap();
            e.query("?.db.r(.a=A)").unwrap();
        }
        assert!(e.store().journal_len() <= 4, "{} records", e.store().journal_len());
    }
}
