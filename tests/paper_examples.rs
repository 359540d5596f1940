//! Every worked example from the paper, as assertions (experiments E1–E7
//! of DESIGN.md; E8 lives in `baseline_inexpressibility.rs`). The
//! `experiments` binary prints the same checks with narration; this file
//! is the CI-facing version.

use idl::{Engine, Value};
use idl_repro as _;

fn paper_engine() -> Engine {
    Engine::with_stock_universe(vec![
        ("3/3/85", "hp", 50.0),
        ("3/3/85", "ibm", 160.0),
        ("3/3/85", "sun", 35.0),
        ("3/4/85", "hp", 62.0),
        ("3/4/85", "ibm", 155.0),
        ("3/4/85", "sun", 36.0),
        ("3/5/85", "hp", 61.0),
        ("3/5/85", "ibm", 210.0),
        ("3/5/85", "sun", 34.0),
    ])
}

fn date(s: &str) -> Value {
    Value::date(s.parse().unwrap())
}

// ---- E1: §4.2 first-order queries -------------------------------------

#[test]
fn e1_hp_ever_above_60() {
    let mut e = paper_engine();
    assert!(e.query("?.euter.r(.stkCode=hp, .clsPrice>60)").unwrap().is_true());
    assert!(!e.query("?.euter.r(.stkCode=hp, .clsPrice>62)").unwrap().is_true());
}

#[test]
fn e1_join_dates_hp_and_ibm() {
    let mut e = paper_engine();
    let a = e
        .query("?.euter.r(.stkCode=hp,.clsPrice>60,.date=D), .euter.r(.stkCode=ibm,.clsPrice>150,.date=D)")
        .unwrap();
    assert_eq!(a.column("D"), vec![date("3/4/85"), date("3/5/85")]);
}

#[test]
fn e1_alltime_high_with_negation() {
    let mut e = paper_engine();
    let a = e
        .query("?.euter.r(.stkCode=hp,.clsPrice=P,.date=D), .euter.r¬(.stkCode=hp, .clsPrice>P)")
        .unwrap();
    assert_eq!(a.column("P"), vec![Value::float(62.0)]);
    assert_eq!(a.column("D"), vec![date("3/4/85")]);
}

#[test]
fn e1_any_stock_above_200() {
    let mut e = paper_engine();
    let a = e.query("?.euter.r(.stkCode=S, .clsPrice>200)").unwrap();
    assert_eq!(a.column("S"), vec![Value::str("ibm")]);
}

#[test]
fn e1_query2_per_day_maximum_all_schemata() {
    // §2's query 2: "For each day, list the stock with the highest closing
    // price" — needs higher-order quantification on chwab/ource.
    let mut e = paper_engine();
    // winners: 3/3 ibm(160), 3/4 ibm(155), 3/5 ibm(210)
    let expect_days = vec![date("3/3/85"), date("3/4/85"), date("3/5/85")];

    let a = e
        .query("?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r¬(.date=D,.clsPrice>P)")
        .unwrap();
    assert_eq!(a.column("D"), expect_days);
    assert_eq!(a.column("S"), vec![Value::str("ibm")]);

    let a = e.query("?.chwab.r(.date=D,.S=P), S != date, .chwab.r¬(.date=D,.S2>P)").unwrap();
    assert_eq!(a.column("D"), expect_days);
    assert_eq!(a.column("S"), vec![Value::str("ibm")]);

    let a = e.query("?.ource.S(.date=D,.clsPrice=P), .ource¬.S2(.date=D,.clsPrice>P)").unwrap();
    assert_eq!(a.column("D"), expect_days);
    assert_eq!(a.column("S"), vec![Value::str("ibm")]);
}

// ---- E2: §4.3 higher-order queries -------------------------------------

#[test]
fn e2_database_and_relation_names() {
    let mut e = paper_engine();
    let a = e.query("?.X.Y").unwrap();
    assert_eq!(a.column("X"), vec![Value::str("chwab"), Value::str("euter"), Value::str("ource")]);
    let a = e.query("?.ource.Y").unwrap();
    assert_eq!(a.column("Y"), vec![Value::str("hp"), Value::str("ibm"), Value::str("sun")]);
}

#[test]
fn e2_footnote7_constraint() {
    let mut e = paper_engine();
    let a = e.query("?.X.Y, X = ource").unwrap();
    assert_eq!(a.column("X"), vec![Value::str("ource")]);
    assert_eq!(a.column("Y").len(), 3);
}

#[test]
fn e2_databases_with_relation_hp() {
    let mut e = paper_engine();
    let a = e.query("?.X.hp").unwrap();
    assert_eq!(a.column("X"), vec![Value::str("ource")]);
}

#[test]
fn e2_attribute_search() {
    let mut e = paper_engine();
    let a = e.query("?.X.Y(.stkCode)").unwrap();
    assert_eq!(a.column("X"), vec![Value::str("euter")]);
    assert_eq!(a.column("Y"), vec![Value::str("r")]);
}

#[test]
fn e2_cross_database_price_join() {
    let mut e = paper_engine();
    let a = e.query("?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)").unwrap();
    // all three stocks match (same facts in both schemata)
    assert_eq!(a.column("S").len(), 3);
}

#[test]
fn e2_relations_in_all_databases() {
    let mut e = paper_engine();
    assert!(e.query("?.euter.Y, .chwab.Y, .ource.Y").unwrap().is_empty());
    let a = e.query("?.euter.Y, .chwab.Y").unwrap();
    assert_eq!(a.column("Y"), vec![Value::str("r")]);
}

#[test]
fn e2_above_200_all_three_schemata() {
    let mut e = paper_engine();
    for q in
        ["?.euter.r(.stkCode=S,.clsPrice>200)", "?.chwab.r(.S>200)", "?.ource.S(.clsPrice>200)"]
    {
        let a = e.query(q).unwrap();
        assert_eq!(a.column("S"), vec![Value::str("ibm")], "{q}");
    }
}

// ---- E3: §5.2 update expressions ----------------------------------------

#[test]
fn e3_insert_delete_round_trip() {
    let mut e = paper_engine();
    let st = e.update("?.euter.r+(.date=3/3/85,.stkCode=dec,.clsPrice=50)").unwrap();
    assert_eq!(st.stats().unwrap().inserted, 1);
    assert!(e.query("?.euter.r(.stkCode=dec)").unwrap().is_true());
    let st = e.update("?.euter.r-(.date=3/3/85,.stkCode=dec)").unwrap();
    assert_eq!(st.stats().unwrap().deleted, 1);
    assert!(!e.query("?.euter.r(.stkCode=dec)").unwrap().is_true());
}

#[test]
fn e3_atomic_minus_vs_attribute_minus() {
    // §5.2: both make queries on hp fail for that tuple; the second also
    // removes the attribute itself.
    let mut e = paper_engine();
    e.update("?.chwab.r(.date=3/3/85, .hp-=C)").unwrap();
    assert!(!e.query("?.chwab.r(.date=3/3/85, .hp=P)").unwrap().is_true());
    // attribute still present in the 3/3 tuple (null-valued)
    let a = e.query("?.chwab.r(.date=3/3/85, .A=V), A = hp").unwrap();
    assert!(a.is_empty(), "null value satisfies nothing");

    let mut e = paper_engine();
    e.update("?.chwab.r(.date=3/3/85, -.hp=C)").unwrap();
    assert!(!e.query("?.chwab.r(.date=3/3/85, .hp=P)").unwrap().is_true());
    assert!(
        e.query("?.chwab.r(.date=3/4/85, .hp=P)").unwrap().is_true(),
        "other tuples keep the attribute (heterogeneous set)"
    );
}

#[test]
fn e3_price_bump_with_arithmetic() {
    let mut e = paper_engine();
    e.update("?.chwab.r(.date=3/3/85,.hp=C), .chwab.r-(.date=3/3/85,.hp=C), .chwab.r+(.date=3/3/85,.hp=C+10)")
        .unwrap();
    assert!(e.query("?.chwab.r(.date=3/3/85, .hp=60)").unwrap().is_true());
}

#[test]
fn e3_update_order_significant() {
    let mut e1 = paper_engine();
    e1.update("?.euter.r-(.stkCode=hp), .euter.r+(.date=3/9/85,.stkCode=hp,.clsPrice=99)").unwrap();
    assert_eq!(e1.query("?.euter.r(.stkCode=hp,.clsPrice=P)").unwrap().column("P").len(), 1);

    let mut e2 = paper_engine();
    e2.update("?.euter.r+(.date=3/9/85,.stkCode=hp,.clsPrice=99), .euter.r-(.stkCode=hp)").unwrap();
    assert_eq!(e2.query("?.euter.r(.stkCode=hp,.clsPrice=P)").unwrap().column("P").len(), 0);
}

// ---- E4: §6 views --------------------------------------------------------

#[test]
fn e4_unified_view() {
    let mut e = paper_engine();
    e.add_rules(idl::transparency::unified_view_rules()).unwrap();
    let a = e.query("?.dbI.p(.stk=S, .clsPrice>200)").unwrap();
    assert_eq!(a.column("S"), vec![Value::str("ibm")]);
    // every quote from every source is in p
    assert_eq!(e.query("?.dbI.p(.date=D,.stk=S,.clsPrice=P)").unwrap().len(), 9);
}

#[test]
fn e4_higher_order_view_data_dependent_relations() {
    let mut e = paper_engine();
    e.add_rules(idl::transparency::unified_view_rules()).unwrap();
    e.add_rules(idl::transparency::customized_view_rules()).unwrap();
    assert_eq!(
        e.query("?.dbO.Y").unwrap().column("Y"),
        vec![Value::str("hp"), Value::str("ibm"), Value::str("sun")]
    );
    e.update("?.euter.r+(.date=3/6/85,.stkCode=dec,.clsPrice=80)").unwrap();
    assert_eq!(e.query("?.dbO.Y").unwrap().column("Y").len(), 4, "views track data");
}

#[test]
fn e4_pnew_reconciliation() {
    let mut e = paper_engine();
    e.add_rules(idl::transparency::unified_view_rules()).unwrap();
    e.add_rules(idl::transparency::reconciled_view_rules()).unwrap();
    e.update("?.ource.hp-(.date=3/3/85), .ource.hp+(.date=3/3/85,.clsPrice=51)").unwrap();
    assert_eq!(e.query("?.dbI.p(.stk=hp,.date=3/3/85,.clsPrice=P)").unwrap().len(), 2);
    assert_eq!(
        e.query("?.dbI.pnew(.stk=hp,.date=3/3/85,.clsPrice=P)").unwrap().column("P"),
        vec![Value::float(50.0)]
    );
}

// ---- E5: §7.1 update programs --------------------------------------------

fn programs_engine() -> Engine {
    let mut e = paper_engine();
    e.execute(idl::transparency::standard_update_programs()).unwrap();
    e
}

#[test]
fn e5_delstk_translates_per_schema() {
    let mut e = programs_engine();
    e.update("?.dbU.delStk(.stk=hp, .date=3/3/85)").unwrap();
    assert!(!e.query("?.euter.r(.stkCode=hp,.date=3/3/85)").unwrap().is_true());
    assert!(!e.query("?.chwab.r(.date=3/3/85,.hp=P)").unwrap().is_true());
    assert!(!e.query("?.ource.hp(.date=3/3/85)").unwrap().is_true());
    assert!(e.query("?.euter.r(.stkCode=hp,.date=3/4/85)").unwrap().is_true());
}

#[test]
fn e5_delstk_partial_bindings() {
    let mut e = programs_engine();
    e.update("?.dbU.delStk(.stk=hp)").unwrap();
    assert!(!e.query("?.euter.r(.stkCode=hp)").unwrap().is_true());
    // structure preserved: ource.hp still a (now empty) relation
    assert!(e.store().relation_names("ource").unwrap().iter().any(|n| n.as_str() == "hp"));
}

#[test]
fn e5_rmstk_removes_metadata() {
    let mut e = programs_engine();
    e.update("?.dbU.rmStk(.stk=hp)").unwrap();
    assert!(!e.query("?.euter.r(.stkCode=hp)").unwrap().is_true());
    assert!(!e.query("?.chwab.r(.A=P), A = hp").unwrap().is_true());
    assert!(e.store().relation("ource", "hp").is_err(), "relation dropped");
}

#[test]
fn e5_insstk_binding_signature() {
    let mut e = programs_engine();
    e.update("?.dbU.insStk(.stk=dec, .date=3/3/85, .price=40)").unwrap();
    assert!(e.query("?.ource.dec(.clsPrice=40)").unwrap().is_true());
    let err = e.update("?.dbU.insStk(.stk=dec2, .date=3/3/85)").unwrap_err();
    assert!(err.to_string().contains(".price"));
    assert!(!e.query("?.euter.r(.stkCode=dec2)").unwrap().is_true(), "atomic rejection");
}

// ---- E6/E7: §7.2 + Figure 1 ------------------------------------------------

#[test]
fn e6_view_updates_route_through_programs() {
    let mut e = paper_engine();
    idl::transparency::install_two_level_mapping(&mut e).unwrap();
    assert!(e.update("?.dbI.p+(.date=3/9/85,.stk=x,.clsPrice=1)").is_err());
    e.update("?.dbE.r+(.date=3/9/85, .stkCode=dec, .clsPrice=44)").unwrap();
    assert!(e.query("?.euter.r(.stkCode=dec,.clsPrice=44)").unwrap().is_true());
    assert!(e.query("?.dbO.dec(.clsPrice=44)").unwrap().is_true());
    e.update("?.dbE.r-(.date=3/9/85, .stkCode=dec)").unwrap();
    assert!(!e.query("?.dbE.r(.stkCode=dec,.clsPrice=44)").unwrap().is_true());
}

#[test]
fn e7_two_level_mapping_round_trip() {
    let mut e = paper_engine();
    idl::transparency::install_two_level_mapping(&mut e).unwrap();
    let src = e.query("?.euter.r(.date=D,.stkCode=S,.clsPrice=P)").unwrap();
    let view = e.query("?.dbE.r(.date=D,.stkCode=S,.clsPrice=P)").unwrap();
    assert_eq!(src, view);
    // a fact entering through one base schema reaches all customized views
    e.update("?.ource.newco+(.date=3/6/85, .clsPrice=9)").unwrap();
    assert!(e.query("?.dbE.r(.stkCode=newco)").unwrap().is_true());
    assert!(e.query("?.dbC.r(.newco=P)").unwrap().is_true());
    assert!(e.query("?.dbO.newco(.clsPrice=9)").unwrap().is_true());
}
