//! The experiment runner: executes every worked example in the paper
//! (E1–E9 in DESIGN.md) against the miniature stock universe and checks the
//! result against the behaviour the paper's text prescribes.
//!
//! ```text
//! cargo run -p idl-bench --bin experiments
//! ```
//!
//! Output is one block per experiment: the IDL source exactly as the paper
//! writes it (modulo `;` statement separators), the computed answer, and a
//! PASS/FAIL verdict. The process exits non-zero if any check fails, so CI
//! can gate on it. EXPERIMENTS.md records a captured run.

use idl::{Engine, Value};
use idl_baseline::encode::{encode, fo_above_query, run_above_binding, Schema};
use idl_object::Date;
use std::process::ExitCode;

struct Report {
    passed: usize,
    failed: usize,
}

impl Report {
    fn new() -> Self {
        Report { passed: 0, failed: 0 }
    }

    fn check(&mut self, label: &str, ok: bool, detail: &str) {
        if ok {
            self.passed += 1;
            println!("  PASS  {label}: {detail}");
        } else {
            self.failed += 1;
            println!("  FAIL  {label}: {detail}");
        }
    }
}

fn paper_engine() -> Engine {
    // The miniature universe all examples run on: three days, three stocks,
    // chosen so every paper example has a non-trivial answer (hp crosses
    // $60, ibm crosses both $150 and $200).
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

fn q(e: &mut Engine, src: &str) -> idl::AnswerSet {
    println!("    {src}");
    e.query(src).unwrap_or_else(|err| panic!("{src}: {err}"))
}

fn main() -> ExitCode {
    let mut r = Report::new();

    e1_first_order_queries(&mut r);
    e2_higher_order_queries(&mut r);
    e3_update_expressions(&mut r);
    e4_higher_order_views(&mut r);
    e5_update_programs(&mut r);
    e6_view_updates(&mut r);
    e7_two_level_mapping(&mut r);
    e8_inexpressibility(&mut r);
    e9_extensions(&mut r);

    println!("\n=== {} passed, {} failed ===", r.passed, r.failed);
    if r.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// E1 (§4.2): the four first-order euter examples.
fn e1_first_order_queries(r: &mut Report) {
    println!("\n== E1: first-order queries on euter (§4.2) ==");
    let mut e = paper_engine();

    let a = q(&mut e, "?.euter.r(.stkCode=hp, .clsPrice>60)");
    r.check("hp ever above 60", a.is_true(), &format!("{a}"));

    let a = q(
        &mut e,
        "?.euter.r(.stkCode=hp,.clsPrice>60,.date=D), .euter.r(.stkCode=ibm,.clsPrice>150,.date=D)",
    );
    r.check(
        "dates hp>60 and ibm>150",
        a.column("D")
            == vec![Value::date("3/4/85".parse().unwrap()), Value::date("3/5/85".parse().unwrap())],
        &format!("D = {:?}", a.column("D")),
    );

    let a = q(
        &mut e,
        "?.euter.r(.stkCode=hp,.clsPrice=P,.date=D), .euter.r¬(.stkCode=hp, .clsPrice>P)",
    );
    r.check(
        "hp all-time high via negation",
        a.column("P") == vec![Value::float(62.0)]
            && a.column("D") == vec![Value::date("3/4/85".parse().unwrap())],
        &format!("P = {:?}, D = {:?}", a.column("P"), a.column("D")),
    );

    let a = q(&mut e, "?.euter.r(.stkCode=S, .clsPrice>200)");
    r.check(
        "any stock above 200 (euter)",
        a.column("S") == vec![Value::str("ibm")],
        &format!("S = {:?}", a.column("S")),
    );

    // §2's query 2: per-day maximum, needing higher-order quantification on
    // the other two schemata.
    for (schema, src) in [
        ("euter", "?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r¬(.date=D,.clsPrice>P)"),
        ("chwab", "?.chwab.r(.date=D,.S=P), S != date, .chwab.r¬(.date=D,.S2>P)"),
        ("ource", "?.ource.S(.date=D,.clsPrice=P), .ource¬.S2(.date=D,.clsPrice>P)"),
    ] {
        let a = q(&mut e, src);
        r.check(
            &format!("per-day maximum on {schema} (§2 query 2)"),
            a.column("S") == vec![Value::str("ibm")] && a.column("D").len() == 3,
            &format!("winner ibm on {} days", a.column("D").len()),
        );
    }
}

/// E2 (§4.3): the higher-order query examples.
fn e2_higher_order_queries(r: &mut Report) {
    println!("\n== E2: higher-order queries (§4.3) ==");
    let mut e = paper_engine();

    let a = q(&mut e, "?.X.Y");
    r.check(
        "database names in the universe",
        a.column("X") == vec![Value::str("chwab"), Value::str("euter"), Value::str("ource")],
        &format!("X = {:?}", a.column("X")),
    );

    let a = q(&mut e, "?.ource.Y");
    r.check(
        "relation names in ource = stocks",
        a.column("Y") == vec![Value::str("hp"), Value::str("ibm"), Value::str("sun")],
        &format!("Y = {:?}", a.column("Y")),
    );

    let a = q(&mut e, "?.X.Y, X = ource");
    r.check(
        "footnote-7 constraint form",
        a.column("Y").len() == 3,
        &format!("{} relations", a.column("Y").len()),
    );

    let a = q(&mut e, "?.X.hp");
    r.check(
        "databases containing a relation named hp",
        a.column("X") == vec![Value::str("ource")],
        &format!("X = {:?}", a.column("X")),
    );

    let a = q(&mut e, "?.X.Y(.stkCode)");
    r.check(
        "database/relation containing attribute stkCode",
        a.column("X") == vec![Value::str("euter")] && a.column("Y") == vec![Value::str("r")],
        &format!("X = {:?}, Y = {:?}", a.column("X"), a.column("Y")),
    );

    let a = q(&mut e, "?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)");
    r.check(
        "stocks in ource and chwab with same closing price",
        a.column("S").len() == 3,
        &format!("S = {:?}", a.column("S")),
    );

    let a = q(&mut e, "?.euter.Y, .chwab.Y, .ource.Y");
    r.check(
        "relation names occurring in all three databases",
        a.is_empty(),
        "none (r vs stock-named relations), as the schemata imply",
    );

    // "Did any stock ever close above 200" — all three schemata
    let a = q(&mut e, "?.chwab.r(.S>200)");
    r.check(
        "above-200 on chwab (S over attribute names)",
        a.column("S") == vec![Value::str("ibm")],
        &format!("S = {:?}", a.column("S")),
    );
    let a = q(&mut e, "?.ource.S(.clsPrice > 200)");
    r.check(
        "above-200 on ource (S over relation names)",
        a.column("S") == vec![Value::str("ibm")],
        &format!("S = {:?}", a.column("S")),
    );
}

/// E3 (§5.2): the update-expression examples.
fn e3_update_expressions(r: &mut Report) {
    println!("\n== E3: update expressions (§5.2) ==");
    let d33 = Value::date("3/3/85".parse::<Date>().unwrap());
    let _ = &d33;

    // insert + delete
    let mut e = paper_engine();
    println!("    ?.euter.r+(.date=3/3/85,.stkCode=dec,.clsPrice=50)");
    let st =
        e.update("?.euter.r+(.date=3/3/85,.stkCode=dec,.clsPrice=50)").unwrap().stats().unwrap();
    r.check("set plus inserts", st.inserted == 1, &format!("{st:?}"));
    println!("    ?.euter.r-(.date=3/3/85,.stkCode=dec)");
    let st = e.update("?.euter.r-(.date=3/3/85,.stkCode=dec)").unwrap().stats().unwrap();
    r.check("set minus deletes", st.deleted == 1, &format!("{st:?}"));

    // query-dependent delete
    let mut e = paper_engine();
    println!("    ?.euter.r(.date=3/3/85,.stkCode=hp,.clsPrice=C), .euter.r-(.date=3/3/85,.stkCode=hp,.clsPrice=C)");
    let st = e
        .update("?.euter.r(.date=3/3/85,.stkCode=hp,.clsPrice=C), .euter.r-(.date=3/3/85,.stkCode=hp,.clsPrice=C)")
        .unwrap()
        .stats()
        .unwrap();
    let gone = !e.query("?.euter.r(.date=3/3/85,.stkCode=hp)").unwrap().is_true();
    r.check("query-dependent delete", st.deleted == 1 && gone, &format!("{st:?}"));

    // atomic minus (null the value) vs attribute minus (drop the attribute)
    let mut e = paper_engine();
    println!("    ?.chwab.r(.date=3/3/85, .hp-=C)");
    e.update("?.chwab.r(.date=3/3/85, .hp-=C)").unwrap();
    let nulled = !e.query("?.chwab.r(.date=3/3/85, .hp=P)").unwrap().is_true();
    let attr_still_there = e.query("?.chwab.r(.A=P), A = hp").map(|a| a.is_true()).unwrap_or(false);
    r.check(
        "atomic minus nulls value, attribute survives",
        nulled && attr_still_there,
        &format!("queries on hp fail: {nulled}; other dates still carry hp: {attr_still_there}"),
    );

    let mut e = paper_engine();
    println!("    ?.chwab.r(.date=3/3/85, -.hp=C)");
    e.update("?.chwab.r(.date=3/3/85, -.hp=C)").unwrap();
    let gone_33 = !e.query("?.chwab.r(.date=3/3/85, .hp=P)").unwrap().is_true();
    let kept_34 = e.query("?.chwab.r(.date=3/4/85, .hp=P)").unwrap().is_true();
    r.check(
        "attribute minus drops attr from one tuple only (heterogeneous set)",
        gone_33 && kept_34,
        &format!("3/3 tuple lost hp: {gone_33}; 3/4 tuple kept it: {kept_34}"),
    );

    // the paper's price bump: delete then insert with C+10
    let mut e = paper_engine();
    println!("    ?.chwab.r(.date=3/3/85,.hp=C), .chwab.r-(.date=3/3/85,.hp=C), .chwab.r+(.date=3/3/85,.hp=C+10)");
    e.update("?.chwab.r(.date=3/3/85,.hp=C), .chwab.r-(.date=3/3/85,.hp=C), .chwab.r+(.date=3/3/85,.hp=C+10)")
        .unwrap();
    let bumped = e.query("?.chwab.r(.date=3/3/85, .hp=60)").unwrap().is_true();
    r.check("delete-then-insert bumps price by 10", bumped, "hp on 3/3/85 is now 60");

    // order sensitivity (§5.2: "the ordering of these two update requests
    // is relevant")
    let mut e = paper_engine();
    e.update("?.euter.r-(.stkCode=hp), .euter.r+(.date=3/9/85,.stkCode=hp,.clsPrice=99)").unwrap();
    let fwd = e.query("?.euter.r(.stkCode=hp,.clsPrice=P)").unwrap().column("P").len();
    let mut e = paper_engine();
    e.update("?.euter.r+(.date=3/9/85,.stkCode=hp,.clsPrice=99), .euter.r-(.stkCode=hp)").unwrap();
    let rev = e.query("?.euter.r(.stkCode=hp,.clsPrice=P)").unwrap().column("P").len();
    r.check(
        "update order is significant",
        fwd == 1 && rev == 0,
        &format!("delete-then-insert leaves {fwd} hp row(s); insert-then-delete leaves {rev}"),
    );
}

/// E4 (§6): unified and customized (higher-order) views, pnew, name maps.
fn e4_higher_order_views(r: &mut Report) {
    println!("\n== E4: higher-order views (§6) ==");
    let mut e = paper_engine();
    e.add_rules(idl::transparency::unified_view_rules()).unwrap();
    e.add_rules(idl::transparency::customized_view_rules()).unwrap();

    let a = q(&mut e, "?.dbI.p(.stk=S, .clsPrice>200)");
    r.check(
        "unified view answers the intention once for all schemata",
        a.column("S") == vec![Value::str("ibm")],
        &format!("S = {:?}", a.column("S")),
    );

    let a = q(&mut e, "?.dbO.Y");
    r.check(
        "dbO is a higher-order view: one relation per stock",
        a.column("Y") == vec![Value::str("hp"), Value::str("ibm"), Value::str("sun")],
        &format!("relations: {:?}", a.column("Y")),
    );

    // data-dependence: a new stock means a new derived relation
    e.update("?.euter.r+(.date=3/6/85,.stkCode=dec,.clsPrice=80)").unwrap();
    let a = q(&mut e, "?.dbO.Y");
    r.check(
        "view *cardinality* follows the data",
        a.column("Y").len() == 4,
        &format!("now {} relations", a.column("Y").len()),
    );

    // pnew reconciliation
    let mut e = paper_engine();
    e.add_rules(idl::transparency::unified_view_rules()).unwrap();
    e.add_rules(idl::transparency::reconciled_view_rules()).unwrap();
    e.update("?.ource.hp-(.date=3/3/85), .ource.hp+(.date=3/3/85,.clsPrice=51)").unwrap();
    let both = q(&mut e, "?.dbI.p(.stk=hp,.date=3/3/85,.clsPrice=P)");
    let one = q(&mut e, "?.dbI.pnew(.stk=hp,.date=3/3/85,.clsPrice=P)");
    r.check(
        "pnew reconciles the value discrepancy",
        both.column("P").len() == 2 && one.column("P") == vec![Value::float(50.0)],
        &format!("p sees {:?}, pnew sees {:?}", both.column("P"), one.column("P")),
    );

    // name mappings
    let mut e = Engine::new();
    e.update("?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=50)").unwrap();
    e.update("?.chwab.r+(.date=3/3/85,.hewp=50)").unwrap();
    e.update("?.ource.hwp+(.date=3/3/85,.clsPrice=50)").unwrap();
    e.update("?.dbMaps.mapCE+(.c=hewp,.e=hp)").unwrap();
    e.update("?.dbMaps.mapOE+(.o=hwp,.e=hp)").unwrap();
    e.add_rules(
        "
        .dbI.q(.date=D,.stk=S,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P) ;
        .dbI.q(.date=D,.stk=E,.clsPrice=P) <- .dbMaps.mapCE(.c=S,.e=E), .chwab.r(.date=D,.S=P) ;
        .dbI.q(.date=D,.stk=E,.clsPrice=P) <- .dbMaps.mapOE(.o=S,.e=E), .ource.S(.date=D,.clsPrice=P) ;
        ",
    )
    .unwrap();
    let a = q(&mut e, "?.dbI.q(.stk=S,.clsPrice=P)");
    r.check(
        "mapCE/mapOE unify discrepant stock codes",
        a.len() == 1 && a.column("S") == vec![Value::str("hp")],
        &format!("q = {a}"),
    );
}

/// E5 (§7.1): delStk / rmStk / insStk with full and partial bindings.
fn e5_update_programs(r: &mut Report) {
    println!("\n== E5: update programs (§7.1) ==");

    let make = || {
        let mut e = paper_engine();
        e.execute(idl::transparency::standard_update_programs()).unwrap();
        e
    };

    // delStk, fully bound
    let mut e = make();
    println!("    ?.dbU.delStk(.stk=hp, .date=3/3/85)");
    e.update("?.dbU.delStk(.stk=hp, .date=3/3/85)").unwrap();
    let euter_gone = !e.query("?.euter.r(.stkCode=hp,.date=3/3/85)").unwrap().is_true();
    let chwab_nulled = !e.query("?.chwab.r(.date=3/3/85,.hp=P)").unwrap().is_true();
    let ource_gone = !e.query("?.ource.hp(.date=3/3/85)").unwrap().is_true();
    let others_kept = e.query("?.euter.r(.stkCode=hp,.date=3/4/85)").unwrap().is_true();
    r.check(
        "delStk(hp, 3/3/85) translates per schema",
        euter_gone && chwab_nulled && ource_gone && others_kept,
        &format!("euter:{euter_gone} chwab:{chwab_nulled} ource:{ource_gone} rest:{others_kept}"),
    );

    // delStk with only the stock bound
    let mut e = make();
    println!("    ?.dbU.delStk(.stk=hp)");
    e.update("?.dbU.delStk(.stk=hp)").unwrap();
    let all_days = !e.query("?.euter.r(.stkCode=hp)").unwrap().is_true();
    let structure = e.query("?.ource.hp=R").unwrap().is_true(); // relation still exists
    r.check(
        "delStk(hp) deletes all days, keeps structure",
        all_days && structure,
        &format!("rows gone: {all_days}; ource.hp still a relation: {structure}"),
    );

    // rmStk removes data AND metadata
    let mut e = make();
    println!("    ?.dbU.rmStk(.stk=hp)");
    e.update("?.dbU.rmStk(.stk=hp)").unwrap();
    let euter_rows = !e.query("?.euter.r(.stkCode=hp)").unwrap().is_true();
    let chwab_attr = !e.query("?.chwab.r(.A=P), A = hp").unwrap().is_true();
    let ource_rel = !e.query("?.ource.hp").unwrap().is_true();
    r.check(
        "rmStk removes rows / attributes / relations respectively",
        euter_rows && chwab_attr && ource_rel,
        &format!("euter rows:{euter_rows} chwab attr:{chwab_attr} ource rel:{ource_rel}"),
    );

    // insStk requires all parameters (binding signature)
    let mut e = make();
    println!("    ?.dbU.insStk(.stk=dec, .date=3/3/85, .price=40)");
    e.update("?.dbU.insStk(.stk=dec, .date=3/3/85, .price=40)").unwrap();
    let visible = e.query("?.ource.dec(.clsPrice=40)").unwrap().is_true();
    println!("    ?.dbU.insStk(.stk=dec2, .date=3/3/85)   % missing .price");
    let err = e.update("?.dbU.insStk(.stk=dec2, .date=3/3/85)").unwrap_err();
    let rejected = err.to_string().contains("requires parameter");
    let untouched = !e.query("?.euter.r(.stkCode=dec2)").unwrap().is_true();
    r.check(
        "insStk inserts when fully bound, rejects under-bound calls",
        visible && rejected && untouched,
        &format!("insert ok:{visible}; rejection: \"{err}\"; no partial effect: {untouched}"),
    );
}

/// E6 (§7.2): updating through customized views via admin programs.
fn e6_view_updates(r: &mut Report) {
    println!("\n== E6: view updatability (§7.2) ==");
    let mut e = paper_engine();
    idl::transparency::install_two_level_mapping(&mut e).unwrap();

    // direct updates on derived objects are rejected
    println!("    ?.dbI.p+(.date=3/9/85,.stk=x,.clsPrice=1)   % no program for dbI.p+");
    let err = e.update("?.dbI.p+(.date=3/9/85,.stk=x,.clsPrice=1)").unwrap_err();
    r.check(
        "derived objects refuse direct +/-",
        err.to_string().contains("derived"),
        &format!("\"{err}\""),
    );

    // view insert through the registered program
    println!("    ?.dbE.r+(.date=3/9/85, .stkCode=dec, .clsPrice=44)");
    e.update("?.dbE.r+(.date=3/9/85, .stkCode=dec, .clsPrice=44)").unwrap();
    let base = e.query("?.euter.r(.stkCode=dec,.clsPrice=44)").unwrap().is_true();
    let view = e.query("?.dbE.r(.stkCode=dec,.clsPrice=44)").unwrap().is_true();
    let ho_view = e.query("?.dbO.dec(.clsPrice=44)").unwrap().is_true();
    r.check(
        "view insert is faithful: decree visible after recomputation",
        base && view && ho_view,
        &format!("base:{base} dbE:{view} dbO:{ho_view}"),
    );

    // view delete
    println!("    ?.dbE.r-(.date=3/9/85, .stkCode=dec)");
    e.update("?.dbE.r-(.date=3/9/85, .stkCode=dec)").unwrap();
    let gone = !e.query("?.dbE.r(.stkCode=dec, .clsPrice=44)").unwrap().is_true();
    r.check("view delete is faithful", gone, "dec's 3/9 row no longer in dbE");
}

/// E7 (Figure 1): the two-level mapping round trip.
fn e7_two_level_mapping(r: &mut Report) {
    println!("\n== E7: two-level mapping round trip (Figure 1) ==");
    let mut e = paper_engine();
    idl::transparency::install_two_level_mapping(&mut e).unwrap();

    // D_euter → U → D'_euter reproduces the source exactly
    let src = e.query("?.euter.r(.date=D,.stkCode=S,.clsPrice=P)").unwrap();
    let view = e.query("?.dbE.r(.date=D,.stkCode=S,.clsPrice=P)").unwrap();
    r.check("dbE ≡ euter on shared stocks", src == view, &format!("{} answers each", src.len()));

    // the chwab-shaped view carries the same facts
    let c = e.query("?.dbC.r(.date=3/5/85, .ibm=P)").unwrap();
    r.check(
        "dbC carries chwab-shaped rows",
        c.column("P") == vec![Value::float(210.0)],
        &format!("ibm on 3/5/85 = {:?}", c.column("P")),
    );

    // a stock present only in one base db appears in every customized view
    e.update("?.ource.newco+(.date=3/6/85, .clsPrice=9)").unwrap();
    let in_e = e.query("?.dbE.r(.stkCode=newco)").unwrap().is_true();
    let in_c = e.query("?.dbC.r(.newco=P)").unwrap().is_true();
    let in_o = e.query("?.dbO.newco(.clsPrice=9)").unwrap().is_true();
    r.check(
        "cross-schema propagation D_i → U → all D'_j",
        in_e && in_c && in_o,
        &format!("dbE:{in_e} dbC:{in_c} dbO:{in_o}"),
    );
}

/// E8 (§1–2): first-order inexpressibility demonstrator.
fn e8_inexpressibility(r: &mut Report) {
    println!("\n== E8: first-order inexpressibility (§1–§2) ==");
    let d = |s: &str| s.parse::<Date>().unwrap();
    let quotes =
        vec![(d("3/3/85"), "hp".to_string(), 50.0), (d("3/5/85"), "ibm".to_string(), 210.0)];

    // The IDL query is one fixed string for every schema and state:
    let idl_queries =
        ["?.euter.r(.stkCode=S, .clsPrice>200)", "?.chwab.r(.S>200)", "?.ource.S(.clsPrice>200)"];
    println!("    IDL: {}", idl_queries.join("  |  "));

    // The first-order programs for chwab/ource enumerate schema elements:
    let p_euter = fo_above_query(Schema::Euter, &quotes, 200.0);
    let p_chwab = fo_above_query(Schema::Chwab, &quotes, 200.0);
    let p_ource = fo_above_query(Schema::Ource, &quotes, 200.0);
    r.check(
        "FO euter program is state-independent",
        p_euter.hardcoded.is_empty() && p_euter.disjuncts.len() == 1,
        "1 disjunct, no hard-coded schema elements",
    );
    r.check(
        "FO chwab/ource programs hard-code the stocks",
        p_chwab.hardcoded.len() == 2 && p_ource.hardcoded.len() == 2,
        &format!(
            "chwab disjuncts: {}, ource disjuncts: {}",
            p_chwab.disjuncts.len(),
            p_ource.disjuncts.len()
        ),
    );

    // Add a stock: the stale FO program misses it; the IDL query does not.
    let mut quotes2 = quotes.clone();
    quotes2.push((d("3/6/85"), "sun".to_string(), 300.0));
    let db2 = encode(Schema::Ource, &quotes2);
    let stale_hits = run_above_binding(&db2, &p_ource);
    let fresh_hits = run_above_binding(&db2, &fo_above_query(Schema::Ource, &quotes2, 200.0));

    let mut e = Engine::with_stock_universe(vec![
        ("3/3/85", "hp", 50.0),
        ("3/5/85", "ibm", 210.0),
        ("3/6/85", "sun", 300.0),
    ]);
    let idl_hits = e.query("?.ource.S(.clsPrice>200)").unwrap();
    r.check(
        "stale FO program silently misses the new stock; IDL does not",
        !stale_hits.contains(&Value::str("sun"))
            && fresh_hits.contains(&Value::str("sun"))
            && idl_hits.column("S").contains(&Value::str("sun")),
        &format!(
            "stale FO: {stale_hits:?}; regenerated FO: {fresh_hits:?}; IDL: {:?}",
            idl_hits.column("S")
        ),
    );
}

/// E9: the paper's stated extensions (§2 "keys, types…", §8 sugar),
/// implemented and demonstrated.
fn e9_extensions(r: &mut Report) {
    use idl::{AttrDecl, RelationSchema, TypeTag};
    println!("\n== E9: extensions the paper calls for (§2, §8) ==");

    // declared schema metadata with rollback
    let mut e = paper_engine();
    e.declare_schema(
        "euter",
        "r",
        RelationSchema {
            key: vec![idl::Name::new("date"), idl::Name::new("stkCode")],
            attrs: [(idl::Name::new("clsPrice"), AttrDecl { ty: TypeTag::Number, nullable: true })]
                .into_iter()
                .collect(),
            foreign_keys: vec![],
        },
    )
    .unwrap();
    println!("    declare key(date, stkCode), clsPrice: number on euter.r");
    println!("    ?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=51)   % duplicate key");
    let err = e.update("?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=51)").unwrap_err();
    let intact = e.query("?.euter.r(.date=3/3/85,.stkCode=hp,.clsPrice=50)").unwrap().is_true();
    r.check(
        "key constraint rejects and rolls back",
        err.to_string().contains("duplicate key") && intact,
        &format!("\"{}...\"", &err.to_string()[..60.min(err.to_string().len())]),
    );

    // queryable sys catalog
    e.enable_sys_catalog().unwrap();
    let a = e.query("?.sys.keys(.db=D, .rel=R, .attr=A)").unwrap();
    r.check(
        "sys catalog exposes declared keys to higher-order queries",
        a.len() == 2,
        &format!("{a}"),
    );

    // SQL sugar with a higher-order table name
    println!("    SELECT S, clsPrice FROM ource.S WHERE clsPrice > 200");
    let o = e.execute_sql("SELECT S, clsPrice FROM ource.S WHERE clsPrice > 200").unwrap();
    r.check(
        "SQL sugar supports metadata querying",
        o.answers().map(|a| a.column("S")) == Some(vec![Value::str("ibm")]),
        &format!("{o}"),
    );
}
