//! Cross-crate integration: parse → evaluate → store → persist, driven
//! through the public `idl::Engine` API the way an embedding application
//! would use it.

use idl::{Engine, EngineError, Value};
use idl_repro as _;
use idl_workload::stock::{generate, StockConfig};

#[test]
fn full_script_lifecycle() {
    // One source text carrying data loading, view definitions, programs,
    // and queries — executed in order.
    let mut e = Engine::new();
    let outcomes = e
        .execute(
            "
            % load a little base data
            ?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=50) ;
            ?.euter.r+(.date=3/4/85,.stkCode=hp,.clsPrice=62) ;
            ?.euter.r+(.date=3/3/85,.stkCode=ibm,.clsPrice=160) ;

            % a view and a program
            .dbI.p(.date=D,.stk=S,.clsPrice=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P) ;
            .dbU.del(.stk=S) -> .euter.r-(.stkCode=S) ;

            % use both
            ?.dbI.p(.stk=S, .clsPrice>100) ;
            ?.dbU.del(.stk=ibm) ;
            ?.dbI.p(.stk=S, .clsPrice>100) ;
            ",
        )
        .unwrap();
    assert_eq!(outcomes.len(), 8);
    assert_eq!(
        outcomes[5].answers().unwrap().column("S"),
        vec![Value::str("ibm")],
        "view sees the loaded data"
    );
    assert!(
        outcomes[7].answers().unwrap().is_empty(),
        "after del(ibm) the view reflects the change"
    );
}

#[test]
fn snapshot_persistence_with_views_reinstalled() {
    let dir = std::env::temp_dir().join("idl-integration-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("universe.json");

    let mut e = Engine::from_universe(generate(&StockConfig::sized(4, 6)).universe).unwrap();
    idl::transparency::install_two_level_mapping(&mut e).unwrap();
    let before = e.query("?.dbI.p(.stk=S,.date=D,.clsPrice=P)").unwrap();
    e.save_snapshot(&path).unwrap();

    // Snapshots carry the universe (including materialised views at save
    // time); rules and programs are code and get reinstalled.
    let mut e2 = Engine::load_snapshot(&path).unwrap();
    idl::transparency::install_two_level_mapping(&mut e2).unwrap();
    let after = e2.query("?.dbI.p(.stk=S,.date=D,.clsPrice=P)").unwrap();
    assert_eq!(before, after);
    std::fs::remove_file(&path).ok();
}

#[test]
fn request_atomicity_spans_program_calls() {
    let mut e = Engine::with_stock_universe(vec![("3/3/85", "hp", 50.0)]);
    e.execute(idl::transparency::standard_update_programs()).unwrap();
    // First item inserts via program; second item fails its signature
    // check; the whole request must roll back.
    let err =
        e.update("?.dbU.insStk(.stk=a,.date=3/4/85,.price=1), .dbU.insStk(.stk=b)").unwrap_err();
    assert!(matches!(err, EngineError::Eval(_)));
    assert!(!e.query("?.euter.r(.stkCode=a)").unwrap().is_true(), "rolled back");
}

#[test]
fn view_refresh_is_incremental_wrt_journal() {
    let mut e = Engine::with_stock_universe(vec![("3/3/85", "hp", 50.0)]);
    e.add_rules(".dbI.p(.stk=S) <- .euter.r(.stkCode=S) ;").unwrap();
    e.query("?.dbI.p(.stk=S)").unwrap();
    let v1 = e.store().version();
    // queries do not re-materialise
    e.query("?.dbI.p(.stk=S)").unwrap();
    e.query("?.euter.r(.stkCode=S)").unwrap();
    assert_eq!(e.store().version(), v1);
    // an update does
    e.update("?.euter.r+(.date=3/4/85,.stkCode=ibm,.clsPrice=1)").unwrap();
    e.query("?.dbI.p(.stk=ibm)").unwrap();
    assert!(e.store().version() > v1);
}

#[test]
fn views_and_base_share_a_database() {
    // §2's empMgr lives in the same database as its base relations; the
    // derived catalog must protect exactly the view relation.
    let mut e = Engine::from_store(idl_workload::empdept::generate_store(
        &idl_workload::empdept::EmpDeptConfig { employees: 10, departments: 2, seed: 3 },
    ));
    e.add_rules(idl_workload::empdept::emp_mgr_rule()).unwrap();

    // the view answers
    assert!(e.query("?.hr.empMgr(.name=emp0001, .mgr=M)").unwrap().is_true());
    // base updates still allowed
    e.update("?.hr.emp+(.name=emp9999, .dno=0)").unwrap();
    assert!(e.query("?.hr.empMgr(.name=emp9999, .mgr=M)").unwrap().is_true());
    // view updates rejected
    let err = e.update("?.hr.empMgr+(.name=x, .mgr=y)").unwrap_err();
    assert!(matches!(err, EngineError::Eval(idl_eval::EvalError::UpdateOnDerived(_))));
}

#[test]
fn analyze_matches_runtime_behaviour() {
    let e = Engine::with_stock_universe(vec![("3/3/85", "hp", 50.0)]);
    // what the analyzer flags, the runtime rejects; what it passes, runs
    let flagged = e.analyze("?.euter.r(.clsPrice>P)").unwrap();
    assert!(!flagged.is_empty());
    let clean = e.analyze("?.euter.r(.clsPrice=P), .euter.r(.clsPrice>P)").unwrap();
    assert!(clean.is_empty());

    let mut e = e;
    assert!(e.query("?.euter.r(.clsPrice>P)").is_err());
    assert!(e.query("?.euter.r(.clsPrice=P), .euter.r(.clsPrice>P)").is_ok());
}

#[test]
fn engine_options_toggle_evaluator_modes() {
    use idl::EngineOptions;
    let quotes = generate(&StockConfig::sized(6, 10));
    let build = |opts: EngineOptions| {
        let mut e = Engine::from_universe(quotes.universe.clone()).unwrap();
        e.set_options(opts);
        e
    };
    let q = "?.euter.r(.stkCode=stk002, .clsPrice>0, .date=D)";
    let mut fast = build(EngineOptions::default());
    let mut naive =
        build(EngineOptions { eval: idl::EvalOptions::naive(), ..EngineOptions::default() });
    assert_eq!(fast.query(q).unwrap(), naive.query(q).unwrap());
}

#[test]
fn error_messages_name_the_problem() {
    let mut e = Engine::new();
    let err = e.execute("?.euter.r(.a=").unwrap_err();
    assert!(err.to_string().contains("expected a term"), "{err}");
    let err = e.update("?.nodb.r+(.a=Q)").unwrap_err();
    assert!(err.to_string().contains('Q'), "{err}");
}

// ---------------------------------------------------------------------
// Durable-engine recovery edges (checkpoint + op log through the public
// `Engine` API; the crash battery proper is tests/crash_recovery.rs).
// ---------------------------------------------------------------------

mod recovery_edges {
    use idl::{Backend, Engine, EngineError, EngineOptions};
    use idl_storage::oplog;
    use idl_storage::{CommitSeal, PagedStorage, RealVfs, Store, Vfs};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    /// Buffer pool of every leg: small enough that eviction runs inside
    /// the tests.
    const POOL: usize = 16;

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("idl-recovery-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open_with(dir: &Path, setup: impl FnOnce(&mut Engine) -> Result<(), EngineError>) -> Engine {
        let opts = EngineOptions::builder().pool_pages(POOL).durability();
        Engine::open_with_vfs(dir, Arc::new(RealVfs::new()), opts, setup).unwrap()
    }

    fn open(dir: &Path) -> Engine {
        open_with(dir, |_| Ok(()))
    }

    #[test]
    fn a_write_sent_through_query_is_refused_and_never_applied() {
        let dir = fresh_dir("query-write");
        let programs = |e: &mut Engine| e.execute(".dbU.put(.k=K) -> .db.r+(.a=K) ;").map(|_| ());
        let mut d = open_with(&dir, programs);
        d.update("?.db.r+(.a=0)").unwrap();
        let before = d.universe_json().unwrap();
        for write in ["?.db.r+(.a=1)", "?.db.r-(.a=0)", "?.db.r(.a=A), .dbU.put(.k=2)"] {
            let err = Backend::query(&mut d, write).unwrap_err();
            assert_eq!(err.code(), "E-USAGE", "{write}: {err}");
            assert_eq!(d.query(write).unwrap_err().code(), "E-USAGE", "{write}");
        }
        assert_eq!(d.universe_json().unwrap(), before, "a refused query wrote");
        assert_eq!(d.log_len().unwrap(), 1, "a refused query was logged");
        drop(d);
        let d = open_with(&dir, programs);
        assert_eq!(d.universe_json().unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncating_the_journal_between_checkpoints_recovers_byte_identical() {
        // Reads between checkpoints truncate the store journal up to the
        // last checkpoint; the next in-place checkpoint still records
        // every change since it.
        let dir = fresh_dir("truncate");
        let views = |e: &mut Engine| e.execute(".v.all(.a=A) <- .db.r(.a=A) ;").map(|_| ());
        let mut reference = Engine::new();
        views(&mut reference).unwrap();
        let mut d = open_with(&dir, views);
        for i in 0..41 {
            let sign = if i % 3 == 2 { '-' } else { '+' };
            let update = format!("?.db.r{sign}(.a={}), .db.s+(.b={})", i / 3, i / 10);
            d.update(&update).unwrap();
            reference.update(&update).unwrap();
            d.query("?.v.all(.a=A)").unwrap();
            if i % 10 == 9 {
                d.checkpoint().unwrap();
            }
        }
        assert!(d.store().journal_len() < 10, "the journal was never truncated");
        assert!(d.durability_stats().delta_checkpoints >= 3, "{:?}", d.durability_stats());
        drop(d);
        let mut d = open_with(&dir, views);
        d.snapshot().unwrap();
        reference.snapshot().unwrap();
        assert_eq!(d.universe_json().unwrap(), reference.universe_json().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_log_file_opens_cleanly() {
        let dir = fresh_dir("empty-log");
        std::fs::write(dir.join("ops.idl"), b"").unwrap();
        let mut d = open(&dir);
        assert_eq!(d.log_len().unwrap(), 0);
        assert_eq!(d.durability_stats().records_recovered, 0);
        d.update("?.db.r+(.a=1)").unwrap();
        assert_eq!(d.log_len().unwrap(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_only_recovery_without_a_snapshot() {
        let dir = fresh_dir("log-only");
        {
            let mut d = open(&dir);
            d.update("?.db.r+(.a=1)").unwrap();
            d.update("?.db.r+(.a=2)").unwrap();
        }
        assert!(!dir.join("pages.idb").exists(), "no checkpoint ran");
        let mut d = open(&dir);
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_only_recovery_without_a_log() {
        let dir = fresh_dir("snap-only");
        {
            let mut d = open(&dir);
            d.update("?.db.r+(.a=1)").unwrap();
            d.checkpoint().unwrap();
        }
        std::fs::remove_file(dir.join("ops.idl")).unwrap();
        let mut d = open(&dir);
        assert!(d.query("?.db.r(.a=1)").unwrap().is_true());
        d.update("?.db.r+(.a=2)").unwrap();
        assert_eq!(d.log_len().unwrap(), 1, "a fresh log accepts appends");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_lsns_replay_at_most_once() {
        // A non-idempotent program call duplicated in the log (the
        // crash-mid-rewrite shape): LSNs bound replay to once each.
        let stmts = [
            (1u64, "?.dbU.bump(.k = a)"),
            (1u64, "?.dbU.bump(.k = a)"), // duplicated record
            (2u64, "?.dbU.bump(.k = b)"),
        ];
        let dir = fresh_dir("dup-lsn");
        std::fs::write(dir.join("ops.idl"), oplog::encode_log(stmts)).unwrap();
        let mut d =
            open_with(&dir, |e| e.execute(".dbU.bump(.k=K) -> .db.hits+(.k=K) ;").map(|_| ()));
        let stats = d.durability_stats();
        assert_eq!(stats.records_recovered, 2);
        assert_eq!(stats.records_skipped, 1);
        assert_eq!(d.query("?.db.hits(.k=K)").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_lsn_skips_covered_records() {
        // A checkpoint at LSN 2 plus a stale pre-rotation log with LSNs
        // 1..3: only record 3 replays (the crash-between-commit-and-
        // rotation window).
        let dir = fresh_dir("covered");
        let mut covered = Store::new();
        covered
            .insert("db", "r", idl_object::tuple! { a: 1i64 })
            .and_then(|_| covered.insert("db", "r", idl_object::tuple! { a: 2i64 }))
            .unwrap();
        let vfs: Arc<dyn Vfs> = Arc::new(RealVfs::new());
        let mut storage = PagedStorage::new(vfs, &dir, POOL);
        storage.recover().unwrap();
        storage
            .apply_full(&covered, &CommitSeal { lsn: 2, maintenance: None, sync: true })
            .unwrap();
        let stale =
            [(1u64, "?.db.r+(.a = 1)"), (2u64, "?.db.r+(.a = 2)"), (3u64, "?.db.r+(.a = 3)")];
        std::fs::write(dir.join("ops.idl"), oplog::encode_log(stale)).unwrap();
        let mut d = open(&dir);
        let stats = d.durability_stats();
        assert_eq!(stats.records_skipped, 2);
        assert_eq!(stats.records_recovered, 1);
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 3);
        assert_eq!(d.last_lsn(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paper_update_programs_recover_through_open() {
        // §5 direct decrees and §7 update programs logged as calls,
        // replayed through `open_with` with the mapping reinstalled.
        let setup = |e: &mut Engine| idl::transparency::install_two_level_mapping(e);
        let dir = fresh_dir("paper-programs");
        {
            let mut d = open_with(&dir, setup);
            d.update("?.euter.r+(.date=3/3/85, .stkCode=hp, .clsPrice=50)").unwrap();
            d.update("?.dbU.insStk(.stk=sun, .date=3/6/85, .price=30)").unwrap();
            d.update("?.dbE.r+(.date=3/7/85, .stkCode=newco, .clsPrice=9)").unwrap();
            d.update("?.dbU.delStk(.stk=hp, .date=3/3/85)").unwrap();
        }
        let mut d = open_with(&dir, setup);
        assert!(d.query("?.euter.r(.stkCode=sun)").unwrap().is_true());
        assert!(d.query("?.ource.sun(.clsPrice=30)").unwrap().is_true());
        assert!(d.query("?.dbE.r(.stkCode=newco)").unwrap().is_true());
        assert!(!d.query("?.euter.r(.stkCode=hp)").unwrap().is_true());
        std::fs::remove_dir_all(&dir).ok();
    }
}
