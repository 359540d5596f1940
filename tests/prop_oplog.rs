//! Fail-closed property of the operation-log reader (DESIGN.md "Crash
//! safety and the simulated VFS").
//!
//! `oplog::decode_log` is the one reader of `ops.idl`. Fed arbitrary
//! bytes, every truncation of a valid multi-record log, or that log with
//! one byte flipped, it must never panic, and an `Ok` must hold a prefix
//! of the records written, with the valid prefix and the torn tail
//! adding up to the input. A durable open over the same bytes either
//! refuses the directory untouched (a header this build does not write)
//! or opens, replaying exactly the decoded records — and a second open
//! replays the same records again. A failing case reports its seed.

use idl::{DurabilityOptions, Engine, EngineError, FaultPlan, SimVfs, Vfs};
use idl_repro as _;
use idl_storage::oplog::{self, Record};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

fn open(vfs: &Arc<SimVfs>) -> Result<Engine, EngineError> {
    let v: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
    Engine::open_with_vfs("/d", v, DurabilityOptions::default(), |_| Ok(()))
}

/// Checks `decode_log` on `bytes` against the records they were cut or
/// flipped from (`written`; empty for arbitrary bytes).
fn check_decode(bytes: &[u8], written: &[Record]) -> Result<(), TestCaseError> {
    if let Ok(log) = oplog::decode_log(bytes) {
        prop_assert_eq!(log.valid_len + log.torn_bytes, bytes.len() as u64);
        prop_assert!(log.records.len() <= written.len(), "{} records decoded", log.records.len());
        prop_assert_eq!(&log.records[..], &written[..log.records.len()]);
    }
    Ok(())
}

/// Opens a directory whose `ops.idl` holds `bytes`: a refusal leaves it
/// unchanged, an open replays the decoded records, and so does the next.
fn check_open(seed: u64, bytes: &[u8]) -> Result<(), TestCaseError> {
    let vfs = Arc::new(SimVfs::new(FaultPlan::none(seed)));
    vfs.create_dir_all(Path::new("/d")).unwrap();
    vfs.write(Path::new("/d/ops.idl"), bytes).unwrap();
    let decoded = oplog::decode_log(bytes);
    let before = vfs.dump();
    let first = match open(&vfs) {
        Err(e) => {
            prop_assert!(decoded.is_err(), "a readable log was refused: {e}");
            prop_assert!(e.to_string().contains("4a1333f"), "{e}");
            prop_assert!(vfs.dump() == before, "a refused open changed a file");
            return Ok(());
        }
        Ok(d) => d,
    };
    let Ok(decoded) = decoded else { return Err(TestCaseError::fail("an unreadable log opened")) };
    let replayed = first.durability_stats().records_recovered;
    prop_assert_eq!(replayed, decoded.records.len() as u64);
    let universe = first.universe_json().unwrap();
    drop(first);
    let second = open(&vfs).map_err(|e| TestCaseError::fail(format!("reopen failed: {e}")))?;
    prop_assert_eq!(second.durability_stats().records_recovered, replayed);
    prop_assert_eq!(second.durability_stats().torn_bytes_truncated, 0);
    prop_assert_eq!(second.universe_json().unwrap(), universe);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_log_reader_fails_closed(
        seed in any::<u64>(),
        junk in vec(any::<u8>(), 0..48),
        n in 2u64..6,
        cut in any::<u64>(),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let stmt = |lsn| format!("?.db.r+(.a={lsn}, .s={})", seed % 1000);
        let written: Vec<Record> = (1..=n).map(|lsn| Record { lsn, stmt: stmt(lsn) }).collect();
        let log = oplog::encode_log(written.iter().map(|r| (r.lsn, r.stmt.as_str())));

        check_decode(&junk, &[])?;
        check_decode(&[oplog::header_bytes(), junk.clone()].concat(), &[])?;
        for len in 0..=log.len() {
            check_decode(&log[..len], &written)?;
        }
        let flipped = |i: usize| {
            let mut bad = log.clone();
            bad[i] ^= flip;
            bad
        };
        for i in 0..log.len() {
            check_decode(&flipped(i), &written)?;
        }

        check_open(seed, &junk)?;
        check_open(seed, &log[..(cut % (log.len() as u64 + 1)) as usize])?;
        check_open(seed, &flipped((at % log.len() as u64) as usize))?;
    }
}
