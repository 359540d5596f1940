//! [`Session`] — the operation-log file handle.
//!
//! One handle owning the log file's lifecycle:
//!
//! * **open** — scan the existing log ([`crate::oplog`]; a log in another
//!   format is an error), truncate a torn tail, lay the header down again
//!   after a torn create, or create a fresh log;
//! * **append** — frame a group of records, append them in one write,
//!   and (under sync) fsync them before the caller acknowledges them;
//! * **rotate** — reset to an empty log after a checkpoint;
//! * **repair_truncate** — drop a partial append back to the last
//!   acknowledged prefix (the caller then poisons itself).
//!
//! The session tracks the acknowledged byte length and the last appended
//! LSN; replay policy (which records to skip, gap detection) stays with
//! the engine, which sees the scanned records via [`SessionOpen`].

use crate::error::StorageResult;
use crate::oplog::{self, Record};
use crate::persist::{io_err, write_atomic};
use crate::vfs::Vfs;
use std::path::PathBuf;
use std::sync::Arc;

/// What [`Session::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct SessionOpen {
    /// Valid records, in log order.
    pub records: Vec<Record>,
    /// Torn-tail (or torn-header) bytes truncated.
    pub torn_bytes_truncated: u64,
}

/// An open handle on one operation-log file (see module docs).
pub struct Session {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    sync: bool,
    lsn: u64,
    /// Acknowledged byte length — the truncation point after a failed
    /// append.
    bytes: u64,
}

impl Session {
    /// Opens (or creates) the log at `path`. The session's LSN starts at
    /// the last record's, or at `base_lsn` (what the checkpoint covers)
    /// when that is larger.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        path: PathBuf,
        sync: bool,
        base_lsn: u64,
    ) -> StorageResult<(Session, SessionOpen)> {
        let mut info = SessionOpen::default();
        let bytes_len;
        if vfs.exists(&path) {
            let bytes = vfs.read(&path).map_err(|e| io_err("read log", e))?;
            let recovered = oplog::decode_log(&bytes)?;
            info.torn_bytes_truncated = recovered.torn_bytes;
            if recovered.valid_len == 0 {
                // the header itself was torn — lay it down again
                write_atomic(vfs.as_ref(), &path, &oplog::header_bytes(), sync)?;
                bytes_len = oplog::HEADER_LEN;
            } else {
                if recovered.torn_bytes > 0 {
                    vfs.set_len(&path, recovered.valid_len)
                        .map_err(|e| io_err("truncate torn log tail", e))?;
                }
                bytes_len = recovered.valid_len;
            }
            info.records = recovered.records;
        } else {
            let fresh = oplog::header_bytes();
            vfs.write(&path, &fresh).map_err(|e| io_err("create log", e))?;
            if sync {
                vfs.sync_file(&path).map_err(|e| io_err("sync fresh log", e))?;
                if let Some(dir) = path.parent() {
                    vfs.sync_dir(dir).map_err(|e| io_err("sync log dir", e))?;
                }
            }
            bytes_len = fresh.len() as u64;
        }
        let lsn = info.records.last().map(|r| r.lsn).max(Some(base_lsn)).unwrap_or(base_lsn);
        Ok((Session { vfs, path, sync, lsn, bytes: bytes_len }, info))
    }

    /// LSN of the last appended (or scanned) record.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Acknowledged log length in bytes.
    pub fn acked_bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends `stmts` as consecutive records in **one** write plus
    /// (under sync) one fsync — a single update is a group of one. On
    /// success the session LSN advances past them and the byte count of
    /// the append is returned. No record is acknowledged before the whole
    /// group is durable; on error none are: call
    /// [`Session::repair_truncate`] and stop using the log.
    pub fn append(&mut self, stmts: &[String]) -> StorageResult<u64> {
        let mut buf = Vec::new();
        for (i, stmt) in stmts.iter().enumerate() {
            buf.extend_from_slice(&oplog::encode_record(self.lsn + 1 + i as u64, stmt));
        }
        self.vfs.append(&self.path, &buf).map_err(|e| io_err("append log", e))?;
        if self.sync {
            self.vfs.sync_file(&self.path).map_err(|e| io_err("sync log", e))?;
        }
        self.lsn += stmts.len() as u64;
        self.bytes += buf.len() as u64;
        Ok(buf.len() as u64)
    }

    /// Rotates the log empty (after a checkpoint made its records
    /// redundant).
    pub fn rotate(&mut self) -> StorageResult<()> {
        let fresh = oplog::header_bytes();
        write_atomic(self.vfs.as_ref(), &self.path, &fresh, self.sync)?;
        self.bytes = fresh.len() as u64;
        Ok(())
    }

    /// Best-effort truncation back to the acknowledged prefix after a
    /// failed append, so future readers never see the partial record.
    pub fn repair_truncate(&self) {
        let _ = self.vfs.set_len(&self.path, self.bytes);
    }

    /// Number of records currently in the log (diagnostics).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> StorageResult<usize> {
        if !self.vfs.exists(&self.path) {
            return Ok(0);
        }
        let bytes = self.vfs.read(&self.path).map_err(|e| io_err("read log", e))?;
        Ok(oplog::decode_log(&bytes)?.records.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultPlan, SimVfs};
    use std::path::Path;

    fn open(vfs: &Arc<SimVfs>, base_lsn: u64) -> (Session, SessionOpen) {
        vfs.create_dir_all(Path::new("/d")).unwrap();
        Session::open(Arc::clone(vfs) as Arc<dyn Vfs>, PathBuf::from("/d/ops.idl"), true, base_lsn)
            .unwrap()
    }

    #[test]
    fn fresh_append_reopen_rotate() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(1)));
        let (mut s, info) = open(&vfs, 0);
        assert!(info.records.is_empty());
        s.append(&["?.db.r+(.a=1)".into()]).unwrap();
        s.append(&["?.db.r+(.a=2)".into()]).unwrap();
        assert_eq!(s.lsn(), 2);
        assert_eq!(s.len().unwrap(), 2);

        let (mut s, info) = open(&vfs, 0);
        assert_eq!(info.records.len(), 2);
        assert_eq!(s.lsn(), 2);
        s.rotate().unwrap();
        assert_eq!(s.len().unwrap(), 0);
        assert_eq!(s.lsn(), 2, "rotation never rewinds the LSN");
        s.append(&["?.db.r+(.a=3)".into()]).unwrap();
        let (_, info) = open(&vfs, 0);
        assert_eq!(info.records.len(), 1);
        assert_eq!(info.records[0].lsn, 3);
    }

    #[test]
    fn group_append_is_one_write_one_sync() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(2)));
        let (mut s, _) = open(&vfs, 0);
        let before = vfs.stats();
        let recs: Vec<String> = (0..4).map(|i| format!("?.db.r+(.a={i})")).collect();
        s.append(&recs).unwrap();
        let after = vfs.stats();
        assert_eq!(after.appends - before.appends, 1);
        assert_eq!(after.file_syncs - before.file_syncs, 1);
        assert_eq!(s.lsn(), 4);
        let (_, info) = open(&vfs, 0);
        assert_eq!(info.records.len(), 4);
        assert_eq!(info.records[3].lsn, 4);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(4)));
        let (mut s, _) = open(&vfs, 0);
        s.append(&["?.db.r+(.a=1)".into()]).unwrap();
        let full = vfs.read(Path::new("/d/ops.idl")).unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&[0x55; 7]); // half a record header
        vfs.write(Path::new("/d/ops.idl"), &torn).unwrap();
        let (s, info) = open(&vfs, 0);
        assert_eq!(info.torn_bytes_truncated, 7);
        assert_eq!(info.records.len(), 1);
        assert_eq!(s.acked_bytes(), full.len() as u64);
        assert_eq!(vfs.read(Path::new("/d/ops.idl")).unwrap(), full);
    }

    #[test]
    fn failed_append_leaves_state_unacknowledged() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(5)));
        let (mut s, _) = open(&vfs, 0);
        s.append(&["?.db.r+(.a=1)".into()]).unwrap();
        let acked = s.acked_bytes();
        // simulate a partial append scribbled past the acked prefix,
        // then repair back to it
        vfs.append(Path::new("/d/ops.idl"), &[0xAB; 5]).unwrap();
        s.repair_truncate();
        assert_eq!(vfs.file_len(Path::new("/d/ops.idl")).unwrap(), acked);
        assert_eq!(s.lsn(), 1);
        let (_, info) = open(&vfs, 0);
        assert_eq!(info.records.len(), 1);
    }
}
