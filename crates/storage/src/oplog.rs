//! Operation-log record framing.
//!
//! The durable engine's `ops.idl` is a checksummed binary log in format 4,
//! the only format this build reads or writes:
//!
//! ```text
//! header:  "IDLOPLG2"  version:u32le=4  codec:u32le=1     (16 bytes)
//! record:  len:u32le  crc:u32le  lsn:u64le  flags:u8  payload[len-9]
//! ```
//!
//! * the `codec` header field records that the directory's checkpoints
//!   are binary; it is written as 1 and not read;
//! * `len` counts the LSN, flags and payload, so a record occupies
//!   `8 + len` bytes on disk;
//! * `flags` is a byte written as 0 and ignored on replay (older builds
//!   set it), so every format-4 log replays;
//! * `crc` is CRC-32C over the body (everything after itself);
//! * `lsn` is a log sequence number, strictly increasing across the log's
//!   lifetime (checkpoints included) — the page file records the LSN it
//!   covers, so replay after a crash mid-checkpoint skips exactly the
//!   records the checkpoint already contains, and duplicated records are
//!   replayed at most once;
//! * the payload is one request statement in canonical IDL surface
//!   syntax, UTF-8.
//!
//! [`decode_log`] is the recovery-side reader: it stops at the first
//! torn or checksum-failing record and reports the byte length of the
//! valid prefix, so the caller can truncate the tail instead of failing
//! recovery or replaying garbage. An empty file or a prefix of the header
//! is a torn create: an empty log that needs its header laid down again.
//! Any other file — a line-per-statement log, a format-2 or -3 log, a
//! newer format — is an error: older formats are refused, never migrated
//! (see [`crate::engine`]).

use crate::crc::crc32c;
use crate::error::{StorageError, StorageResult};

/// The log's file name inside a durable directory.
pub const LOG_FILE: &str = "ops.idl";

/// Magic bytes opening a framed log.
pub const MAGIC: &[u8; 8] = b"IDLOPLG2";

/// The framing format version, the only one this build reads.
pub const FORMAT_VERSION: u32 = 4;

/// The header's `codec` field: checkpoints are binary.
const CODEC_BINARY: u32 = 1;

/// Bytes occupied by the file header.
pub const HEADER_LEN: u64 = 16;

/// Header bytes that must match exactly (magic and version; the codec
/// field after them is not read).
const CHECKED_HEADER: usize = 12;

/// Per-record header bytes (`len` + `crc`).
const RECORD_HEADER: usize = 8;

/// The format this build writes logs in. It has one variant because
/// `DurabilityOptions::format` and the benchmark package name it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LogFormat {
    /// Length-prefixed, CRC-32C-checksummed, LSN-stamped records.
    Framed,
}

/// One decoded log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Record {
    /// Log sequence number.
    pub lsn: u64,
    /// Canonical statement text.
    pub stmt: String,
}

/// The result of scanning a log file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveredLog {
    /// Valid records, in log order.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix (0 when the header itself is torn).
    pub valid_len: u64,
    /// Bytes past the valid prefix that must be truncated (torn tail).
    pub torn_bytes: u64,
}

/// Durability counters kept by the durable engine (diagnostics and the
/// B13 ablation bench).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Records appended since open.
    pub records_appended: u64,
    /// Log bytes appended since open.
    pub bytes_appended: u64,
    /// Log fsyncs issued since open.
    pub log_syncs: u64,
    /// Records replayed at the last open.
    pub records_recovered: u64,
    /// Records skipped at the last open because the snapshot (or an
    /// earlier duplicate) already covered their LSN.
    pub records_skipped: u64,
    /// Torn-tail bytes truncated at the last open.
    pub torn_bytes_truncated: u64,
    /// Stale snapshot temp files removed at the last open.
    pub stale_temps_removed: u64,
    /// Whether the last open adopted persisted maintenance state from
    /// the page file (the first read then repairs the replayed updates
    /// instead of rebuilding).
    pub maintenance_state_adopted: bool,
    /// Coalesced write groups committed since open (each group is one
    /// log append plus one fsync covering every record in it).
    pub group_commits: u64,
    /// Records committed through coalesced groups since open. The
    /// fsyncs saved by batching is `group_commit_records - group_commits`.
    pub group_commit_records: u64,
    /// Incremental (in-place) checkpoints written since open.
    pub delta_checkpoints: u64,
    /// Full-rewrite checkpoints written since open.
    pub full_checkpoints: u64,
    /// Length of the delta chain recovery replays: always 0, since the
    /// page file has none. Kept because the benchmark package reports it.
    pub chain_len: u64,
    /// Page-file bytes written by checkpoints since open.
    pub snapshot_bytes_written: u64,
    /// Buffer-pool counters (always present; an `Option` because the
    /// benchmark package reads it as one).
    pub pool: Option<crate::buffer_pool::BufferPoolStats>,
    /// Page-file size in pages.
    pub storage_pages: u64,
}

/// The 16-byte file header of a fresh log.
pub fn header_bytes() -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN as usize);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&CODEC_BINARY.to_le_bytes());
    out
}

/// Whether `bytes`, a log file or its first bytes, opens with this
/// build's header or is a torn prefix of it (empty included).
pub fn is_current_header(bytes: &[u8]) -> bool {
    let n = bytes.len().min(CHECKED_HEADER);
    bytes[..n] == header_bytes()[..n]
}

/// Encodes one record (`len | crc | lsn | flags=0 | payload`).
pub fn encode_record(lsn: u64, stmt: &str) -> Vec<u8> {
    let payload = stmt.as_bytes();
    let mut body = Vec::with_capacity(9 + payload.len());
    body.extend_from_slice(&lsn.to_le_bytes());
    body.push(0);
    body.extend_from_slice(payload);
    let mut out = Vec::with_capacity(RECORD_HEADER + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32c(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Encodes a whole log file (header plus records).
pub fn encode_log<'a>(records: impl IntoIterator<Item = (u64, &'a str)>) -> Vec<u8> {
    let mut out = header_bytes();
    for (lsn, stmt) in records {
        out.extend_from_slice(&encode_record(lsn, stmt));
    }
    out
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Scans a log file's bytes.
///
/// Torn tails (a truncated record or a checksum mismatch) terminate the
/// scan *successfully*: the valid prefix is returned together with how
/// many tail bytes to truncate, and a torn header reads as an empty log
/// with a valid prefix of 0. A file that does not open with this build's
/// header is an error.
pub fn decode_log(bytes: &[u8]) -> StorageResult<RecoveredLog> {
    if !is_current_header(bytes) {
        return Err(StorageError::Persist(format!(
            "{LOG_FILE} is not a format-{FORMAT_VERSION} operation log"
        )));
    }
    let header = HEADER_LEN as usize;
    if bytes.len() < header {
        // a torn create: an empty log whose header must be laid down again
        let torn_bytes = bytes.len() as u64;
        return Ok(RecoveredLog { records: Vec::new(), valid_len: 0, torn_bytes });
    }
    let mut records = Vec::new();
    let mut at = header;
    loop {
        if at + RECORD_HEADER > bytes.len() {
            break; // torn record header (or clean EOF)
        }
        let len = read_u32(bytes, at) as usize;
        let crc = read_u32(bytes, at + 4);
        if len < 9 || at + RECORD_HEADER + len > bytes.len() {
            break; // impossible length or torn body
        }
        let body = &bytes[at + RECORD_HEADER..at + RECORD_HEADER + len];
        if crc32c(body) != crc {
            break; // bit rot or torn rewrite
        }
        let lsn = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
        // body[8] is the flags byte, ignored
        let Ok(stmt) = std::str::from_utf8(&body[9..]) else {
            break; // checksummed garbage cannot happen, but stay safe
        };
        records.push(Record { lsn, stmt: stmt.trim().to_string() });
        at += RECORD_HEADER + len;
    }
    Ok(RecoveredLog { records, valid_len: at as u64, torn_bytes: (bytes.len() - at) as u64 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framed_round_trip() {
        let stmts = ["?.db.r+(.a=1)", "?.db.r-(.a=1)", "?.dbU.ins(.k=x)"];
        let bytes = encode_log(stmts.iter().enumerate().map(|(i, s)| (i as u64 + 1, *s)));
        let log = decode_log(&bytes).unwrap();
        assert_eq!(log.torn_bytes, 0);
        assert_eq!(log.valid_len, bytes.len() as u64);
        assert_eq!(log.records.len(), 3);
        for (i, rec) in log.records.iter().enumerate() {
            assert_eq!(rec.lsn, i as u64 + 1);
            assert_eq!(rec.stmt, stmts[i]);
        }
    }

    #[test]
    fn flags_round_trip() {
        // older builds set the flags byte; it is ignored on replay
        let mut flagged = encode_record(2, "?.db.r+(.a=2)");
        flagged[RECORD_HEADER + 8] = 1;
        let crc = crc32c(&flagged[RECORD_HEADER..]);
        flagged[4..8].copy_from_slice(&crc.to_le_bytes());
        let mut bytes = encode_log([(1, "?.db.r+(.a=1)")]);
        bytes.extend_from_slice(&flagged);
        let log = decode_log(&bytes).unwrap();
        assert_eq!(log.torn_bytes, 0);
        assert_eq!(log.records[1], Record { lsn: 2, stmt: "?.db.r+(.a=2)".into() });
    }

    #[test]
    fn torn_tail_truncates_not_fails() {
        let bytes = encode_log([(1, "?.db.r+(.a=1)"), (2, "?.db.r+(.a=2)")]);
        let first_end = header_bytes().len() + RECORD_HEADER + 9 + "?.db.r+(.a=1)".len();
        // cut mid-way through the second record
        for cut in first_end + 1..bytes.len() {
            let log = decode_log(&bytes[..cut]).unwrap();
            assert_eq!(log.records.len(), 1, "cut at {cut}");
            assert_eq!(log.valid_len, first_end as u64);
            assert_eq!(log.torn_bytes, (cut - first_end) as u64);
        }
    }

    #[test]
    fn bit_flip_stops_the_scan_at_the_flipped_record() {
        let bytes = encode_log([(1, "?.db.r+(.a=1)"), (2, "?.db.r+(.a=2)")]);
        let first_end = header_bytes().len() + RECORD_HEADER + 9 + "?.db.r+(.a=1)".len();
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 0x40; // flip a payload bit in record 2
        let log = decode_log(&corrupt).unwrap();
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.valid_len, first_end as u64);
        assert!(log.torn_bytes > 0);
    }

    #[test]
    fn torn_header_is_an_empty_repairable_log() {
        for cut in 0..header_bytes().len() {
            let bytes = &header_bytes()[..cut];
            assert!(is_current_header(bytes), "cut at {cut}");
            let log = decode_log(bytes).unwrap();
            assert!(log.records.is_empty());
            assert_eq!(log.valid_len, 0);
            assert_eq!(log.torn_bytes, cut as u64);
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = header_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(decode_log(&bytes), Err(StorageError::Persist(_))));
    }

    #[test]
    fn older_formats_are_refused() {
        let framed = |version: u32| {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes
        };
        for bytes in [b"?.db.r+(.a=1)\n".to_vec(), framed(2), framed(3)] {
            assert!(!is_current_header(&bytes), "{bytes:?}");
            assert!(decode_log(&bytes).is_err(), "{bytes:?}");
        }
    }

    #[test]
    fn v4_header_carries_the_codec_hint() {
        let mut bytes = header_bytes();
        assert_eq!(bytes[12..], CODEC_BINARY.to_le_bytes());
        // the field is not read: any value opens
        bytes[12] = 0;
        bytes.extend_from_slice(&encode_record(1, "?.db.r+(.a=1)"));
        assert_eq!(decode_log(&bytes).unwrap().records.len(), 1);
    }

    #[test]
    fn every_prefix_of_a_framed_log_decodes_to_a_record_prefix() {
        // the defining property of the framing: any crash prefix recovers
        // an exact prefix of the appended records
        let stmts: Vec<String> = (0..5).map(|i| format!("?.db.r+(.a={i})")).collect();
        let bytes = encode_log(stmts.iter().enumerate().map(|(i, s)| (i as u64 + 1, s.as_str())));
        for cut in 0..=bytes.len() {
            let log = decode_log(&bytes[..cut]).unwrap();
            for (i, rec) in log.records.iter().enumerate() {
                assert_eq!(rec.stmt, stmts[i], "cut={cut}");
            }
            assert!(log.records.len() <= stmts.len());
            assert_eq!(log.valid_len + log.torn_bytes, cut as u64);
        }
    }
}
