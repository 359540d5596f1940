//! Operation-log record framing.
//!
//! The durable engine's `ops.idl` moved from bare statement lines (format
//! 1, still readable via the migration path) to checksummed binary
//! framing (format 2), grew a per-record flags byte (format 3), and a
//! snapshot-codec hint in the header (format 4):
//!
//! ```text
//! header:  "IDLOPLG2"  version:u32le  codec:u32le         (16 bytes; v≤3: 12)
//! record:  len:u32le  crc:u32le  lsn:u64le  flags:u8  payload[len-9]
//! ```
//!
//! The `codec` header field (v4+) records which snapshot encoding the
//! directory's checkpoints pair with ([`CODEC_HINT_JSON`] /
//! [`CODEC_HINT_BINARY`]). It is diagnostic — recovery reads the
//! checkpoint files themselves — and every log this build writes says
//! binary.
//!
//! * `len` counts the LSN, flags and payload, so a record occupies
//!   `8 + len` bytes on disk (format-2 records have no flags byte and
//!   `len` counts LSN + payload; they decode with `flags = 0`);
//! * `flags` is a byte this build writes as 0 and ignores on replay
//!   (older builds set [`FLAG_MAINTENANCE`]), so logs from either build
//!   replay;
//! * `crc` is CRC-32C over the body (everything after itself);
//! * `lsn` is a log sequence number, strictly increasing across the log's
//!   lifetime (checkpoints included) — snapshots record the LSN they
//!   cover, so replay after a crash mid-checkpoint skips exactly the
//!   records the snapshot already contains, and duplicated records are
//!   replayed at most once;
//! * the payload is one request statement in canonical IDL surface
//!   syntax, UTF-8.
//!
//! [`decode_log`] is the recovery-side reader: it stops at the first
//! torn or checksum-failing record and reports the byte length of the
//! valid prefix, so the caller can truncate the tail instead of failing
//! recovery or replaying garbage. Legacy line-format logs (anything not
//! starting with the magic) decode through the same entry point, with a
//! trailing newline-less fragment treated as the torn tail.

use crate::crc::crc32c;
use crate::error::{StorageError, StorageResult};

/// Magic bytes opening a framed log (format 2).
pub const MAGIC: &[u8; 8] = b"IDLOPLG2";

/// Current framing format version.
pub const FORMAT_VERSION: u32 = 4;

/// The last framing version whose records carried no flags byte.
const UNFLAGGED_VERSION: u32 = 2;

/// The last framing version with the 12-byte header (no codec hint).
const SHORT_HEADER_VERSION: u32 = 3;

/// Record flag older builds set on an update whose views they maintained
/// inside the write; this build writes 0 and ignores the byte on replay.
pub const FLAG_MAINTENANCE: u8 = 1;

/// Bytes occupied by the file header in formats ≤ 3.
pub const HEADER_LEN: u64 = 12;

/// Bytes occupied by the file header in format 4 (adds the codec hint).
pub const HEADER_LEN_V4: u64 = 16;

/// Header codec hint: checkpoints in this directory are JSON.
pub const CODEC_HINT_JSON: u32 = 0;

/// Header codec hint: checkpoints in this directory are binary format 3.
pub const CODEC_HINT_BINARY: u32 = 1;

/// Header length for a given framing version.
pub fn header_len(version: u32) -> u64 {
    if version <= SHORT_HEADER_VERSION {
        HEADER_LEN
    } else {
        HEADER_LEN_V4
    }
}

/// Per-record header bytes (`len` + `crc`).
const RECORD_HEADER: usize = 8;

/// The format this build writes logs in. It has one variant because
/// `DurabilityOptions::format` and the benchmark package name it; the
/// pre-framing line format is only read ([`RecoveredLog::legacy_lines`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LogFormat {
    /// Length-prefixed, CRC-32C-checksummed, LSN-stamped records.
    Framed,
}

/// One decoded log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Record {
    /// Log sequence number (legacy lines are numbered 1..=n on read).
    pub lsn: u64,
    /// Record flags (see [`FLAG_MAINTENANCE`]; 0 for pre-format-3 logs).
    pub flags: u8,
    /// Canonical statement text.
    pub stmt: String,
    /// 1-based line number in the source file (legacy format only; framed
    /// records report their ordinal). For error messages.
    pub line: usize,
}

/// The result of scanning a log file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveredLog {
    /// Valid records, in log order.
    pub records: Vec<Record>,
    /// Whether the file is in the pre-framing format: one statement per
    /// line, `%` comments.
    pub legacy_lines: bool,
    /// Framing version found in the header (legacy line logs report 1).
    /// The durable engine rewrites pre-current framed logs on open, so
    /// appends always use the current record layout.
    pub version: u32,
    /// Snapshot-codec hint from a v4 header ([`CODEC_HINT_JSON`] for
    /// every older format, which only had JSON snapshots).
    pub codec_hint: u32,
    /// Byte length of the valid prefix (framed logs; for tail truncation).
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
    /// Whether the last open migrated a legacy line-format log.
    pub migrated_legacy: bool,
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
    /// Length of the snapshot-era delta chain recovery replays: always 0,
    /// since the page file has none. Kept because the benchmark package
    /// reports it.
    pub chain_len: u64,
    /// Page-file bytes written by checkpoints since open (and by a
    /// migration at open).
    pub snapshot_bytes_written: u64,
    /// Whether the last open migrated a snapshot-era directory into the
    /// page file.
    pub migrated_snapshot: bool,
    /// Buffer-pool counters (always present; an `Option` because the
    /// benchmark package reads it as one).
    pub pool: Option<crate::buffer_pool::BufferPoolStats>,
    /// Page-file size in pages.
    pub storage_pages: u64,
}

/// The 16-byte v4 file header of a fresh framed log.
pub fn header_bytes() -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN_V4 as usize);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&CODEC_HINT_BINARY.to_le_bytes());
    out
}

/// Encodes one record with no flags set (`len | crc | lsn | flags=0 | payload`).
pub fn encode_record(lsn: u64, stmt: &str) -> Vec<u8> {
    encode_record_flagged(lsn, 0, stmt)
}

/// Encodes one record (`len | crc | lsn | flags | payload`).
pub fn encode_record_flagged(lsn: u64, flags: u8, stmt: &str) -> Vec<u8> {
    let payload = stmt.as_bytes();
    let mut body = Vec::with_capacity(9 + payload.len());
    body.extend_from_slice(&lsn.to_le_bytes());
    body.push(flags);
    body.extend_from_slice(payload);
    let mut out = Vec::with_capacity(RECORD_HEADER + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32c(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Encodes a whole log file (header plus records) — used by checkpoint
/// rotation and legacy migration.
pub fn encode_log<'a>(records: impl IntoIterator<Item = (u64, &'a str)>) -> Vec<u8> {
    encode_log_flagged(records.into_iter().map(|(lsn, stmt)| (lsn, 0, stmt)))
}

/// [`encode_log`] with per-record flags — used when migrating an existing
/// log to the current framing without losing its tags.
pub fn encode_log_flagged<'a>(records: impl IntoIterator<Item = (u64, u8, &'a str)>) -> Vec<u8> {
    let mut out = header_bytes();
    for (lsn, flags, stmt) in records {
        out.extend_from_slice(&encode_record_flagged(lsn, flags, stmt));
    }
    out
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Scans a log file's bytes, auto-detecting the format.
///
/// Torn tails (truncated record, checksum mismatch, or a final line with
/// no newline) terminate the scan *successfully*: the valid prefix is
/// returned together with how many tail bytes to truncate. Only
/// structurally impossible files (an unknown future version) are errors.
pub fn decode_log(bytes: &[u8]) -> StorageResult<RecoveredLog> {
    if bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC {
        decode_framed(bytes)
    } else if bytes.len() < MAGIC.len() && !bytes.is_empty() && MAGIC.starts_with(bytes) {
        // a torn header write: treat as an empty framed log needing repair
        Ok(RecoveredLog {
            records: Vec::new(),
            legacy_lines: false,
            version: FORMAT_VERSION,
            codec_hint: CODEC_HINT_JSON,
            valid_len: 0,
            torn_bytes: bytes.len() as u64,
        })
    } else {
        Ok(decode_legacy(bytes))
    }
}

fn decode_framed(bytes: &[u8]) -> StorageResult<RecoveredLog> {
    let torn_header = |version| {
        Ok(RecoveredLog {
            records: Vec::new(),
            legacy_lines: false,
            version,
            codec_hint: CODEC_HINT_JSON,
            valid_len: 0,
            torn_bytes: bytes.len() as u64,
        })
    };
    if bytes.len() < HEADER_LEN as usize {
        // magic present but the version bytes are torn
        return torn_header(FORMAT_VERSION);
    }
    let version = read_u32(bytes, MAGIC.len());
    if version > FORMAT_VERSION {
        return Err(StorageError::Persist(format!(
            "operation log format v{version} is newer than this build understands (v{FORMAT_VERSION})"
        )));
    }
    let header = header_len(version) as usize;
    if bytes.len() < header {
        // a v4 header torn between the version and the codec hint
        return torn_header(version);
    }
    let codec_hint = if version > SHORT_HEADER_VERSION {
        read_u32(bytes, HEADER_LEN as usize)
    } else {
        CODEC_HINT_JSON
    };
    // Format-2 records have no flags byte between the LSN and payload.
    let flagged = version > UNFLAGGED_VERSION;
    let min_len = if flagged { 9 } else { 8 };
    let mut records = Vec::new();
    let mut at = header;
    loop {
        if at + RECORD_HEADER > bytes.len() {
            break; // torn record header (or clean EOF)
        }
        let len = read_u32(bytes, at) as usize;
        let crc = read_u32(bytes, at + 4);
        if len < min_len || at + RECORD_HEADER + len > bytes.len() {
            break; // impossible length or torn body
        }
        let body = &bytes[at + RECORD_HEADER..at + RECORD_HEADER + len];
        if crc32c(body) != crc {
            break; // bit rot or torn rewrite
        }
        let lsn = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
        let (flags, payload) = if flagged { (body[8], &body[9..]) } else { (0, &body[8..]) };
        let Ok(stmt) = std::str::from_utf8(payload) else {
            break; // checksummed garbage cannot happen, but stay safe
        };
        records.push(Record { lsn, flags, stmt: to_owned_trimmed(stmt), line: records.len() + 1 });
        at += RECORD_HEADER + len;
    }
    Ok(RecoveredLog {
        records,
        legacy_lines: false,
        version,
        codec_hint,
        valid_len: at as u64,
        torn_bytes: (bytes.len() - at) as u64,
    })
}

fn to_owned_trimmed(s: &str) -> String {
    s.trim().to_string()
}

fn decode_legacy(bytes: &[u8]) -> RecoveredLog {
    // Lossy decoding keeps a corrupt byte visible to the parser (which
    // reports "corrupt log at line N") instead of failing the whole scan.
    let text = String::from_utf8_lossy(bytes);
    let mut records = Vec::new();
    let mut valid = 0usize;
    let mut lsn = 0u64;
    let mut line_no = 0usize;
    let mut rest = text.as_ref();
    while let Some(nl) = rest.find('\n') {
        let line = &rest[..nl];
        line_no += 1;
        let trimmed = line.trim();
        if !trimmed.is_empty() && !trimmed.starts_with('%') {
            lsn += 1;
            records.push(Record { lsn, flags: 0, stmt: trimmed.to_string(), line: line_no });
        }
        valid += nl + 1;
        rest = &rest[nl + 1..];
    }
    // anything after the last newline is a torn tail
    RecoveredLog {
        records,
        legacy_lines: true,
        version: 1,
        codec_hint: CODEC_HINT_JSON,
        valid_len: valid as u64,
        torn_bytes: (bytes.len() - valid) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framed_round_trip() {
        let stmts = ["?.db.r+(.a=1)", "?.db.r-(.a=1)", "?.dbU.ins(.k=x)"];
        let bytes = encode_log(stmts.iter().enumerate().map(|(i, s)| (i as u64 + 1, *s)));
        let log = decode_log(&bytes).unwrap();
        assert!(!log.legacy_lines);
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
        let mut bytes = header_bytes();
        bytes.extend_from_slice(&encode_record_flagged(1, 0, "?.db.r+(.a=1)"));
        bytes.extend_from_slice(&encode_record_flagged(2, FLAG_MAINTENANCE, "?.db.r+(.a=2)"));
        let log = decode_log(&bytes).unwrap();
        assert_eq!(log.version, FORMAT_VERSION);
        assert_eq!(log.records[0].flags, 0);
        assert_eq!(log.records[1].flags, FLAG_MAINTENANCE);
        assert_eq!(log.records[1].stmt, "?.db.r+(.a=2)");
    }

    #[test]
    fn unflagged_v2_logs_still_decode() {
        // hand-build a format-2 log: version 2 header, bodies without the
        // flags byte (exactly what older builds wrote)
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        for (lsn, stmt) in [(1u64, "?.db.r+(.a=1)"), (2, "?.db.r+(.a=2)")] {
            let mut body = Vec::new();
            body.extend_from_slice(&lsn.to_le_bytes());
            body.extend_from_slice(stmt.as_bytes());
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32c(&body).to_le_bytes());
            bytes.extend_from_slice(&body);
        }
        let log = decode_log(&bytes).unwrap();
        assert_eq!(log.version, 2);
        assert_eq!(log.torn_bytes, 0);
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.records[0].stmt, "?.db.r+(.a=1)");
        assert_eq!(log.records[1].lsn, 2);
        assert!(log.records.iter().all(|r| r.flags == 0));
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
        for cut in 1..header_bytes().len() {
            let bytes = &header_bytes()[..cut];
            let log = decode_log(bytes).unwrap();
            assert!(!log.legacy_lines, "cut at {cut}");
            assert!(log.records.is_empty());
            assert_eq!(log.valid_len, 0);
            assert_eq!(log.torn_bytes, cut as u64);
        }
        let log = decode_log(&[]).unwrap();
        assert!(log.records.is_empty());
        assert!(log.legacy_lines, "empty file reads as empty legacy log");
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = header_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(decode_log(&bytes), Err(StorageError::Persist(_))));
    }

    #[test]
    fn v3_logs_without_the_codec_hint_still_decode() {
        // hand-build a format-3 log: 12-byte header, flagged records
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&encode_record_flagged(1, FLAG_MAINTENANCE, "?.db.r+(.a=1)"));
        bytes.extend_from_slice(&encode_record(2, "?.db.r+(.a=2)"));
        let log = decode_log(&bytes).unwrap();
        assert_eq!(log.version, 3);
        assert_eq!(log.codec_hint, CODEC_HINT_JSON);
        assert_eq!(log.torn_bytes, 0);
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.records[0].flags, FLAG_MAINTENANCE);
        assert_eq!(log.records[1].stmt, "?.db.r+(.a=2)");
    }

    #[test]
    fn v4_header_carries_the_codec_hint() {
        let mut bytes = header_bytes();
        bytes.extend_from_slice(&encode_record(1, "?.db.r+(.a=1)"));
        let log = decode_log(&bytes).unwrap();
        assert_eq!(log.version, FORMAT_VERSION);
        assert_eq!(log.codec_hint, CODEC_HINT_BINARY);
        assert_eq!(log.records.len(), 1);
    }

    #[test]
    fn legacy_lines_decode_with_torn_tail() {
        let text = "?.db.r+(.a=1)\n% comment\n\n?.db.r+(.a=2)\n?.db.r+(.a=";
        let log = decode_log(text.as_bytes()).unwrap();
        assert!(log.legacy_lines);
        assert_eq!(log.records.len(), 2);
        assert_eq!(
            log.records[0],
            Record { lsn: 1, flags: 0, stmt: "?.db.r+(.a=1)".into(), line: 1 }
        );
        assert_eq!(
            log.records[1],
            Record { lsn: 2, flags: 0, stmt: "?.db.r+(.a=2)".into(), line: 4 }
        );
        assert_eq!(log.torn_bytes, "?.db.r+(.a=".len() as u64);
        assert_eq!(log.valid_len, (text.len() - "?.db.r+(.a=".len()) as u64);
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
