//! Snapshot files: the atomic write protocol, the `--save` export, and
//! the read-only snapshot-era checkpoint formats.
//!
//! [`write_atomic`] is the crash-safe whole-file write, routed through a
//! [`Vfs`]:
//!
//! 1. write a **uniquely named** temp file (`<name>.<pid>.<n>.tmp`, so
//!    two writers sharing a directory cannot clobber each other's
//!    in-flight file),
//! 2. `fsync` the temp file (content durable before it becomes visible),
//! 3. `rename` over the target (atomic replacement),
//! 4. `fsync` the directory (the rename itself durable).
//!
//! Stale `*.tmp` files from crashed writers are swept by
//! [`clean_stale_temps`] when a durable engine opens.
//!
//! Checkpoints live in the page file ([`crate::engine`]); the snapshot
//! formats older builds checkpointed in are only read, to migrate a
//! directory and to load `--snapshot` files. [`load_snapshot_vfs_meta`]
//! reads all three: the legacy **bare universe** JSON (also what
//! [`save_snapshot`] exports), the versioned JSON wrapper
//! `{"format":2,"lsn":N,"universe":…}`, and the binary container of
//! [`crate::codec`] (snapshot format 3). In every case `lsn` records the
//! last operation-log record the snapshot contains, so replay can skip
//! exactly those (see [`crate::oplog`]). Binary snapshots additionally
//! carry the generation their `universe.delta.N` chain links to
//! ([`load_delta_vfs`]).

use crate::codec::{self, DeltaBlob};
use crate::error::{StorageError, StorageResult};
use crate::store::Store;
use crate::vfs::{RealVfs, Vfs};
use idl_object::Value;
use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The newest JSON snapshot wrapper format this build reads (the binary
/// container is format 3, versioned inside [`crate::codec`]).
pub const SNAPSHOT_FORMAT: u32 = 2;

/// Everything a snapshot file says about itself besides the universe.
#[derive(Clone, PartialEq, Debug)]
pub struct SnapshotMeta {
    /// Op-log LSN the snapshot covers (0 for legacy bare universes).
    pub lsn: u64,
    /// Checkpoint generation (0 for every JSON snapshot — JSON
    /// directories never carry delta chains).
    pub gen: u64,
    /// Opaque engine-state blob, if present.
    pub maintenance: Option<String>,
}

/// Serialises the universe to a JSON string.
pub fn to_json(store: &Store) -> StorageResult<String> {
    serde_json::to_string(store.universe()).map_err(|e| StorageError::Persist(e.to_string()))
}

/// Deserialises a universe from a JSON string into a fresh store.
pub fn from_json(json: &str) -> StorageResult<Store> {
    let universe: Value =
        serde_json::from_str(json).map_err(|e| StorageError::Persist(e.to_string()))?;
    Store::from_universe(universe)
}

/// The versioned JSON snapshot wrapper (format 2). The optional
/// `maintenance` blob is opaque JSON text holding the engine's view
/// maintenance state; wrappers without the field load as `None`.
#[derive(Deserialize)]
struct SnapshotFile {
    format: u32,
    lsn: u64,
    universe: Value,
    maintenance: Option<String>,
}

/// Counter distinguishing concurrent temp files within one process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The unique temp path a write will stage through.
fn temp_path(path: &Path) -> PathBuf {
    let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let name = path.file_name().map(|s| s.to_string_lossy()).unwrap_or_default();
    path.with_file_name(format!("{name}.{}.{n}.tmp", std::process::id()))
}

/// The directory whose entry for `path` a rename changes: `path`'s
/// parent, or `.` for a bare file name (whose parent is empty).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

pub(crate) fn io_err(ctx: &str, e: std::io::Error) -> StorageError {
    StorageError::Persist(format!("{ctx}: {e}"))
}

/// Writes `bytes` to `path` through the temp→fsync→rename→fsync(dir)
/// protocol (used by log rotation and migration and by the snapshot
/// export). `sync` off skips both fsyncs; crash safety is then up to
/// the OS.
pub fn write_atomic(vfs: &dyn Vfs, path: &Path, bytes: &[u8], sync: bool) -> StorageResult<()> {
    let tmp = temp_path(path);
    vfs.write(&tmp, bytes).map_err(|e| io_err("write snapshot temp", e))?;
    if sync {
        vfs.sync_file(&tmp).map_err(|e| io_err("sync snapshot temp", e))?;
    }
    vfs.rename(&tmp, path).map_err(|e| io_err("rename snapshot", e))?;
    if sync {
        vfs.sync_dir(parent_dir(path)).map_err(|e| io_err("sync snapshot dir", e))?;
    }
    Ok(())
}

/// Reads and decodes a delta-checkpoint container.
pub fn load_delta_vfs(vfs: &dyn Vfs, path: &Path) -> StorageResult<DeltaBlob> {
    let bytes = vfs.read(path).map_err(|e| io_err("read delta checkpoint", e))?;
    codec::decode_delta(&bytes)
}

/// Loads a snapshot in any of the three encodings, plus everything the
/// file says about itself ([`SnapshotMeta`]).
pub fn load_snapshot_vfs_meta(vfs: &dyn Vfs, path: &Path) -> StorageResult<(Store, SnapshotMeta)> {
    let bytes = vfs.read(path).map_err(|e| io_err("read snapshot", e))?;
    // Binary detection runs before the UTF-8 check — a binary container is
    // almost never valid UTF-8.
    if codec::is_binary(&bytes) {
        let snap = codec::decode_snapshot(&bytes)?;
        let meta = SnapshotMeta { lsn: snap.lsn, gen: snap.gen, maintenance: snap.maintenance };
        return Ok((Store::from_universe(snap.universe)?, meta));
    }
    let json = std::str::from_utf8(&bytes)
        .map_err(|e| StorageError::Persist(format!("snapshot is not UTF-8: {e}")))?;
    // Try the versioned wrapper first; a bare universe fails its field
    // check and falls through to the legacy path.
    if let Ok(snap) = serde_json::from_str::<SnapshotFile>(json) {
        if snap.format > SNAPSHOT_FORMAT {
            return Err(StorageError::Persist(format!(
                "snapshot format v{} is newer than this build understands (v{SNAPSHOT_FORMAT})",
                snap.format
            )));
        }
        let meta = SnapshotMeta { lsn: snap.lsn, gen: 0, maintenance: snap.maintenance };
        return Ok((Store::from_universe(snap.universe)?, meta));
    }
    let meta = SnapshotMeta { lsn: 0, gen: 0, maintenance: None };
    Ok((from_json(json)?, meta))
}

/// Removes stale temp files (`*.tmp`) left in `dir` by crashed or
/// concurrent writers that never reached their rename. Returns how many
/// were removed.
pub fn clean_stale_temps(vfs: &dyn Vfs, dir: &Path) -> StorageResult<u64> {
    let mut removed = 0;
    let entries = match vfs.list_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return Ok(0), // directory may not exist yet
    };
    for path in entries {
        let is_tmp = path.extension().is_some_and(|e| e == "tmp");
        if is_tmp && vfs.remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Exports the universe atomically (temp file + fsync + rename + dir
/// fsync) on the real file system, as a bare JSON universe.
pub fn save_snapshot(store: &Store, path: &Path) -> StorageResult<()> {
    write_atomic(&RealVfs::new(), path, to_json(store)?.as_bytes(), true)
}

/// Loads a snapshot file from the real file system (any encoding).
pub fn load_snapshot(path: &Path) -> StorageResult<Store> {
    load_snapshot_vfs_meta(&RealVfs::new(), path).map(|(store, _)| store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultPlan, SimVfs};
    use idl_object::tuple;

    fn store_a(a: i64) -> Store {
        let mut s = Store::new();
        s.insert("db", "r", tuple! { a: a }).unwrap();
        s
    }

    #[test]
    fn json_round_trip() {
        let mut s = Store::new();
        s.insert("euter", "r", tuple! { stkCode: "hp", clsPrice: 50.5f64 }).unwrap();
        s.insert("chwab", "r", tuple! { date: "3/3/85", hp: 50.5f64 }).unwrap();
        let json = to_json(&s).unwrap();
        let s2 = from_json(&json).unwrap();
        assert_eq!(s.universe(), s2.universe());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("idl-storage-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let s = store_a(1);
        save_snapshot(&s, &path).unwrap();
        let s2 = load_snapshot(&path).unwrap();
        assert_eq!(s.universe(), s2.universe());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_bare_file_name_syncs_the_current_directory() {
        assert_eq!(parent_dir(Path::new("u.json")), Path::new("."));
        assert_eq!(parent_dir(Path::new("d/u.json")), Path::new("d"));
        assert_eq!(parent_dir(Path::new("/u.json")), Path::new("/"));
    }

    #[test]
    fn bad_json_is_error() {
        assert!(matches!(from_json("not json"), Err(StorageError::Persist(_))));
        // valid JSON that decodes to a non-tuple universe is rejected
        let atom_json = serde_json::to_string(&idl_object::Value::int(42)).unwrap();
        assert!(matches!(from_json(&atom_json), Err(StorageError::ShapeViolation(_))));
    }

    /// The JSON wrapper older builds wrote, with or without a state blob.
    fn wrapper(s: &Store, lsn: u64, state: Option<&str>) -> String {
        let state = state.map_or("null".to_string(), |b| serde_json::to_string(b).unwrap());
        let universe = to_json(s).unwrap();
        format!(r#"{{"format":2,"lsn":{lsn},"universe":{universe},"maintenance":{state}}}"#)
    }

    #[test]
    fn every_snapshot_encoding_loads_with_its_meta() {
        let vfs = SimVfs::new(FaultPlan::none(1));
        let path = Path::new("/u.json");
        let s = store_a(1);
        let blob = r#"{"rules":["r1"],"views":[{"db":"v","rel":"x","rows":3}]}"#;
        let cases: [(Vec<u8>, SnapshotMeta); 4] = [
            (to_json(&s).unwrap().into_bytes(), SnapshotMeta { lsn: 0, gen: 0, maintenance: None }),
            (
                wrapper(&s, 17, None).into_bytes(),
                SnapshotMeta { lsn: 17, gen: 0, maintenance: None },
            ),
            (
                wrapper(&s, 5, Some(blob)).into_bytes(),
                SnapshotMeta { lsn: 5, gen: 0, maintenance: Some(blob.into()) },
            ),
            (
                codec::encode_snapshot(s.universe(), 4, 23, Some("state")),
                SnapshotMeta { lsn: 23, gen: 4, maintenance: Some("state".into()) },
            ),
        ];
        for (bytes, want) in cases {
            vfs.write(path, &bytes).unwrap();
            let (got, meta) = load_snapshot_vfs_meta(&vfs, path).unwrap();
            assert_eq!(got.universe(), s.universe());
            assert_eq!(meta, want);
        }
        // a wrapper from a newer build is refused, not misread
        vfs.write(path, wrapper(&s, 1, None).replace("\"format\":2", "\"format\":9").as_bytes())
            .unwrap();
        assert!(load_snapshot_vfs_meta(&vfs, path).is_err());
    }

    #[test]
    fn delta_file_round_trips() {
        use crate::codec::DeltaEntry;
        let vfs = SimVfs::new(FaultPlan::none(23));
        let path = Path::new("/universe.delta.1");
        let delta = DeltaBlob {
            gen: 2,
            seq: 1,
            prev_lsn: 5,
            lsn: 9,
            maintenance: None,
            entries: vec![DeltaEntry::PutRelation {
                db: idl_object::Name::new("euter"),
                rel: idl_object::Name::new("r"),
                value: idl_object::Value::empty_set(),
            }],
        };
        vfs.write(path, &codec::encode_delta(&delta)).unwrap();
        assert_eq!(load_delta_vfs(&vfs, path).unwrap(), delta);
    }

    #[test]
    fn atomic_write_leaves_no_temp_behind() {
        let vfs = SimVfs::new(FaultPlan::none(2));
        let dir = Path::new("/snapdir");
        vfs.create_dir_all(dir).unwrap();
        write_atomic(&vfs, &dir.join("u.json"), b"{}", true).unwrap();
        let listing = vfs.list_dir(dir).unwrap();
        assert_eq!(listing, vec![dir.join("u.json")], "{listing:?}");
    }

    #[test]
    fn stale_temps_are_swept() {
        let vfs = SimVfs::new(FaultPlan::none(3));
        let dir = Path::new("/snapdir");
        vfs.create_dir_all(dir).unwrap();
        vfs.write(&dir.join("u.json.999.0.tmp"), b"{ torn").unwrap();
        vfs.write(&dir.join("u.json.999.1.tmp"), b"{ torn too").unwrap();
        vfs.write(&dir.join("u.json"), b"{}").unwrap();
        assert_eq!(clean_stale_temps(&vfs, dir).unwrap(), 2);
        assert_eq!(vfs.list_dir(dir).unwrap(), vec![dir.join("u.json")]);
        // missing directory is fine
        assert_eq!(clean_stale_temps(&vfs, Path::new("/nope")).unwrap(), 0);
    }

    #[test]
    fn crashed_atomic_write_never_exposes_a_torn_target() {
        // Crash at every op of the write protocol; after power-up the
        // target either holds the old complete file or the new one.
        let (old, new) = (b"old contents".as_slice(), b"new contents, longer".as_slice());
        for op in 1..=8 {
            for seed in [1u64, 99, 4242] {
                // lay down the old file durably (3 ops), then arm the
                // crash `op` operations into the new write
                let vfs = SimVfs::new(FaultPlan::none(seed).with_crash_at(3 + op));
                let dir = Path::new("/d");
                vfs.create_dir_all(dir).unwrap();
                let path = dir.join("u.json");
                vfs.write(&path, old).unwrap();
                vfs.sync_file(&path).unwrap();
                vfs.sync_dir(dir).unwrap();
                if write_atomic(&vfs, &path, new, true).is_ok() {
                    continue; // crash point landed past this protocol
                }
                vfs.power_cycle();
                let got = vfs.read(&path).unwrap();
                assert!(got == old || got == new, "op {op} seed {seed}: torn target");
            }
        }
    }
}
