//! Whole files: the atomic write protocol and the `--save` export.
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
//! Checkpoints live in the page file ([`crate::engine`]). The one file
//! format this module reads and writes is the snapshot export: a bare
//! JSON universe, written by [`save_snapshot`] (`idl --save`) and read
//! back by [`load_snapshot`] (`idl --snapshot`), which refuses anything
//! else.

use crate::error::{StorageError, StorageResult};
use crate::store::Store;
use crate::vfs::{RealVfs, Vfs};
use idl_object::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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
/// protocol (used by log rotation and by the snapshot export). `sync`
/// off skips both fsyncs; crash safety is then up to the OS.
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

/// Removes the stale temp files (`*.tmp`) among `files` — left by
/// crashed or concurrent writers that never reached their rename.
/// Returns how many were removed.
pub fn clean_stale_temps(vfs: &dyn Vfs, files: &[PathBuf]) -> u64 {
    let is_tmp = |path: &&PathBuf| path.extension().is_some_and(|e| e == "tmp");
    files.iter().filter(is_tmp).filter(|path| vfs.remove_file(path).is_ok()).count() as u64
}

/// Exports the universe atomically (temp file + fsync + rename + dir
/// fsync) on the real file system, as a bare JSON universe.
pub fn save_snapshot(store: &Store, path: &Path) -> StorageResult<()> {
    write_atomic(&RealVfs::new(), path, to_json(store)?.as_bytes(), true)
}

/// Loads a bare JSON universe — what [`save_snapshot`] writes — from the
/// real file system. Any other bytes fail closed.
pub fn load_snapshot(path: &Path) -> StorageResult<Store> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read snapshot", e))?;
    let json = std::str::from_utf8(&bytes)
        .map_err(|_| StorageError::Persist(format!("{} is not a JSON universe", path.display())))?;
    from_json(json)
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

    #[test]
    fn load_snapshot_reads_json_only() {
        let dir =
            std::env::temp_dir().join(format!("idl-storage-json-only-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        // a binary snapshot container of an older build, and other bytes
        // that are not UTF-8
        for bytes in [&b"IDLSNAP3\x9a\xff\x00\x01\x07\x00"[..], &[0xff, 0xfe, 0x00]] {
            std::fs::write(&path, bytes).unwrap();
            let Err(err) = load_snapshot(&path) else { panic!("{bytes:?} loaded") };
            assert!(err.to_string().contains("not a JSON universe"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
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
        assert_eq!(clean_stale_temps(&vfs, &vfs.list_dir(dir).unwrap()), 2);
        assert_eq!(vfs.list_dir(dir).unwrap(), vec![dir.join("u.json")]);
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
