//! Virtual file system for durability I/O.
//!
//! Everything the durability layer does to disk — snapshot temp files,
//! renames, operation-log appends, fsyncs — goes through the [`Vfs`]
//! trait, so the same code path runs against the real file system
//! ([`RealVfs`]) and against a deterministic in-memory simulation
//! ([`SimVfs`]) with seeded fault injection:
//!
//! * **torn writes** — at a crash point, an in-flight write survives only
//!   a seeded byte prefix;
//! * **dropped fsyncs** — a lying disk: `sync_file` reports success
//!   without making the data durable;
//! * **rename-before-sync reordering** — a rename can become durable
//!   while unsynced file content is lost, and an unsynced rename can be
//!   undone by a crash;
//! * **short reads** — a read returns a strict prefix of the file;
//! * **ENOSPC** — a write fails midway with a seeded partial application.
//!
//! The simulation models files as inodes with a *live* view (what the
//! running process sees) and a *durable* view (what survives a power
//! cycle): data promotes from live to durable on `sync_file`, directory
//! entries promote on `sync_dir`. [`SimVfs::power_cycle`] computes the
//! post-crash state — unsynced directory operations each survive by a
//! seeded coin flip (modelling metadata reordering) and unsynced file
//! bytes survive as a seeded prefix (modelling torn sector writes).
//! Truncations ([`Vfs::set_len`]) are treated as immediately durable, a
//! deliberate simplification (they are only used for tail repair).
//!
//! Fault schedules are described by a [`FaultPlan`], which serialises to
//! and from a one-line `key=value` string so a failing test can print an
//! exact repro (see `tests/crash_recovery.rs`).

use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Operation counters a VFS keeps (diagnostics; the bench and the crash
/// harness read them).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct VfsStats {
    /// Whole-file reads.
    pub reads: u64,
    /// Whole-file (create/truncate) writes.
    pub writes: u64,
    /// Appends.
    pub appends: u64,
    /// Random-access reads (`read_at`; the page file's read path).
    pub preads: u64,
    /// Random-access writes (`write_at`; the page file's write path).
    pub pwrites: u64,
    /// File syncs that were honoured.
    pub file_syncs: u64,
    /// File syncs silently dropped by fault injection.
    pub dropped_syncs: u64,
    /// Directory syncs.
    pub dir_syncs: u64,
    /// Renames.
    pub renames: u64,
    /// File removals.
    pub removes: u64,
    /// Truncations.
    pub truncates: u64,
    /// Payload bytes handed to `write`/`append`.
    pub bytes_written: u64,
}

/// The file-system operations durability code is allowed to use.
///
/// Deliberately path-based (no open handles): every operation names the
/// file it touches, which keeps the simulated crash semantics exact and
/// the recovery code free of hidden state.
pub trait Vfs: Send + Sync {
    /// Reads the entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates or truncates `path` and writes `data`.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Appends `data` to `path`, creating it if absent.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Reads up to `len` bytes at byte offset `off`. Returns fewer bytes
    /// only where the file ends early — callers that require the full
    /// range (the page cache) treat a short result as corruption. The
    /// default is a whole-file read plus a slice; backends with real
    /// random access override it.
    fn read_at(&self, path: &Path, off: u64, len: usize) -> io::Result<Vec<u8>> {
        let data = self.read(path)?;
        let start = (off as usize).min(data.len());
        let end = start.saturating_add(len).min(data.len());
        Ok(data[start..end].to_vec())
    }
    /// Writes `data` at byte offset `off`, creating the file if absent
    /// and extending it with zeros when `off` lies past the end. Like
    /// every other write, not durable until `sync_file` — and under a
    /// crash the range may apply fully, as a torn prefix, or not at all
    /// (see [`SimVfs`]). The default is read-modify-rewrite; backends
    /// with real random access override it.
    fn write_at(&self, path: &Path, off: u64, data: &[u8]) -> io::Result<()> {
        let mut cur = if self.exists(path) { self.read(path)? } else { Vec::new() };
        let off = off as usize;
        let end = off + data.len();
        if cur.len() < end {
            cur.resize(end, 0);
        }
        cur[off..end].copy_from_slice(data);
        self.write(path, &cur)
    }
    /// Forces file content to stable storage (`fsync`).
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Forces directory entries to stable storage (`fsync` on the dir).
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to` (replacing `to`).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Truncates (or extends with zeros) to `len` bytes.
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Current length of the file.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Whether a file or directory exists.
    fn exists(&self, path: &Path) -> bool;
    /// Creates a directory and its ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Files (not directories) directly inside `path`.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Operation counters so far.
    fn stats(&self) -> VfsStats {
        VfsStats::default()
    }
}

// ---------------------------------------------------------------- RealVfs

/// The real file system, with the full fsync discipline.
#[derive(Default)]
pub struct RealVfs {
    reads: AtomicU64,
    writes: AtomicU64,
    appends: AtomicU64,
    preads: AtomicU64,
    pwrites: AtomicU64,
    file_syncs: AtomicU64,
    dir_syncs: AtomicU64,
    renames: AtomicU64,
    removes: AtomicU64,
    truncates: AtomicU64,
    bytes_written: AtomicU64,
}

impl RealVfs {
    /// A fresh real-FS handle (counters at zero).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(data.len() as u64, Ordering::Relaxed);
        std::fs::write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(data.len() as u64, Ordering::Relaxed);
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(data)
    }

    fn read_at(&self, path: &Path, off: u64, len: usize) -> io::Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        self.preads.fetch_add(1, Ordering::Relaxed);
        let mut f = std::fs::File::open(path)?;
        f.seek(SeekFrom::Start(off))?;
        let mut buf = vec![0u8; len];
        let mut filled = 0;
        while filled < len {
            let n = f.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        buf.truncate(filled);
        Ok(buf)
    }

    fn write_at(&self, path: &Path, off: u64, data: &[u8]) -> io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        self.pwrites.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(data.len() as u64, Ordering::Relaxed);
        // positional write: the rest of the file must survive
        let mut f =
            std::fs::OpenOptions::new().write(true).create(true).truncate(false).open(path)?;
        f.seek(SeekFrom::Start(off))?;
        f.write_all(data)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.file_syncs.fetch_add(1, Ordering::Relaxed);
        std::fs::OpenOptions::new().read(true).open(path)?.sync_all()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.dir_syncs.fetch_add(1, Ordering::Relaxed);
        // Opening a directory read-only and fsyncing it is the POSIX way to
        // make renames durable. Either step failing means the entries may
        // not be, so the caller must not acknowledge them. Other platforms
        // cannot open a directory as a file; there this is a no-op.
        #[cfg(unix)]
        {
            std::fs::File::open(path)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Ok(())
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.renames.fetch_add(1, Ordering::Relaxed);
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.removes.fetch_add(1, Ordering::Relaxed);
        std::fs::remove_file(path)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.truncates.fetch_add(1, Ordering::Relaxed);
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn stats(&self) -> VfsStats {
        VfsStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            preads: self.preads.load(Ordering::Relaxed),
            pwrites: self.pwrites.load(Ordering::Relaxed),
            file_syncs: self.file_syncs.load(Ordering::Relaxed),
            dropped_syncs: 0,
            dir_syncs: self.dir_syncs.load(Ordering::Relaxed),
            renames: self.renames.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            truncates: self.truncates.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

// --------------------------------------------------------------- FaultPlan

/// A deterministic fault schedule for [`SimVfs`].
///
/// Operation indices are 1-based and count every I/O operation the VFS
/// performs (reads, writes, appends, syncs, renames, removes, truncates),
/// in order. All randomness (torn-write lengths, surviving-rename coins,
/// dropped-fsync choices) derives from `seed` alone, so a plan replays
/// identically. `Display` and `FromStr` round-trip through a one-line
/// `key=value,key=value` form used in failure messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// Seed for every random draw the simulation makes.
    pub seed: u64,
    /// Power failure at this operation (the op partially applies, then
    /// every subsequent op fails until [`SimVfs::power_cycle`]).
    pub crash_at: Option<u64>,
    /// This write/append fails with `ENOSPC` after a seeded partial
    /// application (non-write ops at this index are unaffected).
    pub enospc_at: Option<u64>,
    /// This read returns a strict prefix of the file.
    pub short_read_at: Option<u64>,
    /// Each `sync_file` is silently dropped with probability `1/n`
    /// (a lying disk).
    pub drop_fsync_one_in: Option<u64>,
}

impl FaultPlan {
    /// A plan with no faults: fully reliable, but still deterministic.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            crash_at: None,
            enospc_at: None,
            short_read_at: None,
            drop_fsync_one_in: None,
        }
    }

    /// This plan with a power failure at op `op` (1-based).
    pub fn with_crash_at(mut self, op: u64) -> Self {
        self.crash_at = Some(op);
        self
    }

    /// This plan with `ENOSPC` injected at op `op` (1-based).
    pub fn with_enospc_at(mut self, op: u64) -> Self {
        self.enospc_at = Some(op);
        self
    }

    /// This plan with a short read at op `op` (1-based).
    pub fn with_short_read_at(mut self, op: u64) -> Self {
        self.short_read_at = Some(op);
        self
    }

    /// This plan dropping each fsync with probability `1/n`.
    pub fn with_drop_fsync_one_in(mut self, n: u64) -> Self {
        self.drop_fsync_one_in = Some(n.max(1));
        self
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        if let Some(v) = self.crash_at {
            write!(f, ",crash_at={v}")?;
        }
        if let Some(v) = self.enospc_at {
            write!(f, ",enospc_at={v}")?;
        }
        if let Some(v) = self.short_read_at {
            write!(f, ",short_read_at={v}")?;
        }
        if let Some(v) = self.drop_fsync_one_in {
            write!(f, ",drop_fsync_one_in={v}")?;
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none(0);
        let mut saw_seed = false;
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) =
                part.split_once('=').ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let value: u64 = value.trim().parse().map_err(|_| format!("bad value in {part:?}"))?;
            match key.trim() {
                "seed" => {
                    plan.seed = value;
                    saw_seed = true;
                }
                "crash_at" => plan.crash_at = Some(value),
                "enospc_at" => plan.enospc_at = Some(value),
                "short_read_at" => plan.short_read_at = Some(value),
                "drop_fsync_one_in" => plan.drop_fsync_one_in = Some(value.max(1)),
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        if !saw_seed {
            return Err("fault plan needs at least seed=N".into());
        }
        Ok(plan)
    }
}

// ----------------------------------------------------------------- SimVfs

/// SplitMix64: a tiny, platform-independent deterministic generator, so
/// the storage crate needs no RNG dependency and schedules replay
/// bit-identically everywhere.
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`0` when `n == 0`).
    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

#[derive(Clone, Debug)]
struct Inode {
    /// What the running process reads.
    data: Vec<u8>,
    /// What survives a power cycle (content as of the last honoured sync).
    durable: Vec<u8>,
    /// `(offset, len)` of every `write_at` range since the last honoured
    /// sync, in issue order. Non-empty switches the inode's power-cycle
    /// model from whole-file append/overwrite heuristics to per-range
    /// application: each range independently survives fully, as a torn
    /// prefix, or not at all (sector-granularity page writes can land in
    /// any order). Whole-file `write`/`append` resets this — an inode is
    /// either in the streaming model or the paged model, never both.
    unsynced: Vec<(u64, u64)>,
}

/// A pending (unsynced) directory-namespace operation.
#[derive(Clone, Debug)]
enum DirOp {
    Link { path: PathBuf, ino: u64 },
    Unlink { path: PathBuf },
    Rename { from: PathBuf, to: PathBuf, ino: u64 },
}

impl DirOp {
    fn dir(&self) -> Option<&Path> {
        match self {
            DirOp::Link { path, .. } | DirOp::Unlink { path } => path.parent(),
            DirOp::Rename { to, .. } => to.parent(),
        }
    }
}

struct SimState {
    plan: FaultPlan,
    rng: SplitMix64,
    ops: u64,
    crashed: bool,
    next_ino: u64,
    inodes: BTreeMap<u64, Inode>,
    live: BTreeMap<PathBuf, u64>,
    durable_ns: BTreeMap<PathBuf, u64>,
    pending: Vec<DirOp>,
    dirs: BTreeSet<PathBuf>,
    stats: VfsStats,
}

/// Deterministic in-memory file system with seeded fault injection (see
/// the module docs for the fault model).
pub struct SimVfs {
    state: Mutex<SimState>,
}

/// What the fault schedule says about the current operation.
enum Tick {
    Ok,
    Crash,
    Enospc,
    ShortRead,
    DropSync,
}

impl SimVfs {
    /// A fresh simulated file system following `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        SimVfs {
            state: Mutex::new(SimState {
                plan,
                rng: SplitMix64(plan.seed),
                ops: 0,
                crashed: false,
                next_ino: 1,
                inodes: BTreeMap::new(),
                live: BTreeMap::new(),
                durable_ns: BTreeMap::new(),
                pending: Vec::new(),
                dirs: BTreeSet::new(),
                stats: VfsStats::default(),
            }),
        }
    }

    /// The plan this instance follows.
    pub fn plan(&self) -> FaultPlan {
        self.state.lock().plan
    }

    /// Total counted operations so far (the domain of `crash_at`).
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops
    }

    /// Whether a simulated power failure has occurred (all I/O fails until
    /// [`SimVfs::power_cycle`]).
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Simulates the machine coming back up after a power failure: every
    /// unsynced directory operation survives by a seeded coin flip, every
    /// inode's unsynced bytes survive as a seeded prefix, and the live
    /// state is reset to exactly what is durable. Clears the crashed flag;
    /// the fault schedule does **not** restart (each fault fires once).
    pub fn power_cycle(&self) {
        let mut s = self.state.lock();
        let pending = std::mem::take(&mut s.pending);
        for op in pending {
            if s.rng.below(2) == 0 {
                continue; // this metadata op never reached the disk
            }
            match op {
                DirOp::Link { path, ino } => {
                    s.durable_ns.insert(path, ino);
                }
                DirOp::Unlink { path } => {
                    s.durable_ns.remove(&path);
                }
                DirOp::Rename { from, to, ino } => {
                    s.durable_ns.remove(&from);
                    s.durable_ns.insert(to, ino);
                }
            }
        }
        let inos: Vec<u64> = s.inodes.keys().copied().collect();
        for ino in inos {
            let (data, durable, unsynced) = {
                let inode = &s.inodes[&ino];
                (inode.data.clone(), inode.durable.clone(), inode.unsynced.clone())
            };
            let surviving = if !unsynced.is_empty() {
                // Paged model: start from the durable image and apply each
                // unsynced range by an independent seeded draw — lost
                // entirely, a torn prefix, or fully applied. The applied
                // bytes come from the live view, which holds every range
                // already written (overlaps resolve to the newest write,
                // as reordered sector flushes legitimately may).
                let mut v = durable.clone();
                for &(off, len) in &unsynced {
                    let keep = match s.rng.below(3) {
                        0 => 0,
                        1 => s.rng.below(len + 1),
                        _ => len,
                    } as usize;
                    if keep == 0 {
                        continue;
                    }
                    let off = off as usize;
                    let end = (off + keep).min(data.len());
                    if end <= off {
                        continue;
                    }
                    if v.len() < end {
                        v.resize(end, 0);
                    }
                    v[off..end].copy_from_slice(&data[off..end]);
                }
                v
            } else if data.len() >= durable.len() && data[..durable.len()] == durable[..] {
                // pure append since the last sync: a prefix of the
                // unsynced suffix survives (torn write)
                let unsynced = (data.len() - durable.len()) as u64;
                let keep = s.rng.below(unsynced + 1) as usize;
                let mut v = durable.clone();
                v.extend_from_slice(&data[durable.len()..durable.len() + keep]);
                v
            } else if s.rng.below(2) == 0 {
                // in-place overwrite: old durable content survives...
                durable.clone()
            } else {
                // ...or a torn prefix of the new content does
                let keep = s.rng.below(data.len() as u64 + 1) as usize;
                data[..keep].to_vec()
            };
            let inode = s.inodes.get_mut(&ino).expect("inode exists");
            inode.data = surviving.clone();
            inode.durable = surviving;
            inode.unsynced.clear();
        }
        s.live = s.durable_ns.clone();
        s.crashed = false;
    }

    /// The live content of every file (test introspection).
    pub fn dump(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        let s = self.state.lock();
        s.live.iter().map(|(p, ino)| (p.clone(), s.inodes[ino].data.clone())).collect()
    }

    fn crash_error(s: &SimState) -> io::Error {
        io::Error::other(format!("simulated power failure at op {} (plan: {})", s.ops, s.plan))
    }

    /// Advances the op counter and consults the fault schedule.
    fn tick(s: &mut SimState, is_write: bool, is_read: bool, is_sync: bool) -> io::Result<Tick> {
        if s.crashed {
            return Err(io::Error::other(format!(
                "simulated crash: I/O after power failure (plan: {})",
                s.plan
            )));
        }
        s.ops += 1;
        if s.plan.crash_at == Some(s.ops) {
            return Ok(Tick::Crash);
        }
        if is_write && s.plan.enospc_at == Some(s.ops) {
            return Ok(Tick::Enospc);
        }
        if is_read && s.plan.short_read_at == Some(s.ops) {
            return Ok(Tick::ShortRead);
        }
        if is_sync {
            if let Some(n) = s.plan.drop_fsync_one_in {
                if s.rng.below(n) == 0 {
                    return Ok(Tick::DropSync);
                }
            }
        }
        Ok(Tick::Ok)
    }

    /// Applies a seeded prefix of `data` to the inode bound at `path`
    /// (creating the binding when needed), used for torn/ENOSPC writes.
    fn partial_apply(s: &mut SimState, path: &Path, data: &[u8], append: bool) {
        let keep = s.rng.below(data.len() as u64 + 1) as usize;
        let partial = &data[..keep];
        Self::apply_write(s, path, partial, append);
    }

    fn apply_write(s: &mut SimState, path: &Path, data: &[u8], append: bool) {
        if let Some(&ino) = s.live.get(path) {
            let inode = s.inodes.get_mut(&ino).expect("bound inode exists");
            if append {
                inode.data.extend_from_slice(data);
            } else {
                inode.data = data.to_vec();
            }
            inode.unsynced.clear();
        } else {
            let ino = s.next_ino;
            s.next_ino += 1;
            s.inodes.insert(
                ino,
                Inode { data: data.to_vec(), durable: Vec::new(), unsynced: Vec::new() },
            );
            s.live.insert(path.to_path_buf(), ino);
            s.pending.push(DirOp::Link { path: path.to_path_buf(), ino });
        }
    }

    /// Applies a `write_at` range to the inode bound at `path` (creating
    /// the binding when needed) and records it as unsynced.
    fn apply_write_at(s: &mut SimState, path: &Path, off: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let ino = match s.live.get(path) {
            Some(&ino) => ino,
            None => {
                let ino = s.next_ino;
                s.next_ino += 1;
                s.inodes.insert(
                    ino,
                    Inode { data: Vec::new(), durable: Vec::new(), unsynced: Vec::new() },
                );
                s.live.insert(path.to_path_buf(), ino);
                s.pending.push(DirOp::Link { path: path.to_path_buf(), ino });
                ino
            }
        };
        let inode = s.inodes.get_mut(&ino).expect("bound inode exists");
        let off = off as usize;
        let end = off + data.len();
        if inode.data.len() < end {
            inode.data.resize(end, 0);
        }
        inode.data[off..end].copy_from_slice(data);
        inode.unsynced.push((off as u64, data.len() as u64));
    }

    /// Applies a seeded prefix of a `write_at` range (torn page write).
    fn partial_apply_at(s: &mut SimState, path: &Path, off: u64, data: &[u8]) {
        let keep = s.rng.below(data.len() as u64 + 1) as usize;
        Self::apply_write_at(s, path, off, &data[..keep]);
    }

    fn not_found(path: &Path) -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, format!("no such file: {}", path.display()))
    }
}

impl Vfs for SimVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut s = self.state.lock();
        let tick = Self::tick(&mut s, false, true, false)?;
        if matches!(tick, Tick::Crash) {
            s.crashed = true;
            return Err(Self::crash_error(&s));
        }
        s.stats.reads += 1;
        let ino = *s.live.get(path).ok_or_else(|| Self::not_found(path))?;
        let data = s.inodes[&ino].data.clone();
        if matches!(tick, Tick::ShortRead) {
            let keep = s.rng.below(data.len() as u64) as usize;
            return Ok(data[..keep].to_vec());
        }
        Ok(data)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock();
        let tick = Self::tick(&mut s, true, false, false)?;
        match tick {
            Tick::Crash => {
                Self::partial_apply(&mut s, path, data, false);
                s.crashed = true;
                Err(Self::crash_error(&s))
            }
            Tick::Enospc => {
                Self::partial_apply(&mut s, path, data, false);
                Err(io::Error::new(io::ErrorKind::StorageFull, "simulated ENOSPC"))
            }
            _ => {
                s.stats.writes += 1;
                s.stats.bytes_written += data.len() as u64;
                Self::apply_write(&mut s, path, data, false);
                Ok(())
            }
        }
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock();
        let tick = Self::tick(&mut s, true, false, false)?;
        match tick {
            Tick::Crash => {
                Self::partial_apply(&mut s, path, data, true);
                s.crashed = true;
                Err(Self::crash_error(&s))
            }
            Tick::Enospc => {
                Self::partial_apply(&mut s, path, data, true);
                Err(io::Error::new(io::ErrorKind::StorageFull, "simulated ENOSPC"))
            }
            _ => {
                s.stats.appends += 1;
                s.stats.bytes_written += data.len() as u64;
                Self::apply_write(&mut s, path, data, true);
                Ok(())
            }
        }
    }

    fn read_at(&self, path: &Path, off: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut s = self.state.lock();
        let tick = Self::tick(&mut s, false, true, false)?;
        if matches!(tick, Tick::Crash) {
            s.crashed = true;
            return Err(Self::crash_error(&s));
        }
        s.stats.preads += 1;
        let ino = *s.live.get(path).ok_or_else(|| Self::not_found(path))?;
        let data = &s.inodes[&ino].data;
        let start = (off as usize).min(data.len());
        let end = start.saturating_add(len).min(data.len());
        let mut out = data[start..end].to_vec();
        if matches!(tick, Tick::ShortRead) {
            let keep = s.rng.below(out.len() as u64) as usize;
            out.truncate(keep);
        }
        Ok(out)
    }

    fn write_at(&self, path: &Path, off: u64, data: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock();
        let tick = Self::tick(&mut s, true, false, false)?;
        match tick {
            Tick::Crash => {
                Self::partial_apply_at(&mut s, path, off, data);
                s.crashed = true;
                Err(Self::crash_error(&s))
            }
            Tick::Enospc => {
                Self::partial_apply_at(&mut s, path, off, data);
                Err(io::Error::new(io::ErrorKind::StorageFull, "simulated ENOSPC"))
            }
            _ => {
                s.stats.pwrites += 1;
                s.stats.bytes_written += data.len() as u64;
                Self::apply_write_at(&mut s, path, off, data);
                Ok(())
            }
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        let tick = Self::tick(&mut s, false, false, true)?;
        match tick {
            Tick::Crash => {
                s.crashed = true;
                Err(Self::crash_error(&s))
            }
            Tick::DropSync => {
                // lying disk: report success, promote nothing
                s.stats.dropped_syncs += 1;
                Ok(())
            }
            _ => {
                s.stats.file_syncs += 1;
                let ino = *s.live.get(path).ok_or_else(|| Self::not_found(path))?;
                let inode = s.inodes.get_mut(&ino).expect("bound inode exists");
                inode.durable = inode.data.clone();
                inode.unsynced.clear();
                Ok(())
            }
        }
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        let tick = Self::tick(&mut s, false, false, false)?;
        if matches!(tick, Tick::Crash) {
            s.crashed = true;
            return Err(Self::crash_error(&s));
        }
        s.stats.dir_syncs += 1;
        let (applies, keeps): (Vec<DirOp>, Vec<DirOp>) =
            std::mem::take(&mut s.pending).into_iter().partition(|op| op.dir() == Some(path));
        s.pending = keeps;
        for op in applies {
            match op {
                DirOp::Link { path, ino } => {
                    s.durable_ns.insert(path, ino);
                }
                DirOp::Unlink { path } => {
                    s.durable_ns.remove(&path);
                }
                DirOp::Rename { from, to, ino } => {
                    s.durable_ns.remove(&from);
                    s.durable_ns.insert(to, ino);
                }
            }
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        let tick = Self::tick(&mut s, false, false, false)?;
        if matches!(tick, Tick::Crash) {
            s.crashed = true;
            return Err(Self::crash_error(&s));
        }
        s.stats.renames += 1;
        let ino = s.live.remove(from).ok_or_else(|| Self::not_found(from))?;
        s.live.insert(to.to_path_buf(), ino);
        s.pending.push(DirOp::Rename { from: from.to_path_buf(), to: to.to_path_buf(), ino });
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        let tick = Self::tick(&mut s, false, false, false)?;
        if matches!(tick, Tick::Crash) {
            s.crashed = true;
            return Err(Self::crash_error(&s));
        }
        s.stats.removes += 1;
        s.live.remove(path).ok_or_else(|| Self::not_found(path))?;
        s.pending.push(DirOp::Unlink { path: path.to_path_buf() });
        Ok(())
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut s = self.state.lock();
        let tick = Self::tick(&mut s, false, false, false)?;
        if matches!(tick, Tick::Crash) {
            s.crashed = true;
            return Err(Self::crash_error(&s));
        }
        s.stats.truncates += 1;
        let ino = *s.live.get(path).ok_or_else(|| Self::not_found(path))?;
        let inode = s.inodes.get_mut(&ino).expect("bound inode exists");
        let len = len as usize;
        inode.data.resize(len, 0);
        // Truncation is modelled as immediately durable (see module docs):
        // it is only used for torn-tail repair, where the conservative
        // alternative (resurrecting truncated bytes) would re-repair to
        // the same state anyway.
        inode.durable.resize(len.min(inode.durable.len()), 0);
        // Unsynced ranges past the new end can no longer survive.
        let cap = len as u64;
        inode.unsynced.retain_mut(|(off, rlen)| {
            if *off >= cap {
                return false;
            }
            *rlen = (*rlen).min(cap - *off);
            true
        });
        Ok(())
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let s = self.state.lock();
        if s.crashed {
            return Err(io::Error::other("simulated crash: I/O after power failure"));
        }
        let ino = *s.live.get(path).ok_or_else(|| Self::not_found(path))?;
        Ok(s.inodes[&ino].data.len() as u64)
    }

    fn exists(&self, path: &Path) -> bool {
        let s = self.state.lock();
        s.live.contains_key(path) || s.dirs.contains(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        if s.crashed {
            return Err(io::Error::other("simulated crash: I/O after power failure"));
        }
        let mut p = path;
        loop {
            s.dirs.insert(p.to_path_buf());
            match p.parent() {
                Some(parent) if parent != Path::new("") => p = parent,
                _ => break,
            }
        }
        Ok(())
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let s = self.state.lock();
        if s.crashed {
            return Err(io::Error::other("simulated crash: I/O after power failure"));
        }
        Ok(s.live.keys().filter(|p| p.parent() == Some(path)).cloned().collect())
    }

    fn stats(&self) -> VfsStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn real_vfs_roundtrip_and_counters() {
        let dir = std::env::temp_dir().join(format!("idl-vfs-{}", std::process::id()));
        let vfs = RealVfs::new();
        vfs.create_dir_all(&dir).unwrap();
        let f = dir.join("a.bin");
        vfs.write(&f, b"hello").unwrap();
        vfs.append(&f, b" world").unwrap();
        vfs.sync_file(&f).unwrap();
        vfs.sync_dir(&dir).unwrap();
        assert_eq!(vfs.read(&f).unwrap(), b"hello world");
        assert_eq!(vfs.file_len(&f).unwrap(), 11);
        let g = dir.join("b.bin");
        vfs.rename(&f, &g).unwrap();
        assert!(!vfs.exists(&f));
        assert!(vfs.list_dir(&dir).unwrap().contains(&g));
        vfs.set_len(&g, 5).unwrap();
        assert_eq!(vfs.read(&g).unwrap(), b"hello");
        vfs.remove_file(&g).unwrap();
        let st = vfs.stats();
        assert_eq!((st.writes, st.appends, st.renames, st.removes), (1, 1, 1, 1));
        assert_eq!(st.bytes_written, 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn real_sync_dir_reports_a_missing_directory() {
        let dir = std::env::temp_dir().join(format!("idl-vfs-missing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(RealVfs::new().sync_dir(&dir).is_err(), "an unsynced directory was acknowledged");
    }

    #[test]
    fn sim_basic_semantics_match_a_real_fs() {
        let vfs = SimVfs::new(FaultPlan::none(1));
        let dir = p("/d");
        vfs.create_dir_all(&dir).unwrap();
        let f = dir.join("a");
        assert!(vfs.read(&f).is_err());
        vfs.write(&f, b"one").unwrap();
        vfs.append(&f, b"two").unwrap();
        assert_eq!(vfs.read(&f).unwrap(), b"onetwo");
        assert_eq!(vfs.file_len(&f).unwrap(), 6);
        let g = dir.join("b");
        vfs.rename(&f, &g).unwrap();
        assert!(!vfs.exists(&f));
        assert_eq!(vfs.read(&g).unwrap(), b"onetwo");
        assert_eq!(vfs.list_dir(&dir).unwrap(), vec![g.clone()]);
        vfs.set_len(&g, 3).unwrap();
        assert_eq!(vfs.read(&g).unwrap(), b"one");
        vfs.remove_file(&g).unwrap();
        assert!(!vfs.exists(&g));
    }

    #[test]
    fn synced_data_survives_a_power_cycle() {
        let vfs = SimVfs::new(FaultPlan::none(7));
        let f = p("/d/log");
        vfs.append(&f, b"rec1").unwrap();
        vfs.sync_file(&f).unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        vfs.append(&f, b"rec2").unwrap(); // never synced
        vfs.power_cycle();
        let survived = vfs.read(&f).unwrap();
        assert!(survived.starts_with(b"rec1"), "synced prefix intact: {survived:?}");
        assert!(survived.len() <= 8, "unsynced suffix at most torn in: {survived:?}");
    }

    #[test]
    fn unsynced_file_may_vanish_entirely() {
        // Never synced, never dir-synced: some seed drops the file.
        let mut vanished = false;
        for seed in 0..32 {
            let vfs = SimVfs::new(FaultPlan::none(seed));
            let f = p("/d/x");
            vfs.write(&f, b"data").unwrap();
            vfs.power_cycle();
            if !vfs.exists(&f) {
                vanished = true;
                break;
            }
        }
        assert!(vanished, "an unsynced create should sometimes not survive");
    }

    #[test]
    fn crash_at_append_tears_the_write() {
        let plan = FaultPlan::none(3).with_crash_at(2);
        let vfs = SimVfs::new(plan);
        let f = p("/d/log");
        vfs.append(&f, b"first").unwrap();
        vfs.sync_file(&f).unwrap_err(); // op 2: power failure
        assert!(vfs.crashed());
        // all I/O now fails
        assert!(vfs.read(&f).is_err());
        assert!(vfs.append(&f, b"x").is_err());
        vfs.power_cycle();
        assert!(!vfs.crashed());
        // nothing was ever synced; whatever survived is a prefix of "first"
        if vfs.exists(&f) {
            let data = vfs.read(&f).unwrap();
            assert!(b"first".starts_with(&data[..]), "{data:?}");
        }
    }

    #[test]
    fn dropped_fsync_keeps_data_volatile() {
        let plan = FaultPlan::none(11).with_drop_fsync_one_in(1); // drop every sync
        let vfs = SimVfs::new(plan);
        let f = p("/d/log");
        vfs.append(&f, b"payload").unwrap();
        vfs.sync_file(&f).unwrap(); // lies
        assert_eq!(vfs.stats().dropped_syncs, 1);
        assert_eq!(vfs.stats().file_syncs, 0);
        vfs.power_cycle();
        if vfs.exists(&f) {
            let data = vfs.read(&f).unwrap();
            assert!(b"payload".starts_with(&data[..]), "lying sync promoted nothing: {data:?}");
        }
    }

    #[test]
    fn enospc_applies_a_partial_write_then_fails() {
        let plan = FaultPlan::none(5).with_enospc_at(2);
        let vfs = SimVfs::new(plan);
        let f = p("/d/log");
        vfs.append(&f, b"good").unwrap();
        let err = vfs.append(&f, b"overflow").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(!vfs.crashed(), "ENOSPC is not a crash");
        let data = vfs.read(&f).unwrap();
        assert!(data.starts_with(b"good") && data.len() <= 12, "{data:?}");
        // the file system keeps working afterwards
        vfs.set_len(&f, 4).unwrap();
        vfs.append(&f, b"more").unwrap();
        assert_eq!(vfs.read(&f).unwrap(), b"goodmore");
    }

    #[test]
    fn short_read_returns_strict_prefix() {
        let plan = FaultPlan::none(9).with_short_read_at(2);
        let vfs = SimVfs::new(plan);
        let f = p("/d/snap");
        vfs.write(&f, b"0123456789").unwrap();
        let short = vfs.read(&f).unwrap();
        assert!(short.len() < 10, "strictly short: {short:?}");
        assert!(b"0123456789".starts_with(&short[..]));
        // next read is whole again
        assert_eq!(vfs.read(&f).unwrap(), b"0123456789");
    }

    #[test]
    fn rename_can_survive_while_unsynced_content_tears() {
        // write tmp (no file sync!) → rename → crash: if the rename
        // survived, the target may hold torn content — the exact hazard
        // the snapshot protocol's write→fsync→rename ordering prevents.
        let mut saw_torn_target = false;
        for seed in 0..64 {
            let vfs = SimVfs::new(FaultPlan::none(seed));
            let tmp = p("/d/snap.tmp");
            let dst = p("/d/snap");
            vfs.write(&tmp, b"full snapshot contents").unwrap();
            vfs.rename(&tmp, &dst).unwrap();
            vfs.power_cycle();
            if vfs.exists(&dst) {
                let data = vfs.read(&dst).unwrap();
                if data.len() < 22 {
                    saw_torn_target = true;
                    break;
                }
            }
        }
        assert!(saw_torn_target, "unsynced rename should sometimes expose torn content");
    }

    #[test]
    fn fsync_before_rename_guarantees_content() {
        // The full discipline: write → fsync(file) → rename → fsync(dir).
        // After any crash, the target either has the complete content or
        // does not exist (never torn).
        for seed in 0..64 {
            let vfs = SimVfs::new(FaultPlan::none(seed));
            let tmp = p("/d/snap.tmp");
            let dst = p("/d/snap");
            vfs.write(&tmp, b"full snapshot contents").unwrap();
            vfs.sync_file(&tmp).unwrap();
            vfs.rename(&tmp, &dst).unwrap();
            vfs.power_cycle(); // crash before the dir sync: rename is a coin flip
            if vfs.exists(&dst) {
                assert_eq!(vfs.read(&dst).unwrap(), b"full snapshot contents", "seed {seed}");
            }
        }
        // and with the dir sync, the rename always survives
        let vfs = SimVfs::new(FaultPlan::none(1234));
        vfs.write(&p("/d/snap.tmp"), b"x").unwrap();
        vfs.sync_file(&p("/d/snap.tmp")).unwrap();
        vfs.rename(&p("/d/snap.tmp"), &p("/d/snap")).unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        vfs.power_cycle();
        assert_eq!(vfs.read(&p("/d/snap")).unwrap(), b"x");
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let vfs = SimVfs::new(FaultPlan::none(seed).with_crash_at(6));
            let f = p("/d/log");
            let mut acked = 0;
            for i in 0..10 {
                let rec = format!("record-{i:04}");
                if vfs.append(&f, rec.as_bytes()).is_err() {
                    break;
                }
                if vfs.sync_file(&f).is_err() {
                    break;
                }
                acked += 1;
            }
            vfs.power_cycle();
            (acked, vfs.dump())
        };
        let (a1, d1) = run(42);
        let (a2, d2) = run(42);
        assert_eq!(a1, a2);
        assert_eq!(d1, d2, "same seed → byte-identical post-crash state");
        let (_, d3) = run(43);
        // different seeds usually tear differently; equality would be a
        // (legal) coincidence, so only check determinism held above
        let _ = d3;
    }

    #[test]
    fn real_vfs_random_access_roundtrip() {
        let dir = std::env::temp_dir().join(format!("idl-vfs-ra-{}", std::process::id()));
        let vfs = RealVfs::new();
        vfs.create_dir_all(&dir).unwrap();
        let f = dir.join("pages.bin");
        // writing past EOF extends with zeros
        vfs.write_at(&f, 8, b"BBBB").unwrap();
        vfs.write_at(&f, 0, b"AAAA").unwrap();
        assert_eq!(vfs.read_at(&f, 0, 12).unwrap(), b"AAAA\0\0\0\0BBBB");
        assert_eq!(vfs.read_at(&f, 8, 4).unwrap(), b"BBBB");
        // a read past EOF comes back short, never errors
        assert_eq!(vfs.read_at(&f, 10, 8).unwrap(), b"BB");
        let st = vfs.stats();
        assert_eq!((st.preads, st.pwrites), (3, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sim_random_access_matches_real_semantics() {
        let vfs = SimVfs::new(FaultPlan::none(2));
        let f = p("/d/pages.bin");
        vfs.write_at(&f, 8, b"BBBB").unwrap();
        vfs.write_at(&f, 0, b"AAAA").unwrap();
        assert_eq!(vfs.read_at(&f, 0, 12).unwrap(), b"AAAA\0\0\0\0BBBB");
        assert_eq!(vfs.read_at(&f, 10, 8).unwrap(), b"BB");
        assert_eq!(vfs.file_len(&f).unwrap(), 12);
        let st = vfs.stats();
        assert_eq!((st.preads, st.pwrites), (2, 2));
    }

    #[test]
    fn synced_page_writes_survive_a_power_cycle() {
        let vfs = SimVfs::new(FaultPlan::none(17));
        let f = p("/d/pages.bin");
        vfs.write_at(&f, 0, &[0xAA; 64]).unwrap();
        vfs.write_at(&f, 64, &[0xBB; 64]).unwrap();
        vfs.sync_file(&f).unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        vfs.power_cycle();
        assert_eq!(vfs.read_at(&f, 0, 64).unwrap(), vec![0xAA; 64]);
        assert_eq!(vfs.read_at(&f, 64, 64).unwrap(), vec![0xBB; 64]);
    }

    #[test]
    fn unsynced_page_writes_tear_per_range() {
        // One synced base page, then two unsynced range writes. After the
        // cycle the synced page is intact, and each unsynced range holds
        // old bytes, new bytes, or a torn boundary between them — across
        // seeds all three outcomes appear for at least one range.
        let (mut lost, mut kept, mut torn) = (false, false, false);
        for seed in 0..64 {
            let vfs = SimVfs::new(FaultPlan::none(seed));
            let f = p("/d/pages.bin");
            vfs.write_at(&f, 0, &[0x11; 96]).unwrap();
            vfs.sync_file(&f).unwrap();
            vfs.sync_dir(&p("/d")).unwrap();
            vfs.write_at(&f, 32, &[0x22; 32]).unwrap();
            vfs.write_at(&f, 64, &[0x33; 32]).unwrap();
            vfs.power_cycle();
            let data = vfs.read(&f).unwrap();
            assert_eq!(&data[..32], &[0x11; 32], "synced page intact (seed {seed})");
            for (range, new) in [(32..64, 0x22u8), (64..96, 0x33u8)] {
                let slice = &data[range];
                if slice.iter().all(|&b| b == 0x11) {
                    lost = true;
                } else if slice.iter().all(|&b| b == new) {
                    kept = true;
                } else {
                    // a prefix of new bytes, then old bytes
                    let flip = slice.iter().position(|&b| b == 0x11).unwrap();
                    assert!(slice[..flip].iter().all(|&b| b == new), "seed {seed}");
                    assert!(slice[flip..].iter().all(|&b| b == 0x11), "seed {seed}");
                    torn = true;
                }
            }
        }
        assert!(lost && kept && torn, "lost={lost} kept={kept} torn={torn}");
    }

    #[test]
    fn page_write_schedules_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let vfs = SimVfs::new(FaultPlan::none(seed).with_crash_at(5));
            let f = p("/d/pages.bin");
            for i in 0..8u64 {
                if vfs.write_at(&f, i * 16, &[i as u8; 16]).is_err() {
                    break;
                }
            }
            vfs.power_cycle();
            vfs.dump()
        };
        assert_eq!(run(99), run(99), "same seed → byte-identical post-crash pages");
    }

    #[test]
    fn fault_plan_serialises_for_one_line_repro() {
        let plan = FaultPlan::none(99)
            .with_crash_at(17)
            .with_enospc_at(3)
            .with_short_read_at(21)
            .with_drop_fsync_one_in(4);
        let line = plan.to_string();
        assert_eq!(line, "seed=99,crash_at=17,enospc_at=3,short_read_at=21,drop_fsync_one_in=4");
        let back: FaultPlan = line.parse().unwrap();
        assert_eq!(back, plan);
        // minimal form
        let minimal: FaultPlan = "seed=5".parse().unwrap();
        assert_eq!(minimal, FaultPlan::none(5));
        // errors are descriptive
        assert!("crash_at=1".parse::<FaultPlan>().is_err(), "seed required");
        assert!("seed=1,bogus=2".parse::<FaultPlan>().is_err());
        // the crash error message embeds the plan for copy-paste repro
        let vfs = SimVfs::new(FaultPlan::none(7).with_crash_at(1));
        let err = vfs.write(&p("/d/x"), b"y").unwrap_err();
        assert!(err.to_string().contains("seed=7,crash_at=1"), "{err}");
    }
}
