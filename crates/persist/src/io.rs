//! Injectable I/O: the seam the fault-injection harness plugs into.
//!
//! Every durable write in this crate — WAL appends, snapshot and catalog
//! replacement — goes through the [`Io`] / [`DurableFile`] traits instead of
//! `std::fs` directly. Production uses [`RealIo`], a zero-cost passthrough.
//! Tests use [`FaultIo`], which wraps the real filesystem but consults a
//! seeded [`FaultInjector`] before each operation, so a test can arrange for
//! *exactly* the n-th fsync on the WAL to fail, or the next snapshot write
//! to hit ENOSPC, and replay the same schedule deterministically from its
//! seed.
//!
//! The injector models the failure semantics that actually bite real
//! systems, not idealized ones:
//!
//! * **Failed fsync ([`FaultKind::FsyncFail`])** follows the *fsyncgate*
//!   model: when fsync fails, an unknown subset of the not-yet-synced bytes
//!   made it to disk (a seeded prefix here), the rest are gone, and — the
//!   treacherous part — a *retried* fsync on the same descriptor reports
//!   success without bringing the lost bytes back. Callers must treat the
//!   handle as unusable and re-open-and-verify.
//! * **Short writes ([`FaultKind::ShortWrite`])** persist a seeded prefix of
//!   the buffer and fail, modelling a torn write at crash or a partial
//!   `write(2)` the caller failed to resume.
//! * **ENOSPC ([`FaultKind::Enospc`])** fails before any byte is written.
//! * **Read corruption ([`FaultKind::ReadCorrupt`])** flips one seeded bit
//!   in the bytes returned by a read, which the frame CRCs must catch.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "this module is the I/O seam: the only library code that calls std::fs"
)]

use std::fmt;
use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pbds_sync::TrackedMutex;

/// A writable durable file handle, behind the real `File` in production.
///
/// Object-safe so [`MutationWal`](crate::MutationWal) and the atomic
/// replacement path can hold `Box<dyn DurableFile>` without generics
/// leaking into their public types.
pub trait DurableFile: Send + fmt::Debug {
    /// Write the whole buffer (or fail, possibly after a partial write).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush file *data* to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flush data and metadata to stable storage (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncate or extend the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Position the write cursor at absolute offset `pos`.
    fn seek_to(&mut self, pos: u64) -> io::Result<()>;
}

/// The filesystem operations the durability layer performs, as an injectable
/// seam. [`RealIo`] passes straight through to `std::fs`; [`FaultIo`]
/// interposes a [`FaultInjector`].
pub trait Io: Send + Sync + fmt::Debug {
    /// Whether a file exists. Faults are never injected here: existence is
    /// a pure metadata probe both implementations answer from the real
    /// filesystem.
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    /// Read an entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create (truncating) a file for writing — the temp-file half of
    /// atomic replacement.
    fn create(&self, path: &Path) -> io::Result<Box<dyn DurableFile>>;
    /// Open (creating if missing, *not* truncating) a read/write file — the
    /// WAL's append handle.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn DurableFile>>;
    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsync a directory so a rename within it is durable. Best-effort on
    /// platforms where directories cannot be opened.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Recursively create a directory. Metadata-only, so the default
    /// passthrough suits every implementation; it exists on the trait so
    /// callers (e.g. `pbds-core`'s store bootstrap) never touch `std::fs`
    /// directly.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }
}

/// The production [`Io`]: a zero-state passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

#[derive(Debug)]
struct RealFile(fs::File);

impl DurableFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(pos)).map(|_| ())
    }
}

fn open_rw_options(path: &Path) -> io::Result<fs::File> {
    fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .read(true)
        .write(true)
        .open(path)
}

impl Io for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn DurableFile>> {
        Ok(Box::new(RealFile(fs::File::create(path)?)))
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn DurableFile>> {
        Ok(Box::new(RealFile(open_rw_options(path)?)))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        fs::File::open(dir)?.sync_all()
    }
}

/// Which durability file an operation touches, classified from its path so
/// fault specs can target "the WAL" or "the snapshot" without plumbing
/// context through every call site. Temp files inherit the class of the
/// file they will be renamed to (`snapshot.tmp` is a [`FileClass::Snapshot`]
/// operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// The mutation WAL.
    Wal,
    /// A database snapshot (including its temp file).
    Snapshot,
    /// A persisted sketch catalog (including its temp file).
    Catalog,
    /// Anything else.
    Other,
}

impl FileClass {
    /// Classify a path by its file name.
    pub fn of(path: &Path) -> FileClass {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.contains("wal") {
            FileClass::Wal
        } else if name.contains("snapshot") {
            FileClass::Snapshot
        } else if name.contains("catalog") {
            FileClass::Catalog
        } else {
            FileClass::Other
        }
    }
}

/// The injectable failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// fsync/fdatasync fails; a seeded subset of unsynced bytes is lost and
    /// later fsyncs on the same handle falsely succeed (fsyncgate).
    FsyncFail,
    /// A write persists only a seeded prefix of its buffer, then fails.
    ShortWrite,
    /// A write fails before persisting anything (disk full).
    Enospc,
    /// A read returns its bytes with one seeded bit flipped.
    ReadCorrupt,
}

/// One armed fault: fire `kind` on the (`skip`+1)-th matching operation
/// against a file of `class`. Each spec fires exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The failure to inject.
    pub kind: FaultKind,
    /// Which durability file to target.
    pub class: FileClass,
    /// How many matching operations to let through first.
    pub skip: u64,
}

#[derive(Debug)]
struct InjectorState {
    armed: Vec<(FaultSpec, u64)>,
    rng: u64,
    fired: Vec<String>,
}

/// A deterministic, seeded source of injected I/O faults, shared (via
/// `Arc`) between the [`FaultIo`] handles of one test schedule.
///
/// Arm faults with [`FaultInjector::inject`]; each fires once, on the
/// (`skip`+1)-th matching operation. Where a fault needs a quantity — how
/// much of a short write survives, which bit of a read flips — it draws from
/// a splitmix64 stream seeded at construction, so the same seed replays the
/// same damage byte-for-byte.
#[derive(Debug)]
pub struct FaultInjector {
    state: TrackedMutex<InjectorState>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

enum WriteFault {
    None,
    Short(usize),
    Enospc,
}

impl FaultInjector {
    /// A new injector with no faults armed, drawing quantities from `seed`.
    pub fn new(seed: u64) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            state: TrackedMutex::new(
                "persist.fault_injector",
                InjectorState {
                    armed: Vec::new(),
                    rng: seed ^ 0xA076_1D64_78BD_642F,
                    fired: Vec::new(),
                },
            ),
        })
    }

    /// Arm one fault. Multiple faults may be armed; each fires at most once.
    pub fn inject(&self, spec: FaultSpec) {
        let mut s = self.state.lock();
        let skip = spec.skip;
        s.armed.push((spec, skip));
    }

    /// Descriptions of every fault that has fired, in firing order.
    pub fn fired(&self) -> Vec<String> {
        self.state.lock().fired.clone()
    }

    /// How many armed faults have not fired yet.
    pub fn armed_remaining(&self) -> usize {
        self.state.lock().armed.len()
    }

    /// Find an armed spec matching (kinds, class); count the operation
    /// against its skip budget and pop it if it fires.
    fn take(&self, kinds: &[FaultKind], class: FileClass) -> Option<(FaultKind, u64)> {
        let mut s = self.state.lock();
        let idx = s
            .armed
            .iter()
            .position(|(spec, _)| kinds.contains(&spec.kind) && spec.class == class)?;
        if s.armed[idx].1 > 0 {
            s.armed[idx].1 -= 1;
            return None;
        }
        let (spec, _) = s.armed.remove(idx);
        let draw = splitmix64(&mut s.rng);
        s.fired.push(format!(
            "{:?} on {:?} (skip {})",
            spec.kind, class, spec.skip
        ));
        Some((spec.kind, draw))
    }

    fn decide_write(&self, class: FileClass, len: usize) -> WriteFault {
        match self.take(&[FaultKind::ShortWrite, FaultKind::Enospc], class) {
            Some((FaultKind::ShortWrite, draw)) => {
                // Keep a strict prefix so the failure is visible on disk.
                WriteFault::Short(if len == 0 { 0 } else { draw as usize % len })
            }
            Some((FaultKind::Enospc, _)) => WriteFault::Enospc,
            _ => WriteFault::None,
        }
    }

    fn decide_sync(&self, class: FileClass) -> Option<u64> {
        self.take(&[FaultKind::FsyncFail], class).map(|(_, d)| d)
    }

    fn decide_read(&self, class: FileClass) -> Option<u64> {
        self.take(&[FaultKind::ReadCorrupt], class).map(|(_, d)| d)
    }
}

/// An [`Io`] that performs real filesystem operations but consults a
/// [`FaultInjector`] before each one.
#[derive(Debug, Clone)]
pub struct FaultIo {
    injector: Arc<FaultInjector>,
}

impl FaultIo {
    /// Wrap the real filesystem with `injector`.
    pub fn new(injector: Arc<FaultInjector>) -> FaultIo {
        FaultIo { injector }
    }

    /// The shared injector, for arming faults and inspecting what fired.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

impl Io for FaultIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = fs::read(path)?;
        if let Some(draw) = self.injector.decide_read(FileClass::of(path)) {
            if !bytes.is_empty() {
                let idx = (draw as usize) % bytes.len();
                let bit = 1u8 << ((draw >> 32) % 8);
                bytes[idx] ^= bit;
            }
        }
        Ok(bytes)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn DurableFile>> {
        Ok(Box::new(FaultFile {
            file: fs::File::create(path)?,
            path: path.to_path_buf(),
            class: FileClass::of(path),
            injector: Arc::clone(&self.injector),
            synced_len: 0,
        }))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn DurableFile>> {
        let file = open_rw_options(path)?;
        let synced_len = file.metadata()?.len();
        Ok(Box::new(FaultFile {
            file,
            path: path.to_path_buf(),
            class: FileClass::of(path),
            injector: Arc::clone(&self.injector),
            synced_len,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        fs::File::open(dir)?.sync_all()
    }
}

/// A real file that injects faults. Tracks `synced_len` — the length known
/// to be on stable storage — to model fsyncgate: an injected fsync failure
/// drops a seeded suffix of the unsynced bytes *and marks the rest synced*,
/// so a retried fsync on this handle reports success without restoring
/// anything.
#[derive(Debug)]
struct FaultFile {
    file: fs::File,
    #[allow(dead_code)] // diagnostic context for Debug output
    path: PathBuf,
    class: FileClass,
    injector: Arc<FaultInjector>,
    synced_len: u64,
}

impl DurableFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.injector.decide_write(self.class, buf.len()) {
            WriteFault::None => self.file.write_all(buf),
            WriteFault::Short(keep) => {
                self.file.write_all(&buf[..keep])?;
                Err(injected("short write"))
            }
            WriteFault::Enospc => Err(injected("no space left on device")),
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.sync(false)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.sync(true)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.synced_len = self.synced_len.min(len);
        Ok(())
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(pos)).map(|_| ())
    }
}

impl FaultFile {
    fn sync(&mut self, all: bool) -> io::Result<()> {
        if let Some(draw) = self.injector.decide_sync(self.class) {
            // fsyncgate: the kernel dropped the dirty pages. A seeded prefix
            // of the unsynced bytes survives on disk; the rest are gone for
            // good, and this handle will never report the loss again.
            let len = self.file.metadata()?.len();
            if len > self.synced_len {
                let keep = draw % (len - self.synced_len + 1);
                self.file.set_len(self.synced_len + keep)?;
            }
            self.synced_len = self.file.metadata()?.len();
            return Err(injected("fsync failure (unsynced bytes lost)"));
        }
        let result = if all {
            self.file.sync_all()
        } else {
            self.file.sync_data()
        };
        if result.is_ok() {
            self.synced_len = self.file.metadata()?.len();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.pbds")
    }

    #[test]
    fn real_io_round_trips() {
        let dir = test_dir("io_real_round_trip");
        let path = wal_path(&dir);
        let io = RealIo;
        let mut f = io.create(&path).unwrap();
        f.write_all(b"hello durable world").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert_eq!(io.read(&path).unwrap(), b"hello durable world");
        let mut f = io.open_rw(&path).unwrap();
        f.seek_to(6).unwrap();
        f.write_all(b"DURABLE").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(io.read(&path).unwrap(), b"hello DURABLE world");
    }

    #[test]
    fn file_class_covers_temp_files() {
        assert_eq!(FileClass::of(Path::new("/x/wal.pbds")), FileClass::Wal);
        assert_eq!(
            FileClass::of(Path::new("/x/snapshot.pbds")),
            FileClass::Snapshot
        );
        assert_eq!(
            FileClass::of(Path::new("/x/snapshot.tmp")),
            FileClass::Snapshot
        );
        assert_eq!(
            FileClass::of(Path::new("/x/catalog.tmp")),
            FileClass::Catalog
        );
        assert_eq!(FileClass::of(Path::new("/x/other.bin")), FileClass::Other);
    }

    #[test]
    fn short_write_keeps_a_strict_prefix_and_fails() {
        let dir = test_dir("io_short_write");
        let path = wal_path(&dir);
        let inj = FaultInjector::new(7);
        inj.inject(FaultSpec {
            kind: FaultKind::ShortWrite,
            class: FileClass::Wal,
            skip: 0,
        });
        let io = FaultIo::new(Arc::clone(&inj));
        let mut f = io.create(&path).unwrap();
        let err = f.write_all(&[0xAB; 64]).unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        let on_disk = fs::read(&path).unwrap();
        assert!(on_disk.len() < 64, "whole buffer persisted");
        assert!(on_disk.iter().all(|&b| b == 0xAB));
        assert_eq!(inj.fired().len(), 1);
        assert_eq!(inj.armed_remaining(), 0);
        // The fault was one-shot: the next write succeeds.
        f.write_all(&[0xCD; 8]).unwrap();
    }

    #[test]
    fn enospc_persists_nothing() {
        let dir = test_dir("io_enospc");
        let path = wal_path(&dir);
        let inj = FaultInjector::new(3);
        inj.inject(FaultSpec {
            kind: FaultKind::Enospc,
            class: FileClass::Wal,
            skip: 0,
        });
        let io = FaultIo::new(inj);
        let mut f = io.create(&path).unwrap();
        let err = f.write_all(&[1; 32]).unwrap_err();
        assert!(err.to_string().contains("no space"), "{err}");
        assert_eq!(fs::read(&path).unwrap().len(), 0);
    }

    #[test]
    fn failed_fsync_loses_unsynced_bytes_and_then_lies() {
        let dir = test_dir("io_fsyncgate");
        let path = wal_path(&dir);
        let inj = FaultInjector::new(42);
        inj.inject(FaultSpec {
            kind: FaultKind::FsyncFail,
            class: FileClass::Wal,
            skip: 0,
        });
        let io = FaultIo::new(Arc::clone(&inj));
        let mut f = io.create(&path).unwrap();
        f.write_all(&[1; 100]).unwrap();
        assert!(f.sync_data().is_err());
        let after_fail = fs::metadata(&path).unwrap().len();
        assert!(after_fail <= 100, "failed fsync extended the file");
        // The treacherous retry: reports success, restores nothing.
        f.sync_data().unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), after_fail);
        assert_eq!(inj.fired().len(), 1);
    }

    #[test]
    fn skip_counts_matching_operations_only() {
        let dir = test_dir("io_skip");
        let inj = FaultInjector::new(9);
        inj.inject(FaultSpec {
            kind: FaultKind::FsyncFail,
            class: FileClass::Wal,
            skip: 2,
        });
        let io = FaultIo::new(Arc::clone(&inj));
        // Syncs on a snapshot file never count against a Wal spec.
        let mut snap = io.create(&dir.join("snapshot.tmp")).unwrap();
        snap.write_all(b"s").unwrap();
        snap.sync_all().unwrap();
        let mut f = io.create(&wal_path(&dir)).unwrap();
        f.write_all(b"a").unwrap();
        f.sync_data().unwrap(); // skip 1
        f.sync_data().unwrap(); // skip 2
        assert!(f.sync_data().is_err()); // fires
        assert_eq!(inj.armed_remaining(), 0);
    }

    #[test]
    fn read_corruption_flips_exactly_one_bit_deterministically() {
        let dir = test_dir("io_read_corrupt");
        let path = dir.join("catalog.pbds");
        fs::write(&path, [0u8; 256]).unwrap();
        let corrupt_with = |seed: u64| {
            let inj = FaultInjector::new(seed);
            inj.inject(FaultSpec {
                kind: FaultKind::ReadCorrupt,
                class: FileClass::Catalog,
                skip: 0,
            });
            FaultIo::new(inj).read(&path).unwrap()
        };
        let a = corrupt_with(5);
        let b = corrupt_with(5);
        let c = corrupt_with(6);
        assert_eq!(a, b, "same seed, different damage");
        let flipped: u32 = a.iter().map(|&byte| byte.count_ones()).sum();
        assert_eq!(flipped, 1, "expected exactly one flipped bit");
        // A different seed lands (with overwhelming probability) elsewhere.
        assert_ne!(a, c);
        // An unarmed injector reads clean.
        let clean = FaultIo::new(FaultInjector::new(5)).read(&path).unwrap();
        assert_eq!(clean, vec![0u8; 256]);
    }
}
