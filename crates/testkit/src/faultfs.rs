//! Deterministic fault-injecting in-memory filesystem for spill I/O.
//!
//! The external sorter talks to storage through a narrow interface
//! (create / write / flush / read / delete of run files). [`FaultFs`] is
//! an in-memory implementation of that surface that injects failures from
//! a seeded [`FaultSchedule`], so tests and the `stress` binary can
//! deterministically exercise every error path the real filesystem can
//! produce — without touching the disk and with exact reproducibility
//! from a printed seed:
//!
//! * **write error at byte N** — `write` fails with a chosen
//!   [`io::ErrorKind`] once a file's cursor crosses the offset (fires
//!   once; a rewritten file is a new creation ordinal, so retries model
//!   transient failures naturally),
//! * **flush error** — a file's first `flush` fails with a chosen
//!   [`io::ErrorKind`] (its bytes stay written; the caller decides),
//! * **ENOSPC after K bytes** — once the filesystem stores K total bytes,
//!   every further write fails with [`io::ErrorKind::StorageFull`],
//! * **short read** — `open` yields a reader over a truncated prefix,
//! * **bit-flip corruption** — one bit of the stored contents flips the
//!   first time the file is opened,
//! * **delete-on-close** — the file silently vanishes when its writer is
//!   dropped (models a tmp-reaper racing the sort),
//! * **delete error** — `delete` fails with `PermissionDenied` and the
//!   file stays behind (models an undeletable temp file; the caller's
//!   leak accounting must notice).
//!
//! Faults target files by **creation ordinal** (the n-th file ever
//! created on this filesystem), which is stable for a deterministic
//! workload. Each spec fires at most once. [`FaultFs::stats`] reports
//! which faults actually triggered, and [`FaultFs::live_files`] lists
//! surviving files so callers can assert leak-freedom.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::rng::Rng;

/// One kind of injectable failure. See the module docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `write` fails with this error kind when the file cursor crosses
    /// the spec's byte offset.
    WriteError(io::ErrorKind),
    /// The file's first `flush` fails with this error kind.
    FlushError(io::ErrorKind),
    /// `open` returns a reader over only the first `at_byte` bytes.
    ShortRead,
    /// Flip bit `bit` of the byte at `at_byte` when the file is opened.
    BitFlip,
    /// Remove the file when its writer is dropped.
    DeleteOnClose,
    /// `delete` fails with `PermissionDenied`; the file stays.
    DeleteError,
}

/// A single scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Target file by creation ordinal (0 = first file ever created).
    pub file: usize,
    /// Byte-offset parameter (trigger offset for write errors, truncation
    /// point for short reads, flipped byte for bit flips; unused
    /// otherwise).
    pub at_byte: u64,
    /// Bit index (0..8) for [`FaultKind::BitFlip`]; unused otherwise.
    pub bit: u8,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic set of faults plus an optional global disk capacity.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    /// Individual faults; each fires at most once.
    pub specs: Vec<FaultSpec>,
    /// Total bytes the filesystem will store before every further write
    /// fails with [`io::ErrorKind::StorageFull`].
    pub disk_capacity: Option<u64>,
}

impl FaultSchedule {
    /// A schedule that never injects anything (the fault-free baseline).
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Generate a random schedule from a seeded generator: up to three
    /// faults over the first `expected_files` files, plus (one time in
    /// four) a disk capacity somewhere below `expected_bytes`. Fully
    /// determined by the `rng` state.
    pub fn generate(rng: &mut Rng, expected_files: usize, expected_bytes: u64) -> FaultSchedule {
        let kinds = [
            FaultKind::WriteError(io::ErrorKind::Interrupted),
            FaultKind::WriteError(io::ErrorKind::TimedOut),
            FaultKind::WriteError(io::ErrorKind::Other),
            FaultKind::ShortRead,
            FaultKind::BitFlip,
            FaultKind::DeleteOnClose,
            FaultKind::DeleteError,
        ];
        let files = expected_files.max(1) as u64;
        let bytes = expected_bytes.max(1);
        let mut specs = Vec::new();
        for _ in 0..rng.below(4) {
            specs.push(FaultSpec {
                file: rng.below(files) as usize,
                at_byte: rng.below(bytes),
                bit: rng.below(8) as u8,
                kind: *rng.pick(&kinds),
            });
        }
        let disk_capacity = rng.chance(0.25).then(|| rng.below(bytes));
        FaultSchedule {
            specs,
            disk_capacity,
        }
    }
}

/// Counts of faults that actually fired (plus file-lifecycle totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Files ever created.
    pub files_created: u64,
    /// Files removed via `delete`.
    pub files_deleted: u64,
    /// Injected write errors (excluding ENOSPC).
    pub write_errors: u64,
    /// Injected flush errors.
    pub flush_errors: u64,
    /// Writes rejected by the disk-capacity budget.
    pub enospc_errors: u64,
    /// Opens that returned a truncated prefix.
    pub short_reads: u64,
    /// Bits flipped in stored contents.
    pub bit_flips: u64,
    /// Files silently removed when their writer closed.
    pub deletes_on_close: u64,
    /// `delete` calls that failed with an injected error.
    pub delete_errors: u64,
}

impl FaultStats {
    /// Total injected faults that fired (lifecycle counters excluded).
    pub fn faults_fired(&self) -> u64 {
        self.write_errors
            + self.flush_errors
            + self.enospc_errors
            + self.short_reads
            + self.bit_flips
            + self.deletes_on_close
            + self.delete_errors
    }
}

struct FileEntry {
    data: Vec<u8>,
    ordinal: usize,
}

struct Inner {
    schedule: FaultSchedule,
    /// Parallel to `schedule.specs`: whether each spec already fired.
    fired: Vec<bool>,
    files: BTreeMap<String, FileEntry>,
    next_ordinal: usize,
    stored_bytes: u64,
    stats: FaultStats,
}

impl Inner {
    /// Find the first unfired spec of `kind_match` targeting `ordinal`,
    /// mark it fired, and return it.
    fn take_spec(
        &mut self,
        ordinal: usize,
        mut matches: impl FnMut(&FaultSpec) -> bool,
    ) -> Option<FaultSpec> {
        for (i, spec) in self.schedule.specs.iter().enumerate() {
            if !self.fired[i] && spec.file == ordinal && matches(spec) {
                self.fired[i] = true;
                return Some(*spec);
            }
        }
        None
    }

    /// As [`Inner::take_spec`] but without consuming — used for write
    /// errors, which must only fire once the cursor crosses the offset.
    fn peek_spec(
        &self,
        ordinal: usize,
        mut matches: impl FnMut(&FaultSpec) -> bool,
    ) -> Option<(usize, FaultSpec)> {
        self.schedule
            .specs
            .iter()
            .enumerate()
            .find(|(i, spec)| !self.fired[*i] && spec.file == ordinal && matches(spec))
            .map(|(i, spec)| (i, *spec))
    }
}

/// The shared fault-injecting filesystem. Cloning shares the same
/// underlying namespace, schedule, and statistics.
#[derive(Clone)]
pub struct FaultFs {
    inner: Arc<Mutex<Inner>>,
}

impl FaultFs {
    /// A filesystem injecting from `schedule`.
    pub fn new(schedule: FaultSchedule) -> FaultFs {
        let fired = vec![false; schedule.specs.len()];
        FaultFs {
            inner: Arc::new(Mutex::new(Inner {
                schedule,
                fired,
                files: BTreeMap::new(),
                next_ordinal: 0,
                stored_bytes: 0,
                stats: FaultStats::default(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Create (or truncate) a file and return its writer.
    pub fn create(&self, name: &str) -> io::Result<FaultWriter> {
        let mut inner = self.lock();
        let ordinal = inner.next_ordinal;
        inner.next_ordinal += 1;
        inner.stats.files_created += 1;
        // Truncating an existing file releases its stored bytes.
        if let Some(old) = inner.files.remove(name) {
            inner.stored_bytes = inner.stored_bytes.saturating_sub(old.data.len() as u64);
        }
        inner.files.insert(
            name.to_owned(),
            FileEntry {
                data: Vec::new(),
                ordinal,
            },
        );
        Ok(FaultWriter {
            fs: self.clone(),
            name: name.to_owned(),
            ordinal,
            written: 0,
        })
    }

    /// Open a file for reading, applying any scheduled read-side faults.
    pub fn open(&self, name: &str) -> io::Result<FaultReader> {
        let mut inner = self.lock();
        let (ordinal, len) = match inner.files.get(name) {
            Some(f) => (f.ordinal, f.data.len() as u64),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("faultfs: no such file: {name}"),
                ))
            }
        };
        // Bit-flip corruption mutates the stored contents (a persistent
        // media error, visible to every subsequent reader).
        if let Some(spec) =
            inner.take_spec(ordinal, |s| s.kind == FaultKind::BitFlip && s.at_byte < len)
        {
            inner.stats.bit_flips += 1;
            if let Some(f) = inner.files.get_mut(name) {
                f.data[spec.at_byte as usize] ^= 1 << (spec.bit % 8);
            }
        }
        let mut data = match inner.files.get(name) {
            Some(f) => f.data.clone(),
            None => Vec::new(),
        };
        if let Some(spec) = inner.take_spec(ordinal, |s| s.kind == FaultKind::ShortRead) {
            inner.stats.short_reads += 1;
            data.truncate((spec.at_byte.min(len)) as usize);
        }
        Ok(FaultReader { data, pos: 0 })
    }

    /// Delete a file. Fails with `NotFound` if absent, or with an
    /// injected `PermissionDenied` (leaving the file behind) when a
    /// [`FaultKind::DeleteError`] targets it.
    pub fn delete(&self, name: &str) -> io::Result<()> {
        let mut inner = self.lock();
        let ordinal = match inner.files.get(name) {
            Some(f) => f.ordinal,
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("faultfs: no such file: {name}"),
                ))
            }
        };
        if inner
            .take_spec(ordinal, |s| s.kind == FaultKind::DeleteError)
            .is_some()
        {
            inner.stats.delete_errors += 1;
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("faultfs: injected delete failure: {name}"),
            ));
        }
        if let Some(old) = inner.files.remove(name) {
            inner.stored_bytes = inner.stored_bytes.saturating_sub(old.data.len() as u64);
        }
        inner.stats.files_deleted += 1;
        Ok(())
    }

    /// Names of all files currently stored (the leak check).
    pub fn live_files(&self) -> Vec<String> {
        self.lock().files.keys().cloned().collect()
    }

    /// Raw contents of a stored file, if present (for test assertions).
    pub fn contents(&self, name: &str) -> Option<Vec<u8>> {
        self.lock().files.get(name).map(|f| f.data.clone())
    }

    /// Lifecycle and fired-fault counters.
    pub fn stats(&self) -> FaultStats {
        self.lock().stats
    }

    /// Total bytes currently stored across all files.
    pub fn stored_bytes(&self) -> u64 {
        self.lock().stored_bytes
    }
}

/// Writer half of a [`FaultFs`] file.
pub struct FaultWriter {
    fs: FaultFs,
    name: String,
    ordinal: usize,
    written: u64,
}

impl Write for FaultWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut inner = self.fs.lock();
        // Injected write error: fires once the cursor would cross the
        // spec's offset (so a run of small writes hits it exactly once).
        let hit = inner.peek_spec(self.ordinal, |s| {
            matches!(s.kind, FaultKind::WriteError(_))
                && self.written + buf.len() as u64 > s.at_byte
        });
        if let Some((i, spec)) = hit {
            inner.fired[i] = true;
            inner.stats.write_errors += 1;
            let FaultKind::WriteError(kind) = spec.kind else {
                unreachable!("peek_spec matched WriteError only");
            };
            return Err(io::Error::new(
                kind,
                format!(
                    "faultfs: injected write error at byte {} of {}",
                    spec.at_byte, self.name
                ),
            ));
        }
        if let Some(cap) = inner.schedule.disk_capacity {
            if inner.stored_bytes + buf.len() as u64 > cap {
                inner.stats.enospc_errors += 1;
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!("faultfs: disk capacity {cap} bytes exhausted"),
                ));
            }
        }
        match inner.files.get_mut(&self.name) {
            Some(f) if f.ordinal == self.ordinal => f.data.extend_from_slice(buf),
            // The file was deleted or replaced under this writer; writes
            // to the orphaned handle vanish (as with an unlinked fd).
            _ => return Ok(buf.len()),
        }
        inner.stored_bytes += buf.len() as u64;
        self.written += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut inner = self.fs.lock();
        let spec = inner.take_spec(self.ordinal, |s| matches!(s.kind, FaultKind::FlushError(_)));
        let Some(FaultKind::FlushError(kind)) = spec.map(|s| s.kind) else {
            return Ok(());
        };
        inner.stats.flush_errors += 1;
        let detail = format!("faultfs: injected flush error on {}", self.name);
        Err(io::Error::new(kind, detail))
    }
}

impl Drop for FaultWriter {
    fn drop(&mut self) {
        let mut inner = self.fs.lock();
        if inner
            .take_spec(self.ordinal, |s| s.kind == FaultKind::DeleteOnClose)
            .is_some()
        {
            inner.stats.deletes_on_close += 1;
            if let Some(old) = inner.files.remove(&self.name) {
                inner.stored_bytes = inner.stored_bytes.saturating_sub(old.data.len() as u64);
            }
        }
    }
}

/// Reader half of a [`FaultFs`] file: a cursor over a snapshot taken at
/// open time (with read-side faults already applied).
#[derive(Debug)]
pub struct FaultReader {
    data: Vec<u8>,
    pos: usize,
}

impl Read for FaultReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(file: usize, at_byte: u64, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            file,
            at_byte,
            bit: 0,
            kind,
        }
    }

    fn write_file(fs: &FaultFs, name: &str, data: &[u8]) {
        let mut w = fs.create(name).unwrap();
        w.write_all(data).unwrap();
        w.flush().unwrap();
    }

    fn read_file(fs: &FaultFs, name: &str) -> Vec<u8> {
        let mut out = Vec::new();
        fs.open(name).unwrap().read_to_end(&mut out).unwrap();
        out
    }

    #[test]
    fn fault_free_roundtrip_and_lifecycle() {
        let fs = FaultFs::new(FaultSchedule::none());
        write_file(&fs, "a.run", b"hello");
        write_file(&fs, "b.run", b"world!");
        assert_eq!(read_file(&fs, "a.run"), b"hello");
        assert_eq!(
            fs.live_files(),
            vec!["a.run".to_owned(), "b.run".to_owned()]
        );
        assert_eq!(fs.stored_bytes(), 11);
        fs.delete("a.run").unwrap();
        assert_eq!(fs.live_files(), vec!["b.run".to_owned()]);
        assert_eq!(
            fs.delete("a.run").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        let st = fs.stats();
        assert_eq!(st.files_created, 2);
        assert_eq!(st.files_deleted, 1);
        assert_eq!(st.faults_fired(), 0);
    }

    #[test]
    fn write_error_fires_once_at_offset() {
        // TimedOut, not Interrupted: `write_all` transparently retries
        // Interrupted per std semantics and would swallow the injection.
        let fs = FaultFs::new(FaultSchedule {
            specs: vec![spec(0, 3, FaultKind::WriteError(io::ErrorKind::TimedOut))],
            disk_capacity: None,
        });
        let mut w = fs.create("x.run").unwrap();
        w.write_all(b"ab").unwrap(); // cursor 2, below the offset
        let err = w.write_all(b"cd").unwrap_err(); // would cross byte 3
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // The spec fired; the next file (a retry) succeeds.
        drop(w);
        let mut w = fs.create("x.run").unwrap();
        w.write_all(b"abcdef").unwrap();
        drop(w);
        assert_eq!(read_file(&fs, "x.run"), b"abcdef");
        assert_eq!(fs.stats().write_errors, 1);
    }

    #[test]
    fn flush_error_fires_once_and_keeps_the_bytes() {
        let fs = FaultFs::new(FaultSchedule {
            specs: vec![spec(0, 0, FaultKind::FlushError(io::ErrorKind::Other))],
            disk_capacity: None,
        });
        let mut w = fs.create("f.run").unwrap();
        w.write_all(b"abc").unwrap();
        assert_eq!(w.flush().unwrap_err().kind(), io::ErrorKind::Other);
        w.flush().unwrap();
        drop(w);
        assert_eq!(read_file(&fs, "f.run"), b"abc");
        assert_eq!(fs.stats().flush_errors, 1);
        assert_eq!(fs.stats().faults_fired(), 1);
    }

    #[test]
    fn enospc_applies_to_all_files_once_capacity_reached() {
        let fs = FaultFs::new(FaultSchedule {
            specs: vec![],
            disk_capacity: Some(8),
        });
        write_file(&fs, "a.run", b"12345678");
        let mut w = fs.create("b.run").unwrap();
        let err = w.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // Deleting frees space again.
        fs.delete("a.run").unwrap();
        w.write_all(b"x").unwrap();
        assert_eq!(fs.stats().enospc_errors, 1);
    }

    #[test]
    fn short_read_truncates_one_open() {
        let fs = FaultFs::new(FaultSchedule {
            specs: vec![spec(0, 4, FaultKind::ShortRead)],
            disk_capacity: None,
        });
        write_file(&fs, "s.run", b"0123456789");
        assert_eq!(read_file(&fs, "s.run"), b"0123");
        // Fires once; the next open sees the full file.
        assert_eq!(read_file(&fs, "s.run"), b"0123456789");
        assert_eq!(fs.stats().short_reads, 1);
    }

    #[test]
    fn bit_flip_corrupts_stored_contents() {
        let fs = FaultFs::new(FaultSchedule {
            specs: vec![FaultSpec {
                file: 0,
                at_byte: 2,
                bit: 5,
                kind: FaultKind::BitFlip,
            }],
            disk_capacity: None,
        });
        write_file(&fs, "c.run", b"AAAA");
        let got = read_file(&fs, "c.run");
        assert_eq!(got, [b'A', b'A', b'A' ^ (1 << 5), b'A']);
        // Persistent: the stored bytes changed, not just one reader's view.
        assert_eq!(read_file(&fs, "c.run"), got);
        assert_eq!(fs.stats().bit_flips, 1);
    }

    #[test]
    fn bit_flip_beyond_eof_never_fires() {
        let fs = FaultFs::new(FaultSchedule {
            specs: vec![spec(0, 100, FaultKind::BitFlip)],
            disk_capacity: None,
        });
        write_file(&fs, "c.run", b"abc");
        assert_eq!(read_file(&fs, "c.run"), b"abc");
        assert_eq!(fs.stats().bit_flips, 0);
    }

    #[test]
    fn delete_on_close_vanishes_file() {
        let fs = FaultFs::new(FaultSchedule {
            specs: vec![spec(0, 0, FaultKind::DeleteOnClose)],
            disk_capacity: None,
        });
        write_file(&fs, "gone.run", b"data");
        assert!(fs.live_files().is_empty());
        assert_eq!(
            fs.open("gone.run").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert_eq!(fs.stats().deletes_on_close, 1);
        assert_eq!(fs.stored_bytes(), 0);
    }

    #[test]
    fn delete_error_leaves_file_behind() {
        let fs = FaultFs::new(FaultSchedule {
            specs: vec![spec(0, 0, FaultKind::DeleteError)],
            disk_capacity: None,
        });
        write_file(&fs, "stuck.run", b"data");
        let err = fs.delete("stuck.run").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(fs.live_files(), vec!["stuck.run".to_owned()]);
        // Fires once: a second delete succeeds.
        fs.delete("stuck.run").unwrap();
        assert!(fs.live_files().is_empty());
        assert_eq!(fs.stats().delete_errors, 1);
    }

    #[test]
    fn faults_target_creation_ordinals() {
        let fs = FaultFs::new(FaultSchedule {
            specs: vec![spec(1, 0, FaultKind::WriteError(io::ErrorKind::Other))],
            disk_capacity: None,
        });
        write_file(&fs, "first.run", b"ok");
        let mut w = fs.create("second.run").unwrap();
        assert!(w.write_all(b"x").is_err());
        drop(w);
        write_file(&fs, "third.run", b"ok");
        assert_eq!(fs.stats().write_errors, 1);
    }

    #[test]
    fn schedule_generation_is_deterministic() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        let sa = FaultSchedule::generate(&mut a, 8, 10_000);
        let sb = FaultSchedule::generate(&mut b, 8, 10_000);
        assert_eq!(sa.specs, sb.specs);
        assert_eq!(sa.disk_capacity, sb.disk_capacity);
    }

    #[test]
    fn clones_share_one_namespace() {
        let fs = FaultFs::new(FaultSchedule::none());
        let fs2 = fs.clone();
        write_file(&fs, "shared.run", b"abc");
        assert_eq!(read_file(&fs2, "shared.run"), b"abc");
        fs2.delete("shared.run").unwrap();
        assert!(fs.live_files().is_empty());
    }
}
