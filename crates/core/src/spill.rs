//! Spill I/O abstraction and error taxonomy for the external sorter.
//!
//! [`ExternalSorter`](crate::external::ExternalSorter) talks to storage
//! only through the [`SpillIo`] trait — create, write/flush (via the
//! returned writer), read, delete of run files. Production uses
//! [`StdFs`] (plain `std::fs`); tests and the `stress` binary swap in
//! [`rowsort_testkit::faultfs::FaultFs`] to deterministically inject
//! write errors, ENOSPC, short reads, and corruption from a seeded
//! schedule.
//!
//! Failures surface as [`SpillError`] — a typed, cloneable error that
//! keeps the spill operation, the run-file path, and the underlying
//! [`io::ErrorKind`], so callers (and `EngineError`) can report *which*
//! file failed doing *what* instead of a bare `io::Error`. Corruption
//! detected by checksum verification is its own variant: it must never
//! be confused with an I/O failure, because the degradation ladder
//! treats them differently (I/O errors may be retried or absorbed;
//! corrupt data is fatal for that sort).

use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use rowsort_testkit::faultfs::FaultFs;

/// Which spill operation failed. Carried inside [`SpillError::Io`] so
/// error messages name the phase (`create`, `write`, …) without parsing
/// strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillOp {
    /// Creating/truncating a run file.
    Create,
    /// Writing run bytes.
    Write,
    /// Flushing buffered run bytes.
    Flush,
    /// Opening or reading a run file back.
    Read,
    /// Deleting a run file.
    Delete,
}

impl fmt::Display for SpillOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SpillOp::Create => "create",
            SpillOp::Write => "write",
            SpillOp::Flush => "flush",
            SpillOp::Read => "read",
            SpillOp::Delete => "delete",
        })
    }
}

/// A typed spill failure: what went wrong, on which file, doing what.
///
/// Stores the [`io::ErrorKind`] plus the error's rendered detail rather
/// than the `io::Error` itself so the type stays `Clone + PartialEq +
/// Eq` (and can thread through `EngineError`, which is both).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillError {
    /// An I/O operation on a run file failed.
    Io {
        /// The operation that failed.
        op: SpillOp,
        /// The run file involved.
        path: String,
        /// The underlying error kind (drives retry/degradation policy).
        kind: io::ErrorKind,
        /// The underlying error's message.
        detail: String,
    },
    /// A run file read back with contents that fail verification
    /// (checksum mismatch, truncation, or a structurally impossible
    /// record).
    Corrupt {
        /// The run file involved.
        path: String,
        /// What the verifier saw.
        detail: String,
    },
}

impl SpillError {
    /// Wrap an `io::Error` from `op` on `path`.
    pub fn io(op: SpillOp, path: &Path, err: &io::Error) -> SpillError {
        SpillError::Io {
            op,
            path: path.display().to_string(),
            kind: err.kind(),
            detail: err.to_string(),
        }
    }

    /// A corruption error for `path`.
    pub fn corrupt(path: &Path, detail: impl Into<String>) -> SpillError {
        SpillError::Corrupt {
            path: path.display().to_string(),
            detail: detail.into(),
        }
    }

    /// The run-file path this error refers to.
    pub fn path(&self) -> &str {
        match self {
            SpillError::Io { path, .. } | SpillError::Corrupt { path, .. } => path,
        }
    }

    /// True for error kinds worth a bounded retry: the write may succeed
    /// if simply attempted again.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SpillError::Io {
                kind: io::ErrorKind::Interrupted
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::TimedOut,
                ..
            }
        )
    }

    /// True when spill space is exhausted: retrying is pointless, but the
    /// sorter can degrade to keeping runs in memory.
    pub fn is_no_space(&self) -> bool {
        matches!(
            self,
            SpillError::Io {
                kind: io::ErrorKind::StorageFull | io::ErrorKind::QuotaExceeded,
                ..
            }
        )
    }
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io {
                op,
                path,
                kind,
                detail,
            } => write!(f, "spill {op} failed on {path}: {detail} ({kind:?})"),
            SpillError::Corrupt { path, detail } => {
                write!(f, "spill file corrupt: {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for SpillError {}

/// The storage surface the external sorter needs. Object-safe so the
/// sorter can hold an `Arc<dyn SpillIo>` and tests can swap backends.
pub trait SpillIo: Send + Sync {
    /// Create (truncating) a run file and return its writer. Writes and
    /// flushes go through the returned handle; dropping it closes the
    /// file.
    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>>;

    /// Open a run file for sequential reading.
    fn open(&self, path: &Path) -> io::Result<Box<dyn Read + Send>>;

    /// Open a run file positioned at byte `offset` — how the merge starts
    /// a cursor at the block its key range begins in. The default
    /// implementation opens and discards `offset` bytes, which is correct
    /// for any backend; backends with real seek support (like [`StdFs`])
    /// override it. An offset past the file's end may fail with
    /// [`io::ErrorKind::UnexpectedEof`] (as the default does) or succeed
    /// and read nothing (as a seek does): the sorter knows how long the
    /// file must be and calls either one truncation.
    fn open_at(&self, path: &Path, offset: u64) -> io::Result<Box<dyn Read + Send>> {
        let mut reader = self.open(path)?;
        let mut remaining = offset;
        let mut scratch = [0u8; 4096];
        while remaining > 0 {
            let want = scratch.len().min(remaining as usize);
            match reader.read(&mut scratch[..want]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("seek to {offset} ran past end of file"),
                    ));
                }
                Ok(n) => remaining -= n as u64,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(reader)
    }

    /// Delete a run file.
    fn delete(&self, path: &Path) -> io::Result<()>;
}

/// The default backend: plain `std::fs`, unbuffered — the sorter writes
/// and reads whole blocks through buffers of its own, which a `BufWriter`
/// or `BufReader` would only copy once more.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl SpillIo for StdFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(std::fs::File::create(path)?))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(std::fs::File::open(path)?))
    }

    fn open_at(&self, path: &Path, offset: u64) -> io::Result<Box<dyn Read + Send>> {
        let mut file = std::fs::File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        Ok(Box::new(file))
    }

    fn delete(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// The fault-injecting in-memory backend ([`FaultFs`]) speaks the same
/// interface, keyed by the path's string form.
impl SpillIo for FaultFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        FaultFs::create(self, &path.display().to_string()).map(|w| Box::new(w) as _)
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        FaultFs::open(self, &path.display().to_string()).map(|r| Box::new(r) as _)
    }

    fn delete(&self, path: &Path) -> io::Result<()> {
        FaultFs::delete(self, &path.display().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowsort_testkit::faultfs::FaultSchedule;
    use std::path::PathBuf;

    #[test]
    fn spill_error_carries_op_path_and_kind() {
        let path = PathBuf::from("/tmp/run-3.run");
        let io_err = io::Error::new(io::ErrorKind::TimedOut, "slow disk");
        let err = SpillError::io(SpillOp::Write, &path, &io_err);
        assert_eq!(err.path(), "/tmp/run-3.run");
        assert!(err.is_transient());
        assert!(!err.is_no_space());
        let text = err.to_string();
        assert!(text.contains("write"), "{text}");
        assert!(text.contains("/tmp/run-3.run"), "{text}");
        assert!(text.contains("slow disk"), "{text}");
    }

    #[test]
    fn no_space_kinds_are_not_transient() {
        let path = PathBuf::from("r.run");
        for kind in [io::ErrorKind::StorageFull, io::ErrorKind::QuotaExceeded] {
            let err = SpillError::io(SpillOp::Write, &path, &io::Error::new(kind, "full"));
            assert!(err.is_no_space());
            assert!(!err.is_transient());
        }
    }

    #[test]
    fn corrupt_is_neither_transient_nor_no_space() {
        let err = SpillError::corrupt(&PathBuf::from("r.run"), "checksum mismatch");
        assert!(!err.is_transient());
        assert!(!err.is_no_space());
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn errors_compare_equal_by_value() {
        let path = PathBuf::from("x.run");
        let a = SpillError::io(
            SpillOp::Read,
            &path,
            &io::Error::new(io::ErrorKind::NotFound, "gone"),
        );
        let b = SpillError::io(
            SpillOp::Read,
            &path,
            &io::Error::new(io::ErrorKind::NotFound, "gone"),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn std_fs_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rowsort-spill-test-{}.run", std::process::id()));
        let fs = StdFs;
        let mut w = fs.create(&path).unwrap();
        w.write_all(b"spill bytes").unwrap();
        w.flush().unwrap();
        drop(w);
        let mut got = Vec::new();
        fs.open(&path).unwrap().read_to_end(&mut got).unwrap();
        assert_eq!(got, b"spill bytes");
        fs.delete(&path).unwrap();
        assert!(fs.open(&path).is_err());
    }

    #[test]
    fn open_at_skips_to_the_requested_offset() {
        // FaultFs has no native seek, so it exercises the default
        // skip-loop implementation of `open_at`.
        let fs = FaultFs::new(FaultSchedule::none());
        let io: &dyn SpillIo = &fs;
        let path = PathBuf::from("seek-0.run");
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut w = io.create(&path).unwrap();
        w.write_all(&payload).unwrap();
        drop(w);
        for offset in [0u64, 1, 4095, 4096, 4097, 9_999, 10_000] {
            let mut got = Vec::new();
            io.open_at(&path, offset)
                .unwrap()
                .read_to_end(&mut got)
                .unwrap();
            assert_eq!(got, payload[offset as usize..], "offset {offset}");
        }
        let err = io
            .open_at(&path, 10_001)
            .err()
            .expect("offset past EOF must fail");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn std_fs_open_at_seeks() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rowsort-openat-test-{}.run", std::process::id()));
        let fs = StdFs;
        let mut w = fs.create(&path).unwrap();
        w.write_all(b"0123456789").unwrap();
        w.flush().unwrap();
        drop(w);
        let mut got = Vec::new();
        fs.open_at(&path, 4).unwrap().read_to_end(&mut got).unwrap();
        assert_eq!(got, b"456789");
        fs.delete(&path).unwrap();
    }

    #[test]
    fn faultfs_speaks_spill_io() {
        let fs = FaultFs::new(FaultSchedule::none());
        let io: &dyn SpillIo = &fs;
        let path = PathBuf::from("mem-0.run");
        let mut w = io.create(&path).unwrap();
        w.write_all(b"abc").unwrap();
        drop(w);
        let mut got = Vec::new();
        io.open(&path).unwrap().read_to_end(&mut got).unwrap();
        assert_eq!(got, b"abc");
        io.delete(&path).unwrap();
        assert!(fs.live_files().is_empty());
    }
}
