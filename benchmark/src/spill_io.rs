//! A counting [`SpillIo`] round [`StdFs`]: the I/O ledger of the external
//! sort, kept on the benchmark's side of the interface.
//!
//! Calls and bytes are those the sorter makes on the handles `StdFs`
//! returns, above its buffering, so they repeat exactly from run to run.
//! Busy times are summed over the merge threads.

use crate::adapter::{SpillIo, StdFs};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the external sorter did to storage since the last [`SpillStats::take`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SpillReading {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub write_calls: u64,
    pub read_calls: u64,
    pub write_busy_ns: u64,
    pub read_busy_ns: u64,
    pub files_created: u64,
    pub files_deleted: u64,
}

/// The ledger the handles of one [`CountingIo`] share.
#[derive(Debug, Default)]
pub struct SpillStats(Mutex<SpillReading>);

impl SpillStats {
    /// Read every counter and reset it to zero.
    pub fn take(&self) -> SpillReading {
        self.update(std::mem::take)
    }

    fn update<T>(&self, change: impl FnOnce(&mut SpillReading) -> T) -> T {
        // Counters stay valid at every step, so a poisoned lock is still good.
        change(&mut self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `StdFs` with every call counted into a shared [`SpillStats`].
pub struct CountingIo {
    inner: StdFs,
    stats: Arc<SpillStats>,
}

impl CountingIo {
    /// A counting backend reporting into `stats`.
    pub fn new(stats: Arc<SpillStats>) -> CountingIo {
        CountingIo {
            inner: StdFs,
            stats,
        }
    }

    fn reader(&self, inner: Box<dyn Read + Send>) -> Box<dyn Read + Send> {
        Box::new(CountingReader {
            inner,
            stats: Arc::clone(&self.stats),
        })
    }
}

impl SpillIo for CountingIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        let inner = self.inner.create(path)?;
        self.stats.update(|io| io.files_created += 1);
        Ok(Box::new(CountingWriter {
            inner,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        Ok(self.reader(self.inner.open(path)?))
    }

    fn open_at(&self, path: &Path, offset: u64) -> io::Result<Box<dyn Read + Send>> {
        Ok(self.reader(self.inner.open_at(path, offset)?))
    }

    fn delete(&self, path: &Path) -> io::Result<()> {
        self.inner.delete(path)?;
        self.stats.update(|io| io.files_deleted += 1);
        Ok(())
    }
}

struct CountingWriter {
    inner: Box<dyn Write + Send>,
    stats: Arc<SpillStats>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let written = self.inner.write(buf)?;
        self.stats.update(|io| {
            io.write_busy_ns += elapsed_ns(start);
            io.write_calls += 1;
            io.bytes_written += written as u64;
        });
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        let start = Instant::now();
        self.inner.flush()?;
        self.stats
            .update(|io| io.write_busy_ns += elapsed_ns(start));
        Ok(())
    }
}

struct CountingReader {
    inner: Box<dyn Read + Send>,
    stats: Arc<SpillStats>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start = Instant::now();
        let got = self.inner.read(buf)?;
        self.stats.update(|io| {
            io.read_busy_ns += elapsed_ns(start);
            io.read_calls += 1;
            io.bytes_read += got as u64;
        });
        Ok(got)
    }
}
