//! The spill merge reads every run file once: with one merge thread,
//! exactly the bytes the sort wrote; with more, at most two more blocks
//! per run and splitter (the block a seam walk reads, and the block both
//! ranges round a seam read). The rows are the same at every thread count
//! and the in-memory pipeline's.
//!
//! A gate without a clock: everything asserted here is a byte count taken
//! at the `SpillIo` handles or a row-for-row comparison. (At the commit
//! before this file the partitioned merge verified every file in one pass
//! and merged it in another — 2.06 bytes read per byte written — and the
//! tables below are sized so that twice fails the bound.)

use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_core::{Counter, SpillIo};
use rowsort_testkit::faultfs::{FaultFs, FaultSchedule};
use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, OrderBy, OrderByColumn, Vector};

/// Most bytes in one run-file block (`core::external::BLOCK_BYTES`).
const BLOCK_BYTES: u64 = 64 * 1024;

const RUNS: usize = 16;

/// Bytes that crossed the handles of one [`CountingFs`].
#[derive(Default)]
struct Ledger {
    written: AtomicU64,
    read: AtomicU64,
}

impl Ledger {
    /// Read both counts and reset them.
    fn take(&self) -> (u64, u64) {
        (
            self.written.swap(0, Ordering::Relaxed),
            self.read.swap(0, Ordering::Relaxed),
        )
    }
}

/// A fault-free [`FaultFs`] whose handles count the bytes they carry.
/// `open_at` is the backend's: what it skips to reach the offset is the
/// backend's business (a seek, on a real file), not a read of the sorter's.
struct CountingFs {
    inner: FaultFs,
    ledger: Arc<Ledger>,
}

struct Counted<T> {
    inner: T,
    ledger: Arc<Ledger>,
}

impl CountingFs {
    fn reader(&self, inner: Box<dyn Read + Send>) -> Box<dyn Read + Send> {
        Box::new(Counted {
            inner,
            ledger: Arc::clone(&self.ledger),
        })
    }
}

impl SpillIo for CountingFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(Counted {
            inner: SpillIo::create(&self.inner, path)?,
            ledger: Arc::clone(&self.ledger),
        }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        Ok(self.reader(SpillIo::open(&self.inner, path)?))
    }

    fn open_at(&self, path: &Path, offset: u64) -> io::Result<Box<dyn Read + Send>> {
        Ok(self.reader(self.inner.open_at(path, offset)?))
    }

    fn delete(&self, path: &Path) -> io::Result<()> {
        SpillIo::delete(&self.inner, path)
    }
}

impl Write for Counted<Box<dyn Write + Send>> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.ledger
            .written
            .fetch_add(written as u64, Ordering::Relaxed);
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Read for Counted<Box<dyn Read + Send>> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let got = self.inner.read(buf)?;
        self.ledger.read.fetch_add(got as u64, Ordering::Relaxed);
        Ok(got)
    }
}

/// 16 runs of a random `u32` key and a payload of a row number and a
/// 140-byte string (wide rows, so that few of them make many blocks):
/// about 8 blocks to the run.
fn u32_table() -> (DataChunk, OrderBy) {
    let mut rng = Rng::seed_from_u64(0x00ea_d0ce);
    let n = RUNS * 3_000;
    let keys: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
    let ids: Vec<u32> = (0..n as u32).collect();
    let pad = (0..n).map(|i| format!("{i:0140}"));
    let columns = vec![
        Vector::from_u32s(keys),
        Vector::from_u32s(ids),
        Vector::from_strings(pad),
    ];
    let chunk = DataChunk::from_columns(columns).unwrap();
    (chunk, OrderBy::new(vec![OrderByColumn::asc(0)]))
}

/// 16 runs keyed by three VARCHAR columns with long shared prefixes, the
/// last of which outgrows the 12-byte key prefix (ties reach the
/// full-tuple comparator), a row number and a 128-byte string: about 8
/// blocks to the run.
fn varchar_table() -> (DataChunk, OrderBy) {
    let mut rng = Rng::seed_from_u64(0x7e57_ab1e);
    let n = RUNS * 2_000;
    let region = (0..n).map(|_| format!("region_{}", ["emea", "apac"][rng.below(2) as usize]));
    let region: Vec<String> = region.collect();
    let segment: Vec<String> = (0..n)
        .map(|_| format!("segment_{:02}", rng.below(8)))
        .collect();
    let customer: Vec<String> = (0..n)
        .map(|_| format!("customer_with_a_long_name_{:05}", rng.below(20_000)))
        .collect();
    let columns = vec![
        Vector::from_strings(region),
        Vector::from_strings(segment),
        Vector::from_strings(customer),
        Vector::from_u32s((0..n as u32).collect()),
        Vector::from_strings((0..n).map(|i| format!("{i:0128}"))),
    ];
    let chunk = DataChunk::from_columns(columns).unwrap();
    let order = OrderBy::new(vec![
        OrderByColumn::asc(0),
        OrderByColumn::desc(1),
        OrderByColumn::asc(2),
    ]);
    (chunk, order)
}

#[test]
fn every_run_file_is_read_once() {
    for (name, (chunk, order)) in [("u32", u32_table()), ("varchar", varchar_table())] {
        let run_rows = chunk.len() / RUNS;
        for ovc in [true, false] {
            let options = SortOptions {
                threads: 1,
                run_rows,
                ovc,
            };
            let pipeline = SortPipeline::new(chunk.types(), order.clone(), options);
            let expected = pipeline.sort(&chunk);
            for threads in [1usize, 2, 4] {
                let what = format!("{name} table, ovc={ovc}, threads={threads}");
                let ledger = Arc::new(Ledger::default());
                let io = CountingFs {
                    inner: FaultFs::new(FaultSchedule::none()),
                    ledger: Arc::clone(&ledger),
                };
                let sorter = ExternalSorter::with_spill_io(
                    chunk.types(),
                    order.clone(),
                    ExternalSortOptions {
                        memory_limit_rows: run_rows,
                        ovc,
                        merge_threads: threads,
                        ..Default::default()
                    },
                    Arc::new(io),
                );
                let mut first = None;
                for pass in 0..2 {
                    let sorted = sorter.sort(&chunk).unwrap();
                    assert!(
                        sorted == expected,
                        "{what}: rows differ from the pipeline's"
                    );
                    let m = sorter.last_profile().metrics;
                    assert_eq!(m.counter(Counter::SpilledRuns), RUNS as u64, "{what}");
                    let parts = m.counter(Counter::SpillMergePartitions);
                    assert_eq!(parts, threads as u64, "{what}: tables are big enough");

                    let (written, read) = ledger.take();
                    assert_eq!(written, m.counter(Counter::SpilledBytes), "{what}");
                    assert_eq!(read, m.counter(Counter::SpillReadBytes), "{what}");
                    let seam_blocks = 2 * RUNS as u64 * (parts - 1);
                    assert!(
                        read >= written && read <= written + seam_blocks * BLOCK_BYTES,
                        "{what}: read {read} bytes of the {written} written, \
                         more than {seam_blocks} blocks over"
                    );
                    // Reading everything twice must not fit under the bound.
                    assert!(
                        written > seam_blocks * BLOCK_BYTES,
                        "{what}: table too small"
                    );
                    let figures = (written, read);
                    assert_eq!(
                        *first.get_or_insert(figures),
                        figures,
                        "{what}: pass {pass}"
                    );
                }
            }
        }
    }
}
