//! Pins "no relation-sized merged buffer" without a clock: the most bytes
//! a warm `SortPipeline::sort` / `ExternalSorter::sort` holds at once.
//!
//! Both sorters merge straight into the output columns. Until PR 20 each
//! first built one merged row run — `rows × width` bytes of row area plus
//! a copy of every string, pooled, so a warm sort *requested* no more for
//! it and only the peak of live bytes shows it — and gathered that into
//! vectors afterwards. The peaks below were measured with this file at the
//! commit before (`bfb79fa`); a sort must now stay under them by at least
//! the row area, give or take [`SLACK_BYTES`].
//!
//! The external sorter's run-generation buffers live for its spill phase
//! only (PR 23): until then one run's set sat in the sorter's pool, dead,
//! under the merge's peak. Its peaks are therefore held to PR 20's
//! (`bc364c7`, measured with this file: 3 508 493 and 4 350 400 bytes;
//! with phase-scoped buffers 3 137 670 and 3 497 726), less a sorted
//! run's own buffers — which is the stronger bound: PR 20's peaks were
//! under `bfb79fa`'s by more than the row area. A second worker costs what
//! it holds, nothing that grows with the relation: one more run in flight
//! and, in the merge, one more range's cursors and batch. Run generation
//! holds at most `SPILL_WORKERS` (2) runs at any thread count, so at four
//! and eight threads each worker past the second may add a range's
//! cursors and nothing else (ROADMAP item 4(a) is the byte budget over all
//! workers).
//!
//! The pinned sorts run on one thread, so the byte counts repeat exactly
//! (the peaks at more threads are only bounded from above). Above one
//! thread, which worker holds what when is the scheduler's to decide, and
//! the peak with it; [`PinnedFs`] takes that back where the sorter does
//! I/O, so each thread count is measured at its schedule of most overlap
//! and the bounds pass or fail the same way on every run. The counting
//! allocator is installed globally for this test binary, so the file
//! holds exactly one test: any parallel test in the same binary would
//! allocate concurrently and poison the count.

use rowsort_core::external::{ExternalSortOptions, ExternalSorter, SPILL_WORKERS};
use rowsort_core::keys::KeyBlock;
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_core::{SpillIo, StdFs};
use rowsort_row::RowLayout;
use rowsort_testkit::alloc::{peak_bytes, reset_peak, CountingAllocator};
use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, OrderBy, Vector};
use std::cell::Cell;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// What a peak may differ by for reasons that are not a relation: the
/// sinks' row batches, per-range bookkeeping, a run file's path in a
/// longer temporary directory. No table here has a row area this small.
const SLACK_BYTES: usize = 96 << 10;

/// Peak live bytes of one more `sort` after two warm-up sorts, the result
/// still alive when the peak is read.
fn warm_peak(mut sort: impl FnMut() -> DataChunk) -> usize {
    for _ in 0..2 {
        drop(sort());
    }
    reset_peak();
    let sorted = sort();
    let peak = peak_bytes();
    drop(sorted);
    peak
}

/// External sorters an external peak is the most of: how far two run
/// builds overlap is a race no I/O call sits in, and its outcome stays
/// with a sorter's pool for every later sort (see [`PinnedFs`]).
const SORTERS: usize = 3;

/// What [`PinnedFs`] has seen.
#[derive(Default)]
struct Gate {
    /// Run files open for writing, and created over every sort so far.
    writing: usize,
    created: usize,
    /// Writers waiting to close, and the sets of them let go so far.
    closing: usize,
    closed: usize,
    /// Merge workers holding a whole range open, waiting to let go, and
    /// run files opened for reading so far.
    merging: usize,
    opened: usize,
    /// Every range of the current sort has been open at once.
    merged: bool,
    /// Waits that gave up: a schedule the turnstiles did not pin.
    timeouts: usize,
}

/// How long a turnstile waits before it gives up and counts a timeout.
const PATIENCE: Duration = Duration::from_secs(10);

/// How long the merge turnstile waits for a worker that opens nothing
/// more: some ranges are empty (equal splitters), and a range over one run
/// on the calling thread looks like a cut.
const QUIET: Duration = Duration::from_millis(250);

thread_local! {
    /// Run files this thread has open for reading.
    static READING: Cell<usize> = const { Cell::new(0) };
}

/// `StdFs` behind three turnstiles, which hold an external sort of
/// `runs` runs on `threads` threads to its schedule of most overlap:
///
/// * a run file is created only once the other spill worker has one open
///   too, so both hold a sorted run at once;
/// * a run file is closed only once the other's closes too, so both
///   leave their writes together and build their next runs side by side;
/// * a merge worker lets go of its range only once every range is open:
///   no worker takes a second range, or a block buffer another range gave
///   back, before all `threads` ranges hold their cursors — or, when
///   fewer ranges hold any, once [`QUIET`] passes with no file opened.
///   The calling thread reads the cuts first, through one reader at a
///   time, and those never wait.
///
/// The last run of a sort is created and closed alone. A build itself
/// does no I/O, so how far two builds overlap stays the scheduler's: the
/// test takes the most of [`SORTERS`] sorters for that.
struct PinnedFs(Arc<Turnstiles>);

struct Turnstiles {
    gate: Mutex<Gate>,
    cv: Condvar,
    builders: usize,
    ranges: usize,
    runs: usize,
    /// The thread that calls `sort`.
    caller: ThreadId,
}

impl PinnedFs {
    fn new(threads: usize, runs: usize) -> PinnedFs {
        PinnedFs(Arc::new(Turnstiles {
            gate: Mutex::default(),
            cv: Condvar::new(),
            builders: threads.min(SPILL_WORKERS),
            ranges: threads,
            runs,
            caller: thread::current().id(),
        }))
    }

    fn timeouts(&self) -> usize {
        self.0.gate.lock().unwrap().timeouts
    }

    fn reader(&self, inner: Box<dyn Read + Send>) -> Box<dyn Read + Send> {
        READING.with(|n| n.set(n.get() + 1));
        self.0.gate.lock().unwrap().opened += 1;
        let fs = Arc::clone(&self.0);
        Box::new(PinnedReader { inner, fs })
    }
}

impl Turnstiles {
    /// Wait while `blocked` holds, counting a wait that gives up.
    fn wait_while<'g>(
        &self,
        gate: MutexGuard<'g, Gate>,
        blocked: impl FnMut(&mut Gate) -> bool,
    ) -> MutexGuard<'g, Gate> {
        let (mut gate, wait) = self.cv.wait_timeout_while(gate, PATIENCE, blocked).unwrap();
        gate.timeouts += usize::from(wait.timed_out());
        gate
    }

    /// Let the merge's ranges go, and the next one start.
    fn release_merge(&self, gate: &mut Gate) {
        gate.merging = 0;
        gate.merged = true;
        self.cv.notify_all();
    }
}

struct PinnedWriter {
    inner: Box<dyn Write + Send>,
    fs: Arc<Turnstiles>,
}

impl Write for PinnedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Drop for PinnedWriter {
    fn drop(&mut self) {
        let fs = &*self.fs;
        let mut gate = fs.gate.lock().unwrap();
        gate.closing += 1;
        if gate.closing == fs.builders {
            gate.closing = 0;
            gate.closed += 1;
            fs.cv.notify_all();
        } else {
            let closed = gate.closed;
            gate = fs.wait_while(gate, |g| {
                g.closed == closed && !g.created.is_multiple_of(fs.runs)
            });
            if gate.closed == closed {
                gate.closing -= 1;
            }
        }
        gate.writing -= 1;
    }
}

struct PinnedReader {
    inner: Box<dyn Read + Send>,
    fs: Arc<Turnstiles>,
}

impl Read for PinnedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Drop for PinnedReader {
    fn drop(&mut self) {
        let still_open = READING.with(|n| {
            n.set(n.get() - 1);
            n.get()
        });
        let fs = &*self.fs;
        let mut gate = fs.gate.lock().unwrap();
        let cut = thread::current().id() == fs.caller && still_open == 0;
        if cut || gate.merged {
            return;
        }
        gate.merging += 1;
        if gate.merging == fs.ranges {
            fs.release_merge(&mut gate);
        }
        // A quiet spell with no file opened lets the ranges go too.
        while !gate.merged {
            let opened = gate.opened;
            let (g, wait) = fs
                .cv
                .wait_timeout_while(gate, QUIET, |g| !g.merged)
                .unwrap();
            gate = g;
            if wait.timed_out() && gate.opened == opened {
                fs.release_merge(&mut gate);
            }
        }
    }
}

impl SpillIo for PinnedFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        let inner = StdFs.create(path)?;
        let fs = &*self.0;
        let mut gate = fs.gate.lock().unwrap();
        gate.merged = false;
        gate.writing += 1;
        gate.created += 1;
        fs.cv.notify_all();
        let alone = |g: &mut Gate| g.writing < fs.builders && !g.created.is_multiple_of(fs.runs);
        drop(fs.wait_while(gate, alone));
        let fs = Arc::clone(&self.0);
        Ok(Box::new(PinnedWriter { inner, fs }))
    }
    fn open(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        Ok(self.reader(StdFs.open(path)?))
    }
    fn open_at(&self, path: &Path, offset: u64) -> io::Result<Box<dyn Read + Send>> {
        Ok(self.reader(StdFs.open_at(path, offset)?))
    }
    fn delete(&self, path: &Path) -> io::Result<()> {
        StdFs.delete(path)
    }
}

#[test]
fn a_warm_sort_holds_no_merged_row_run() {
    let rows = 60_000;
    let mut rng = Rng::seed_from_u64(0x9ea4_4ea9);
    let ints = DataChunk::from_columns(vec![
        Vector::from_u32s((0..rows).map(|_| rng.next_u32()).collect()),
        Vector::from_u32s((0..rows as u32).collect()),
    ])
    .unwrap();
    let customer = rowsort_datagen::tpcds::customer(rows / 2, 7).data;
    let dir = std::env::temp_dir().join(format!("rowsort-peak-heap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Table, leading key columns, the in-memory sort's peak at `bfb79fa`
    // and the external sort's at `bc364c7`.
    let tables = [
        ("ints", &ints, 1, 6_756_860, 3_508_493),
        ("customer", &customer, 3, 10_147_431, 4_350_400),
    ];
    for (name, chunk, keys, parent_in_memory, parent_external) in tables {
        let row_area = chunk.len() * RowLayout::new(&chunk.types()).width();
        assert!(row_area > 8 * SLACK_BYTES, "{name}: {row_area} B of rows");
        let order = OrderBy::ascending(keys);

        let options = SortOptions {
            threads: 1,
            run_rows: chunk.len() / 6,
            ovc: true,
        };
        let peak = {
            let pipeline = SortPipeline::new(chunk.types(), order.clone(), options);
            warm_peak(|| pipeline.sort(chunk))
        };
        assert!(
            peak + row_area <= parent_in_memory + SLACK_BYTES,
            "{name}: a warm sort() peaks at {peak} B; with no merged run of {row_area} B \
             it stays that far under the {parent_in_memory} B it used to hold"
        );

        let runs = 6;
        let peak_at = |merge_threads: usize| {
            let options = ExternalSortOptions {
                memory_limit_rows: chunk.len() / runs,
                spill_dir: Some(dir.clone()),
                ovc: true,
                merge_threads,
                ..ExternalSortOptions::default()
            };
            let peak_of_one = || {
                let io = Arc::new(PinnedFs::new(merge_threads, runs));
                let (types, order, options) = (chunk.types(), order.clone(), options.clone());
                let sorter = ExternalSorter::with_spill_io(types, order, options, io.clone());
                let peak = warm_peak(|| sorter.sort(chunk).unwrap());
                let timeouts = io.timeouts();
                assert_eq!(
                    timeouts, 0,
                    "{name}: {merge_threads} threads, schedule not pinned"
                );
                peak
            };
            (0..SORTERS).map(|_| peak_of_one()).max().unwrap_or(0)
        };
        // What one run asks the pool for: its keys, codes and payload
        // rows — the sorted run — and, while it is built, the staged rows,
        // the key entries (key + row id) and the radix scratch over them,
        // and the strings twice.
        let run_rows = chunk.len() / runs;
        let width = row_area / chunk.len();
        let key_width = KeyBlock::planned(chunk, &order).key_width();
        let columns = chunk.columns().iter();
        let strings = columns.filter_map(|c| c.as_strings());
        let run_strings = strings
            .map(|s| s.range_bytes(0, chunk.len()))
            .sum::<usize>()
            / runs;
        let sorted_run = run_rows * (key_width + 8 + width);
        let run_in_flight = sorted_run + run_rows * (width + 2 * (key_width + 4)) + 2 * run_strings;

        let peak = peak_at(1);
        assert!(
            peak + sorted_run <= parent_external + SLACK_BYTES,
            "{name}: a warm external sort peaks at {peak} B; with no run's buffers alive \
             under the merge it stays a sorted run's {sorted_run} B under the \
             {parent_external} B it used to hold"
        );
        // A pooled buffer is at most twice its request; a range's cursors
        // hold one 64 KiB block per run.
        let range_cursors = runs * (64 << 10);
        let per_worker = 2 * run_in_flight + range_cursors;
        let peak_two = peak_at(2);
        assert!(
            peak_two <= peak + per_worker + SLACK_BYTES,
            "{name}: on 2 threads a warm external sort peaks at {peak_two} B, more than \
             {per_worker} B — a run in flight, a range's cursors — over one thread's {peak} B"
        );
        // At most `SPILL_WORKERS` (2) runs are in flight at any thread
        // count: a further worker adds a range's cursors to the merge and
        // nothing to run generation.
        for threads in [4, 8] {
            let peak_threads = peak_at(threads);
            let allowance = (threads - 2) * range_cursors;
            assert!(
                peak_threads <= peak_two + allowance + SLACK_BYTES,
                "{name}: on {threads} threads a warm external sort peaks at {peak_threads} B, \
                 more than a range's cursors ({range_cursors} B) a worker over two threads' \
                 {peak_two} B"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
