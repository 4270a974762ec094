//! Run generation — the first half of Figure 11, shared by the in-memory
//! pipeline and the external sorter: vectors → payload rows + normalized
//! keys → thread-local radix sort / pdqsort → one [`SortedRun`] with every
//! buffer taken from the caller's [`BufferPool`].

use crate::comparator::FusedRowComparator;
use crate::keys::{KeyBlock, KeySortAlgo};
use crate::metrics::{Counter, CounterRegistry};
use crate::pool::BufferPool;
use rowsort_row::{RowBlock, RowLayout};
use rowsort_vector::{DataChunk, LogicalType, OrderBy};
use std::sync::{Arc, Mutex};

/// One sorted run: normalized keys (stride = `key_width`, row ids
/// stripped) aligned 1:1 with already-reordered payload rows. (The run a
/// coded sort's merge produces has payload only: `keys` is empty, since
/// no merge follows to read it.)
pub(crate) struct SortedRun {
    pub(crate) keys: Vec<u8>,
    /// Bytes per key entry, carried from the [`KeyBlock`] layout that
    /// produced the run (every run of a sort shares it).
    pub(crate) key_width: usize,
    /// Whether byte-equal keys may hide unequal tuples (a truncated
    /// VARCHAR prefix), so merges must break key ties with the full-tuple
    /// comparator. From the same [`KeyBlock`] layout — the one definition
    /// every merge of the sort uses.
    pub(crate) tie_possible: bool,
    /// Per-row offset-value codes (8 LE bytes per row): row 0 relative
    /// to −∞, row `i` relative to row `i − 1`. Empty when OVC is off or
    /// keys are zero-width (DESIGN.md §10.2).
    pub(crate) ovc: Vec<u8>,
    pub(crate) payload: RowBlock,
}

impl SortedRun {
    pub(crate) fn len(&self) -> usize {
        self.payload.len()
    }

    /// Return the run's buffers to `pool`.
    pub(crate) fn recycle(self, pool: &BufferPool) {
        pool.put_bytes(self.keys);
        if self.ovc.capacity() > 0 {
            pool.put_bytes(self.ovc);
        }
        let (data, heap) = self.payload.into_raw_parts();
        pool.put_bytes(data);
        pool.put_bytes(heap);
    }
}

/// Per-column VARCHAR length statistics of `input` (max string length; 0
/// for other types) into `stats`. They size VARCHAR key prefixes and are
/// plan-wide: every run must agree on the normalized-key shape or the
/// merge phase could not compare keys.
pub(crate) fn varchar_stats(input: &DataChunk, stats: &mut Vec<usize>) {
    stats.clear();
    stats.extend(
        input
            .columns()
            .iter()
            .map(|col| col.as_strings().map_or(0, |s| s.max_len())),
    );
}

/// What a sorter lends its run generation: the sort's plan, the pool its
/// buffers come from, and the registry its counters go to.
pub(crate) struct RunGenerator<'a> {
    pub(crate) types: &'a [LogicalType],
    pub(crate) order: &'a OrderBy,
    pub(crate) layout: &'a Arc<RowLayout>,
    /// Full-tuple comparator for VARCHAR-prefix tie resolution.
    pub(crate) tie_cmp: &'a FusedRowComparator,
    pub(crate) pool: &'a BufferPool,
    pub(crate) metrics: &'a CounterRegistry,
    /// The sorter's `ovc` option.
    pub(crate) ovc: bool,
}

impl RunGenerator<'_> {
    /// Build one sorted run from input rows `lo..hi`, with every buffer
    /// pooled. `key_blocks` caches key blocks planned for `stats` (kept
    /// whole to also reuse their layout planning). `with_codes` asks for
    /// the run's code column; it is produced only when the sorter's `ovc`
    /// option is on and the key is not zero-width.
    pub(crate) fn make_run(
        &self,
        input: &DataChunk,
        lo: usize,
        hi: usize,
        stats: &[usize],
        key_blocks: &Mutex<Vec<KeyBlock>>,
        with_codes: bool,
    ) -> SortedRun {
        let rows = hi - lo;
        let width = self.layout.width();
        // DSM → NSM: payload rows (all columns) in input order first. The
        // heap is asked for at the size the range's strings will fill —
        // they are contiguous in every VARCHAR column — so the pool hands
        // back the heap the previous run returned; a smaller request
        // would file that one under its grown class and regrow another.
        let columns = input.columns().iter();
        let strings = columns.filter_map(|col| col.as_strings());
        let heap_bytes: usize = strings.map(|s| s.range_bytes(lo, hi)).sum();
        let mut staging = RowBlock::from_raw_parts(
            Arc::clone(self.layout),
            self.pool.get_bytes(rows * width),
            self.pool.get_bytes(heap_bytes),
        );
        staging.append_chunk_range(input, lo, hi);

        let mut keys = key_blocks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_else(|| KeyBlock::new(self.types, self.order, |c| stats[c]));
        keys.reset();
        keys.append_chunk_range(input, lo, hi);

        // Thread-local sort: radix, or pdqsort + tie resolution when
        // truncated VARCHAR prefixes make ties possible.
        let mut radix_scratch = self.pool.get_bytes(rows * keys.stride());
        let algo = keys.sort_with_scratch(&mut radix_scratch, |a, b| {
            self.tie_cmp.compare(
                staging.row(a as usize),
                staging.heap(),
                staging.row(b as usize),
                staging.heap(),
            )
        });
        self.pool.put_bytes(radix_scratch);
        match algo {
            KeySortAlgo::Radix { passes } => {
                self.metrics.add(Counter::RadixSorts, 1);
                self.metrics.add(Counter::RadixPasses, passes);
            }
            KeySortAlgo::Pdq => self.metrics.add(Counter::PdqSorts, 1),
            KeySortAlgo::Noop => {}
        }

        let key_width = keys.key_width();
        let mut run_keys = self.pool.get_bytes(rows * key_width);
        keys.keys_only_into(&mut run_keys);
        // OVC column, computed while the freshly sorted keys are hot:
        // one prefix scan per row here saves a full-key compare per merge
        // comparison later (DESIGN.md §10.2).
        let run_ovc = if with_codes && self.ovc && key_width > 0 {
            let mut ovc = self.pool.get_bytes(rows * 8);
            ovc.resize(rows * 8, 0);
            crate::ovc::fill_run_codes(&run_keys, key_width, &mut ovc);
            ovc
        } else {
            Vec::new()
        };
        let mut payload = RowBlock::from_raw_parts(
            Arc::clone(self.layout),
            self.pool.get_bytes(rows * width),
            self.pool.get_bytes(staging.heap().len().max(1)),
        );
        payload.assign_reordered(&staging, keys.order_iter());

        self.metrics.add(Counter::RunsGenerated, 1);
        // Staged rows + encoded key entries + stripped keys + reordered
        // payload: the bytes this run wrote.
        self.metrics.add(
            Counter::BytesMoved,
            (rows * (2 * width + keys.stride() + key_width)) as u64,
        );
        let tie_possible = keys.tie_possible();
        key_blocks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(keys);
        let (staging_data, staging_heap) = staging.into_raw_parts();
        self.pool.put_bytes(staging_data);
        self.pool.put_bytes(staging_heap);
        SortedRun {
            keys: run_keys,
            key_width,
            tie_possible,
            ovc: run_ovc,
            payload,
        }
    }
}
