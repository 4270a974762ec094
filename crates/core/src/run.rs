//! Run generation — the first half of Figure 11: vectors → payload rows +
//! normalized keys → thread-local radix sort, comparator inside key-equal
//! ranges → one [`SortedRun`] with every buffer taken from a
//! [`BufferPool`](crate::pool::BufferPool) ([`SorterCore::make_run`]).
//! The plan a sort makes before its first run is here too: [`KeyPlan`],
//! whose [`key_stats`] size each VARCHAR key prefix from the strings
//! themselves and each integer key column from its range.

use crate::keys::{word, KeyBlock, KeySortAlgo, KeyStat, VarcharStat, PREFIX_CAP};
use crate::metrics::Counter;
use crate::pool::SortPool;
use crate::sorter::SorterCore;
use rowsort_normkey::{key_range, KeyColumn, DEFAULT_MAX_PREFIX};
use rowsort_row::{reorder_heap, reorder_rows, RowBlock};
use rowsort_vector::{DataChunk, LogicalType, OrderBy, StringVec, Vector};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One sorted run: normalized keys (stride = `key_width`, row ids
/// stripped) aligned 1:1 with already-reordered payload rows. (The run a
/// coded sort's merge produces has payload only: `keys` is empty, since
/// no merge follows to read it.)
pub(crate) struct SortedRun {
    pub(crate) keys: Vec<u8>,
    /// Bytes per key entry, carried from the [`KeyBlock`] layout that
    /// produced the run (every run of a sort shares it).
    pub(crate) key_width: usize,
    /// Per-row offset-value codes (8 LE bytes per row): row 0 relative
    /// to −∞, row `i` relative to row `i − 1`. Empty unless the sort's
    /// merge codes are stored: OVC on and keys of 8 bytes or more
    /// (DESIGN.md §10.2).
    pub(crate) ovc: Vec<u8>,
    pub(crate) payload: RowBlock,
}

impl SortedRun {
    pub(crate) fn len(&self) -> usize {
        self.payload.len()
    }

    /// Return the run's buffers to `pool`.
    pub(crate) fn recycle(self, pool: SortPool<'_>) {
        pool.put_bytes(self.keys);
        if self.ovc.capacity() > 0 {
            pool.put_bytes(self.ovc);
        }
        let (data, heap) = self.payload.into_raw_parts();
        pool.put_bytes(data);
        pool.put_bytes(heap);
    }
}

/// Rows of a column the prefix estimator looks at, evenly spaced. Whether
/// two sampled strings collide depends on the value distribution, not on
/// the row count, so one size serves 8 192 rows and 300 000 alike: on
/// rowbench's `customer_email` it finds 340–430 colliding pairs at either
/// size, in 0.05–0.08 ms and 0.3–0.6 ms (1 024 samples find 80–190 pairs
/// and a longest one up to four bytes shorter; EXPERIMENTS.md, PR 19).
const SAMPLE_ROWS: usize = 2048;

/// Slots of the sample table: twice the samples, so it never fills.
const TABLE_SLOTS: usize = 2 * SAMPLE_ROWS;

/// Earlier samples with the same 12 bytes a new sample is paired with.
/// It bounds the pass at `SAMPLE_ROWS × PAIRS_PER_ROW` string compares
/// when every string shares its first 12 bytes (16 384, under a
/// millisecond); on `customer_email` 64 finds up to twice the pairs and
/// the same longest one on nine inputs of ten.
const PAIRS_PER_ROW: usize = 8;

/// Bytes the plan adds to what the longest sampled collision needs. The
/// column is `rows / SAMPLE_ROWS` times denser than its sample, so a row's
/// nearest neighbour shares more bytes with it than its nearest sampled
/// neighbour does: over eight `strings_mem` seeds the longest sampled
/// collision asks for 19–22 bytes, and 19 leaves 6.3 % of the rows tied
/// where 20 leaves 4.4 % and 22 leaves 3.2 %. Two bytes cover the gap at
/// 146 rows per sample, and cost nothing measurable: a run sorts as fast
/// at 24 bytes as at 20.
const PREFIX_SLACK: usize = 2;

const _: () = assert!(TABLE_SLOTS.is_power_of_two());

/// The prefix estimator's working memory, kept by the sorter so a
/// steady-state sort allocates nothing: an open-addressed table over the
/// sampled strings' first 12 bytes and, per sample, its row and the
/// previous sample with the same 12 bytes.
#[derive(Default)]
pub(crate) struct PrefixSampler {
    /// `1 +` the most recent sample whose first 12 bytes hash here (linear
    /// probing on a different 12 bytes); 0 is an empty slot.
    slots: Vec<u32>,
    /// Row of each sample.
    rows: Vec<u32>,
    /// `1 +` the previous sample with the same first 12 bytes, 0 if none.
    prev: Vec<u32>,
}

impl PrefixSampler {
    /// How many bytes of `column`'s `strings` (longest: `max_len`, more
    /// than 12) the key should encode: 12, the paper's rule, unless the
    /// sample shows unequal strings that 12 bytes tie and some prefix
    /// within [`PREFIX_CAP`] separates — then the longest `lcp + 1` over
    /// those pairs plus [`PREFIX_SLACK`], within
    /// `12 ..= min(max_len, PREFIX_CAP)`. (A column whose every colliding
    /// pair shares more than the cap keeps 12: 20 more key bytes would buy
    /// nothing and cost the all-tied sort a fifth, EXPERIMENTS.md PR 19.)
    ///
    /// The maximum — the 100th percentile — because the two errors are not
    /// alike: a byte too many costs a fraction of a radix pass per row, a
    /// byte too few leaves rows to the comparator at ≈ 300 ns each (two
    /// random rows and their strings), and the pairs that need the longest
    /// prefix are exactly the rows that stay tied. On `strings_mem` the
    /// 90th / 95th / 99th percentile pick 16–17 / 17–18 / 19–20 bytes and
    /// leave 19–32 % / 11–19 % / 4–7 % of a run in key-equal ranges; the
    /// maximum with its slack picks 21–24 and leaves 3 %, the NULL e-mails
    /// no prefix separates. [`PREFIX_CAP`] bounds what one freak pair can
    /// cost.
    ///
    /// Pairs, not neighbours in sorted order: every colliding pair says
    /// where two strings the key must separate stop sharing bytes, a
    /// bucket of `k` samples yields up to `k (k − 1) / 2` of them (a few
    /// hundred from 2 048 samples where sorted neighbours would yield a
    /// few dozen), and finding them takes one hashed pass, no sort.
    ///
    /// A function of the column alone — never of threads, run size or
    /// budget — so every run, both sorters and every thread count plan
    /// the same key.
    fn prefix_len(&mut self, column: &Vector, strings: &StringVec, max_len: usize) -> usize {
        const HEAD: usize = DEFAULT_MAX_PREFIX;
        let slot_of = |head: &[u8]| {
            let lo = u64::from_le_bytes(word::<8>(head, 0));
            let hi = u64::from(u32::from_le_bytes(word::<4>(head, 8)));
            let mixed =
                (lo ^ hi.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (mixed >> (u64::BITS - TABLE_SLOTS.trailing_zeros())) as usize
        };
        self.slots.clear();
        self.slots.resize(TABLE_SLOTS, 0);
        self.rows.clear();
        self.rows.reserve(SAMPLE_ROWS);
        self.prev.clear();
        self.prev.reserve(SAMPLE_ROWS);
        let limit = max_len.min(PREFIX_CAP);
        let mut prefix = HEAD;
        // Whether some colliding pair stops sharing bytes within the cap.
        let mut separable = false;
        let step = strings.len().div_ceil(SAMPLE_ROWS).max(1);
        for row in (0..strings.len()).step_by(step) {
            let s = strings.get_bytes(row);
            // A string of 12 bytes or fewer encodes exactly, and a NULL's
            // key is decided by its NULL byte.
            if s.len() <= HEAD || !column.is_valid(row) {
                continue;
            }
            let sample = |e: u32| strings.get_bytes(self.rows[e as usize - 1] as usize);
            let mut slot = slot_of(&s[..HEAD]);
            while self.slots[slot] != 0 && sample(self.slots[slot])[..HEAD] != s[..HEAD] {
                slot = (slot + 1) % TABLE_SLOTS;
            }
            let bucket = self.slots[slot];
            let mut earlier = bucket;
            for _ in 0..PAIRS_PER_ROW {
                if earlier == 0 {
                    break;
                }
                let other = sample(earlier);
                if other != s {
                    // Compared up to the cap: sharing more is all the same.
                    let shared = s[HEAD..].iter().zip(&other[HEAD..]).take(PREFIX_CAP - HEAD);
                    let lcp = HEAD + shared.take_while(|(a, b)| a == b).count();
                    separable |= lcp < PREFIX_CAP;
                    prefix = prefix.max(lcp + 1 + PREFIX_SLACK);
                    if separable && prefix >= limit {
                        return limit; // no later pair can ask for more
                    }
                }
                earlier = self.prev[earlier as usize - 1];
            }
            self.rows.push(row as u32);
            self.prev.push(bucket);
            self.slots[slot] = self.rows.len() as u32;
        }
        // Where every colliding pair shares more than the cap holds, a
        // wider key separates nothing: the paper's 12 bytes, and the ties.
        if separable {
            prefix.min(limit)
        } else {
            HEAD
        }
    }
}

/// Runs a phase of the plan on every worker of a crew (its argument is the
/// worker's index), or once on the calling thread.
pub(crate) type Spread<'a> = &'a dyn Fn(&(dyn Fn(usize) + Sync));

/// What the key planner needs of `input`'s `ORDER BY` columns, into
/// `stats` (indexed by column; [`KeyStat::Plain`] for every other column —
/// a payload column is never read, so it cannot invalidate a cached key
/// block). A VARCHAR column: the longest string, and the prefix of it the
/// key encodes — all of it up to 12 bytes, the paper's rule; beyond that,
/// what [`PrefixSampler::prefix_len`] finds the data to need. An integer
/// column: its range and whether it has NULLs ([`key_range`]). Columns are
/// walked in `ORDER BY` order and the walk ends at the first column the
/// prefix truncates, as the key does. The plan is sort-wide: every run
/// must agree on the normalized-key shape or the merge phase could not
/// compare keys.
///
/// A range is a pass over every value of its column, so with two integer
/// columns or more the columns are claimed one at a time by `spread`'s
/// workers: `catalog_spill`'s four nullable INT columns (2 M values) take
/// about 3 ms on one thread of a 2-core host and 1.6–2.3 ms on two.
pub(crate) fn key_stats(
    input: &DataChunk,
    order: &OrderBy,
    sampler: &mut PrefixSampler,
    stats: &mut Vec<KeyStat>,
    spread: Spread<'_>,
) {
    stats.clear();
    stats.resize(input.column_count(), KeyStat::Plain);
    let (mut reached, mut integers) = (0, 0);
    for key in &order.keys {
        reached += 1;
        let column = input.column(key.column);
        let Some(strings) = column.as_strings() else {
            integers += usize::from(KeyColumn::rangeable(column.logical_type()));
            continue;
        };
        let max_len = strings.max_len();
        let prefix_len = if max_len <= DEFAULT_MAX_PREFIX {
            max_len.max(1)
        } else {
            sampler.prefix_len(column, strings, max_len)
        };
        stats[key.column] = KeyStat::Varchar(VarcharStat {
            max_len,
            prefix_len,
        });
        if prefix_len < max_len {
            break;
        }
    }
    let keys = order.keys.get(..reached).unwrap_or_default();
    let next = AtomicUsize::new(0);
    let stats = Mutex::new(stats);
    let claim = |_worker: usize| {
        while let Some(key) = keys.get(next.fetch_add(1, AtomicOrdering::SeqCst)) {
            if let Some(range) = key_range(input.column(key.column)) {
                let mut stats = stats.lock().unwrap_or_else(|e| e.into_inner());
                stats[key.column] = KeyStat::Range(range);
            }
        }
    };
    if integers > 1 {
        spread(&claim);
    } else {
        claim(0);
    }
}

/// The key a sort plans, and what planning keeps from sort to sort.
#[derive(Default)]
pub(crate) struct KeyPlan {
    /// Key-column statistics of the current input, by column.
    stats: Vec<KeyStat>,
    /// The statistics the cached key blocks were planned for.
    key_stats: Vec<KeyStat>,
    sampler: PrefixSampler,
    /// Key blocks planned for `key_stats`, kept whole to also reuse their
    /// layout planning; never empty once a sort has been planned.
    pub(crate) key_blocks: Mutex<Vec<KeyBlock>>,
}

impl KeyPlan {
    /// Plan the key of a sort of `input` by `order`: size the VARCHAR
    /// prefixes from the strings and the integer columns from their
    /// ranges, and drop cached key blocks planned for other statistics
    /// (their layout no longer applies). The ranges are taken on
    /// `spread`'s workers.
    pub(crate) fn plan(
        &mut self,
        types: &[LogicalType],
        order: &OrderBy,
        input: &DataChunk,
        spread: Spread<'_>,
    ) {
        key_stats(input, order, &mut self.sampler, &mut self.stats, spread);
        let blocks = self.key_blocks.get_mut().unwrap_or_else(|e| e.into_inner());
        if self.stats != self.key_stats {
            blocks.clear();
            self.key_stats.clear();
            self.key_stats.extend_from_slice(&self.stats);
        }
        if blocks.is_empty() {
            let stats = &self.stats;
            blocks.push(KeyBlock::with_stats(types, order, |c| stats[c]));
        }
    }

    /// The longest VARCHAR prefix in the planned key (0 without a VARCHAR
    /// key column), for the sort's profile.
    pub(crate) fn varchar_prefix(&self) -> u32 {
        let prefix = |s: &KeyStat| match s {
            KeyStat::Varchar(v) => v.prefix_len as u32,
            _ => 0,
        };
        self.stats.iter().map(prefix).max().unwrap_or(0)
    }

    /// The planned key's width with every range-coded column plain, for
    /// the sort's profile.
    pub(crate) fn plain_width(&self) -> usize {
        let blocks = self.key_blocks.lock().unwrap_or_else(|e| e.into_inner());
        blocks.first().map_or(0, |b| b.layout().plain_width())
    }
}

impl SorterCore {
    /// Build one sorted run from input rows `lo..hi` with `plan`'s key
    /// blocks, every buffer from `pool`. `streamed` says a merge or the
    /// run-file encoder will read the run front to back: it then gets its
    /// code column (only when its merge codes are stored: the sorter's
    /// `ovc` option is on and the key is 8 bytes or wider) and its strings
    /// laid out in run order.
    pub(crate) fn make_run(
        &self,
        pool: SortPool<'_>,
        plan: &KeyPlan,
        input: &DataChunk,
        (lo, hi): (usize, usize),
        streamed: bool,
    ) -> SortedRun {
        let rows = hi - lo;
        let width = self.layout.width();
        // Each stage's time goes to its own clock (`RUN_STAGES`).
        let mut clock = Instant::now();
        let mut lap = |stage: Counter| {
            let now = Instant::now();
            self.metrics.add(stage, (now - clock).as_nanos() as u64);
            clock = now;
        };
        // DSM → NSM: payload rows (all columns) in input order first. The
        // heap is asked for at the size the range's strings will fill —
        // they are contiguous in every VARCHAR column — so the pool hands
        // back the heap the previous run returned; a smaller request
        // would file that one under its grown class and regrow another.
        let columns = input.columns().iter();
        let strings = columns.filter_map(|col| col.as_strings());
        let heap_bytes: usize = strings.map(|s| s.range_bytes(lo, hi)).sum();
        let mut staging = RowBlock::from_raw_parts(
            Arc::clone(&self.layout),
            pool.get_bytes(rows * width),
            pool.get_bytes(heap_bytes),
        );
        staging.append_chunk_range(input, lo, hi);
        lap(Counter::RunScatterNs);

        let key_blocks = &plan.key_blocks;
        let mut keys = key_blocks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_else(|| KeyBlock::with_stats(&self.types, &self.order, |c| plan.stats[c]));
        keys.reset();
        keys.append_chunk_range(input, lo, hi);
        lap(Counter::RunEncodeNs);

        // Thread-local sort: radix over the key bytes, then the full-tuple
        // comparator inside whatever key-equal ranges a truncated VARCHAR
        // prefix left.
        let mut radix_scratch = pool.get_bytes(rows * keys.stride());
        let algo = keys.sort_with_scratch(&mut radix_scratch, |a, b| {
            self.tie_cmp.compare(
                staging.row(a as usize),
                staging.heap(),
                staging.row(b as usize),
                staging.heap(),
            )
        });
        pool.put_bytes(radix_scratch);
        let sorted = keys.last_sort();
        match algo {
            KeySortAlgo::Radix { .. } => self.metrics.add(Counter::RadixSorts, 1),
            KeySortAlgo::Pdq => {
                self.metrics.add(Counter::PdqSorts, 1);
                self.metrics.add(Counter::RunTieRanges, sorted.tie_ranges);
                self.metrics.add(Counter::RunTieRows, sorted.tie_rows);
            }
            KeySortAlgo::Noop => {}
        }
        self.metrics.add(Counter::RadixPasses, sorted.radix_passes);
        lap(Counter::RunSortNs);

        let key_width = keys.key_width();
        let mut run_keys = pool.get_bytes(rows * key_width);
        keys.keys_only_into(&mut run_keys);
        // OVC column, computed while the freshly sorted keys are hot:
        // one prefix scan per row here saves a full-key compare per merge
        // comparison later (DESIGN.md §10.2). A key of 7 bytes or fewer is
        // its own code and needs none.
        let run_ovc = if streamed && self.codes(key_width).stored() {
            let mut ovc = pool.get_bytes(rows * 8);
            ovc.resize(rows * 8, 0);
            crate::ovc::fill_run_codes(&run_keys, key_width, &mut ovc);
            ovc
        } else {
            Vec::new()
        };
        lap(Counter::RunStripCodeNs);

        // The payload in key order. Its rows' heap offsets are absolute, so
        // the reordered rows can keep the staging heap, which holds their
        // strings in input order. A lone resident run does: it goes to
        // output as it is. A run a merge or the encoder reads takes its
        // strings in run order instead, so that reader copies them front
        // to back rather than with a cache miss per string.
        let mut payload_rows = pool.get_bytes(rows * width);
        reorder_rows(&mut payload_rows, staging.data(), width, keys.order_iter());
        let (staging_data, staging_heap) = staging.into_raw_parts();
        pool.put_bytes(staging_data);
        let (heap, heap_moved) = if streamed && !self.varlen_cols.is_empty() {
            let mut heap = pool.get_bytes(staging_heap.len());
            reorder_heap(&mut payload_rows, &self.layout, &staging_heap, &mut heap);
            pool.put_bytes(staging_heap);
            let moved = heap.len();
            (heap, moved)
        } else {
            (staging_heap, 0)
        };
        let payload = RowBlock::from_raw_parts(Arc::clone(&self.layout), payload_rows, heap);
        lap(Counter::RunReorderNs);

        self.metrics.add(Counter::RunsGenerated, 1);
        // Staged rows + encoded key entries + stripped keys + reordered
        // payload + the strings laid out in run order, if they were: the
        // bytes this run wrote.
        self.metrics.add(
            Counter::BytesMoved,
            (rows * (2 * width + keys.stride() + key_width) + heap_moved) as u64,
        );
        key_blocks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(keys);
        SortedRun {
            keys: run_keys,
            key_width,
            ovc: run_ovc,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::SortResources;
    use rowsort_normkey::{KeyRange, Ordinal};
    use rowsort_vector::{OrderByColumn, Value};

    /// The statistics of a relation sorted by its leading `keys` columns.
    fn stats_of(columns: Vec<Vector>, keys: usize) -> Vec<KeyStat> {
        let chunk = DataChunk::from_columns(columns).unwrap();
        let mut stats = Vec::new();
        let mut sampler = PrefixSampler::default();
        let order = OrderBy::ascending(keys);
        key_stats(&chunk, &order, &mut sampler, &mut stats, &|phase| phase(0));
        // The sampler carries nothing from one column or sort to the next,
        // and the stats are the same however many workers take them.
        let mut again = Vec::new();
        let three_workers = |phase: &(dyn Fn(usize) + Sync)| {
            std::thread::scope(|s| {
                for w in 0..3 {
                    s.spawn(move || phase(w));
                }
            })
        };
        key_stats(&chunk, &order, &mut sampler, &mut again, &three_workers);
        assert_eq!(stats, again);
        stats
    }

    fn stat(max_len: usize, prefix_len: usize) -> KeyStat {
        KeyStat::Varchar(VarcharStat {
            max_len,
            prefix_len,
        })
    }

    #[test]
    fn strings_within_twelve_bytes_keep_the_papers_rule() {
        let short = Vector::from_strings(["b", "abcdefghijkl", ""]);
        assert_eq!(stats_of(vec![short], 1), [stat(12, 12)]);
        let empty = Vector::from_strings(["", ""]);
        assert_eq!(stats_of(vec![empty], 1), [stat(0, 1)]);
    }

    #[test]
    fn no_collision_in_the_sample_plans_twelve_bytes() {
        // Every string outgrows 12 bytes and no two share their first 12.
        let distinct: Vec<String> = (0..500).map(|i| format!("{i:012}_tail")).collect();
        let strings = Vector::from_strings(&distinct);
        assert_eq!(stats_of(vec![strings], 1), [stat(17, 12)]);
    }

    #[test]
    fn prefix_reaches_past_the_longest_sampled_collision() {
        // "shared_prefix_" is 14 bytes: the b/c pair stops sharing at 14,
        // the two long ones at 17 — byte 18 separates them, and the plan
        // adds its slack.
        let rows = [
            "shared_prefix_b",
            "shared_prefix_c",
            "shared_prefix_aaaX and more of it",
            "shared_prefix_aaaY and more of it",
            "short",
        ];
        let strings = Vector::from_strings(rows);
        assert_eq!(stats_of(vec![strings], 1), [stat(33, 18 + PREFIX_SLACK)]);
        // Equal strings are no collision to separate, NULLs and strings
        // the 12 bytes hold exactly are not sampled.
        let values: Vec<Value> = ["twelve_bytes", "a_long_string_twice", "a_long_string_twice"]
            .into_iter()
            .map(Value::from)
            .chain([Value::Null])
            .collect();
        let strings = Vector::from_values(LogicalType::Varchar, &values).unwrap();
        assert_eq!(stats_of(vec![strings], 1), [stat(19, 12)]);
    }

    #[test]
    fn prefix_stops_at_the_longest_string_and_at_the_cap() {
        // The pair differs in its last byte: the whole string is the
        // prefix (slack or not), and the column is exact.
        let strings = Vector::from_strings(["customer_name_0001", "customer_name_0002"]);
        assert_eq!(stats_of(vec![strings], 1), [stat(18, 18)]);
        // One pair separable within the cap, one sharing more than it: the
        // cap, and ties remain.
        let stem = "x".repeat(PREFIX_CAP + 5);
        let rows = [format!("{stem}a"), format!("{stem}b"), "x".repeat(20) + "y"];
        let capped = stat(PREFIX_CAP + 6, PREFIX_CAP);
        assert_eq!(stats_of(vec![Vector::from_strings(&rows)], 1), [capped]);
        // Every colliding pair shares more than the cap: a wider key would
        // separate nothing, so the plan stays at 12 bytes.
        let strings = Vector::from_strings(&rows[..2]);
        assert_eq!(stats_of(vec![strings], 1), [stat(PREFIX_CAP + 6, 12)]);
        // Sharing exactly the cap's bytes is still beyond it.
        let stem = "x".repeat(PREFIX_CAP);
        let strings = Vector::from_strings([format!("{stem}a"), format!("{stem}b")]);
        assert_eq!(stats_of(vec![strings], 1), [stat(PREFIX_CAP + 1, 12)]);
        let stem = "x".repeat(PREFIX_CAP - 1);
        let strings = Vector::from_strings([format!("{stem}a"), format!("{stem}b")]);
        assert_eq!(stats_of(vec![strings], 1), [stat(PREFIX_CAP, PREFIX_CAP)]);
    }

    #[test]
    fn only_key_columns_up_to_the_first_truncated_one_are_read() {
        let truncated =
            || Vector::from_strings(["a_long_string_one_and_more", "a_long_string_two_and_more"]);
        let exact = || Vector::from_strings(["pq", "p"]);
        let payload = |len: usize| Vector::from_strings(["z".repeat(len), String::new()]);
        // Key: exact, truncated; then a key column the key never reaches
        // and a payload column — neither is read.
        let stats = stats_of(vec![exact(), truncated(), exact(), payload(40)], 3);
        let cut = stat(26, 15 + PREFIX_SLACK);
        assert_eq!(stats, [stat(2, 2), cut, KeyStat::Plain, KeyStat::Plain]);
        // A payload column's strings do not change the plan.
        let other = stats_of(vec![exact(), truncated(), exact(), payload(7)], 3);
        assert_eq!(stats, other);
        // ORDER BY names columns in its own order.
        let chunk = DataChunk::from_columns(vec![payload(40), exact()]).unwrap();
        let order = OrderBy::new(vec![OrderByColumn::desc(1)]);
        let mut stats = Vec::new();
        let serial: Spread<'_> = &|phase| phase(0);
        key_stats(
            &chunk,
            &order,
            &mut PrefixSampler::default(),
            &mut stats,
            serial,
        );
        assert_eq!(stats, [KeyStat::Plain, stat(2, 2)]);
    }

    #[test]
    fn integer_key_columns_take_their_range_until_the_key_ends() {
        let ints = |values: &[Option<i32>]| {
            let values: Vec<Value> = values
                .iter()
                .map(|v| v.map_or(Value::Null, Value::Int32))
                .collect();
            Vector::from_values(LogicalType::Int32, &values).unwrap()
        };
        let truncated =
            Vector::from_strings(["a_long_string_one_and_more", "a_long_string_two_and_more"]);
        // Key: a nullable INT, a UINT, the truncated VARCHAR, then an INT
        // the key never reaches (not read), and a FLOAT (no range).
        let columns = vec![
            ints(&[Some(-3), None]),
            Vector::from_u32s(vec![7, 9]),
            truncated,
            ints(&[Some(1), Some(2)]),
            Vector::from_values(LogicalType::Float64, &[Value::Float64(1.0), Value::Null]).unwrap(),
        ];
        let stats = stats_of(columns.clone(), 4);
        let range = |lo: u64, hi: u64, nulls| KeyStat::Range(KeyRange { lo, hi, nulls });
        assert_eq!(stats[0], range((-3i32).ordinal(), (-3i32).ordinal(), true));
        assert_eq!(stats[1], range(7, 9, false));
        assert_eq!(stats[2], stat(26, 15 + PREFIX_SLACK));
        assert_eq!(stats[3..], [KeyStat::Plain, KeyStat::Plain]);
        // Without the VARCHAR in the way the walk reaches the last INT; the
        // FLOAT keeps its plain layout.
        let order = OrderBy::new([0, 1, 3, 4].map(OrderByColumn::asc).to_vec());
        let chunk = DataChunk::from_columns(columns).unwrap();
        let mut stats = Vec::new();
        key_stats(
            &chunk,
            &order,
            &mut PrefixSampler::default(),
            &mut stats,
            &|phase| phase(0),
        );
        assert_eq!(stats[3], range(1i32.ordinal(), 2i32.ordinal(), false));
        assert_eq!(stats[4], KeyStat::Plain);
    }

    #[test]
    fn a_streamed_run_takes_its_strings_in_run_order_and_a_lone_one_adopts_them() {
        // A VARCHAR key with a NULL and an empty string, the input row as
        // an INT, and a VARCHAR payload with NULLs: every VARCHAR slot of
        // a run must name its own row's string.
        let strings = |values: &[Option<&str>]| {
            let values: Vec<Value> = values
                .iter()
                .map(|v| v.map_or(Value::Null, Value::from))
                .collect();
            Vector::from_values(LogicalType::Varchar, &values).unwrap()
        };
        let key = strings(&[
            Some("mike"),
            Some("alpha"),
            None,
            Some("zulu"),
            Some("echo"),
            Some(""),
        ]);
        let ids = Vector::from_u32s((0..6).collect());
        let payload = strings(&[
            Some("mike's payload"),
            None,
            Some("nulls key"),
            Some("z-long-payload"),
            None,
            Some("e"),
        ]);
        let input = DataChunk::from_columns(vec![key, ids, payload]).unwrap();
        let (types, order) = (input.types(), OrderBy::ascending(1));
        let core = SorterCore::new(types.clone(), order.clone(), 6, true, SortResources::new(1));
        let mut plan = KeyPlan::default();
        plan.plan(&types, &order, &input, &|phase| phase(0));
        let staged = |c: usize| input.column(c).as_strings().unwrap().range_bytes(0, 6);
        let staged_heap = staged(0) + staged(2);
        // The strings a heap holds column by column, rows in `rows` order.
        let laid_out = |rows: &[usize]| {
            let mut heap = Vec::new();
            for c in [0, 2] {
                for &r in rows {
                    if input.column(c).is_valid(r) {
                        heap.extend_from_slice(input.column(c).as_strings().unwrap().get_bytes(r));
                    }
                }
            }
            heap
        };
        let mut moved = [0; 2];
        for streamed in [false, true] {
            let before = core.metrics.snapshot().counter(Counter::BytesMoved);
            let run = core.make_run(core.pool(), &plan, &input, (0, 6), streamed);
            moved[usize::from(streamed)] =
                core.metrics.snapshot().counter(Counter::BytesMoved) - before;
            let block = &run.payload;
            let input_row = |i: usize| match block.value(i, 1) {
                Value::UInt32(r) => r as usize,
                other => panic!("row id {other:?}"),
            };
            let rows: Vec<usize> = (0..block.len()).map(input_row).collect();
            assert_eq!(rows.len(), 6);
            for (i, &r) in rows.iter().enumerate() {
                for c in [0, 2] {
                    assert_eq!(
                        block.value(i, c),
                        input.column(c).get(r),
                        "row {i}, column {c}"
                    );
                }
            }
            if streamed {
                // Contiguous, in row order, one column after the other; a
                // NULL takes no bytes and keeps the slot the scatter wrote.
                assert_eq!(block.heap(), laid_out(&rows));
                assert_eq!(block.heap().len(), staged_heap);
                for c in [0, 2] {
                    let slot = core.layout.offset(c);
                    for i in (0..block.len()).filter(|&i| block.is_null(i, c)) {
                        assert_eq!(block.row(i)[slot..slot + 8], [0; 8], "row {i}, column {c}");
                    }
                }
            } else {
                // A lone resident run keeps the heap the rows were staged
                // into: the strings in input order.
                assert_eq!(block.heap(), laid_out(&(0..6).collect::<Vec<_>>()));
            }
            run.recycle(core.pool());
        }
        // Only the copy of the strings tells the two apart.
        assert_eq!(moved[1], moved[0] + staged_heap as u64);
    }

    #[test]
    fn a_bucket_of_every_sample_is_bounded_work_and_still_finds_the_prefix() {
        // 5 000 strings sharing 14 bytes, differing within the next six:
        // one bucket holds every sample, each paired with at most
        // `PAIRS_PER_ROW` earlier ones — 16 384 pairs of random six-digit
        // numbers, some of which agree on five digits.
        let mut rng = rowsort_testkit::Rng::seed_from_u64(0x000F_1615);
        let names: Vec<String> = (0..5_000)
            .map(|_| format!("customer_name_{:06}", rng.below(50_000)))
            .collect();
        let strings = Vector::from_strings(&names);
        assert_eq!(stats_of(vec![strings], 1), [stat(20, 20)]);
    }
}
