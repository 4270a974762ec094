//! Run generation — the first half of Figure 11: vectors → payload rows +
//! normalized keys → thread-local radix sort, comparator inside key-equal
//! ranges → one [`SortedRun`] with every buffer taken from a
//! [`BufferPool`](crate::pool::BufferPool) ([`SorterCore::make_run`]).
//! The plan a sort makes before its first run is here too: [`KeyPlan`],
//! whose [`key_stats`] size each VARCHAR key prefix from the strings
//! themselves — or rank a column whose strings repeat — and each integer
//! key column from its range, reading what a table's [`TableStats`]
//! already hold.

use crate::comparator::FusedRowComparator;
use crate::dict::{hash_bytes, Dictionary, Heap, Ranked, MAX_VALUES};
use crate::keys::{
    key_layout, word, KeyBlock, KeySortAlgo, KeyStat, RankStat, VarcharStat, PREFIX_CAP,
};
use crate::merge::MergeOrder;
use crate::metrics::{Counter, DICT_REPORTED};
use crate::pool::SortPool;
use crate::sorter::SorterCore;
use rowsort_normkey::{key_range, KeyColumn, KeyRange, NormKeyLayout, DEFAULT_MAX_PREFIX};
use rowsort_row::{reorder_heap, reorder_rows, Heaps, RowBlock, RowLayout};
use rowsort_vector::{DataChunk, LogicalType, OrderBy, OrderByColumn, StringVec, Vector};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock, TryLockError};
use std::time::Instant;

/// One sorted run: normalized keys (stride = `key_width`, row ids
/// stripped) aligned 1:1 with already-reordered payload rows, which hold
/// only the columns the key does not give back ([`RowPlan`]).
pub(crate) struct SortedRun {
    /// Rows of the run: a row of no columns has no bytes to count.
    pub(crate) rows: usize,
    pub(crate) keys: Vec<u8>,
    /// Bytes per key entry, carried from the [`KeyBlock`] layout that
    /// produced the run (every run of a sort shares it).
    pub(crate) key_width: usize,
    /// Per-row offset-value codes (8 LE bytes per row): row 0 relative
    /// to −∞, row `i` relative to row `i − 1`. Empty unless the sort's
    /// merge codes are stored: OVC on and keys of 8 bytes or more
    /// (DESIGN.md §10.2).
    pub(crate) ovc: Vec<u8>,
    /// The rows, and — for a run read front to back — their strings in
    /// run order, column by column. A lone resident run's heap is empty:
    /// its slots point into the input columns (`in_input`).
    pub(crate) payload: RowBlock,
    /// Whether the rows' VARCHAR slots are offsets into the input columns
    /// they came from ([`Heaps::Columns`]) rather than into `payload`'s
    /// heap.
    pub(crate) in_input: bool,
    /// What the run holds of each of the output's VARCHAR columns
    /// ([`RowPlan::strings`]): its bytes in the whole run, then, for a run
    /// read front to back, each key-decoded one's bytes before every
    /// [`KEYED_STRIDE`]-th row — `u64`s, little-endian. Empty for a sort
    /// without VARCHAR columns.
    pub(crate) strings: Vec<u8>,
}

/// Rows between two of a run's marks of a key-decoded VARCHAR column's
/// bytes ([`SortedRun::strings`]): a cut inside the run decodes at most
/// this many keys' lengths past the mark before it, and the marks cost a
/// run of 131 072 rows 4 KiB per such column.
const KEYED_STRIDE: usize = 256;

impl SortedRun {
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// The bytes each of the output's VARCHAR columns ([`RowPlan::strings`])
    /// holds in the run's first `row` rows, into `out`: nothing before the
    /// first row, the run's totals after the last, and in between two slot
    /// reads for a column in the rows — its strings are in run order, and
    /// a NULL's slot holds the offset its column has reached
    /// ([`reorder_heap`]) — or, for a key-decoded column, the mark before
    /// the row and the lengths the keys from there give
    /// ([`ColumnFrom::string_len`]). Only a run read front to back is cut
    /// inside.
    pub(crate) fn strings_before(&self, order: MergeOrder<'_>, row: usize, out: &mut [u64]) {
        let plan = order.rows;
        let totals = self
            .strings
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(word(b, 0)));
        let marks = self
            .strings
            .get(8 * plan.strings.len()..)
            .unwrap_or_default();
        let per_column = self.rows.div_ceil(KEYED_STRIDE);
        let mut keyed = 0;
        for ((out, total), &(c, from)) in out.iter_mut().zip(totals).zip(&plan.strings) {
            *out = if row == 0 {
                0
            } else if row >= self.rows {
                total
            } else {
                match from {
                    ColumnSource::Slot(s) => {
                        let at = plan.layout.offset(s);
                        let offset = |r: usize| u32::from_le_bytes(word(self.payload.row(r), at));
                        u64::from(offset(row) - offset(0))
                    }
                    ColumnSource::Key(_) => {
                        let mark = keyed * per_column + row / KEYED_STRIDE;
                        let before = u64::from_le_bytes(word(marks, mark * 8));
                        let (kw, from) = (self.key_width, order.column_from(c));
                        let keys = self.keys[..row * kw].chunks_exact(kw.max(1));
                        let lens = keys.skip(row / KEYED_STRIDE * KEYED_STRIDE);
                        let lens = lens.map(|key| from.string_len(key).unwrap_or(0) as u64);
                        before + lens.sum::<u64>()
                    }
                }
            };
            keyed += usize::from(matches!(from, ColumnSource::Key(_)));
        }
    }

    /// Return the run's buffers to `pool`.
    pub(crate) fn recycle(self, pool: SortPool<'_>) {
        pool.put_bytes(self.keys);
        for buf in [self.ovc, self.strings] {
            if buf.capacity() > 0 {
                pool.put_bytes(buf);
            }
        }
        let (data, heap) = self.payload.into_raw_parts();
        pool.put_bytes(data);
        if heap.capacity() > 0 {
            pool.put_bytes(heap);
        }
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

/// Samples between the checks that stop a settled sample showing too many
/// strings for a dictionary.
const CHECK_EVERY: usize = 256;

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
/// sampled strings' first 12 bytes and one over the longer ones whole,
/// and, per sample, its row and the previous sample with the same 12
/// bytes.
#[derive(Default)]
pub(crate) struct PrefixSampler {
    /// `1 +` the most recent sample whose first 12 bytes hash here (linear
    /// probing on a different 12 bytes), then `1 +` the first sample of
    /// each longer string hashed whole; 0 is an empty slot.
    slots: Vec<u32>,
    /// Row of each sample.
    rows: Vec<u32>,
    /// `1 +` the previous sample with the same first 12 bytes, 0 if none.
    prev: Vec<u32>,
}

/// What [`PrefixSampler::sample`] found of a VARCHAR column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sample {
    /// Bytes of each string the key should encode.
    pub(crate) prefix_len: usize,
    /// Valid rows sampled.
    pub(crate) rows: usize,
    /// Distinct strings among them.
    pub(crate) distinct: usize,
}

impl PrefixSampler {
    /// Sample `column` (its `strings`, longest `max_len`): how many bytes
    /// of its strings the key should encode, and how many distinct
    /// strings its sampled valid rows hold.
    ///
    /// The prefix: a column of strings within 12 bytes encodes them whole,
    /// the paper's rule. Beyond that 12, unless the sample shows unequal
    /// strings that 12 bytes tie and some prefix within [`PREFIX_CAP`]
    /// separates — then the longest `lcp + 1` over those pairs plus
    /// [`PREFIX_SLACK`], within `12 ..= min(max_len, PREFIX_CAP)`. (A
    /// column whose every colliding pair shares more than the cap keeps
    /// 12: 20 more key bytes would buy nothing and cost the all-tied sort
    /// a fifth, EXPERIMENTS.md "VARCHAR run generation".)
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
    /// few dozen), and finding them takes one hashed pass, no sort. The
    /// same pass counts the samples equal to an earlier one: a string of
    /// 12 bytes or fewer has a bucket of its own, a longer one a slot in a
    /// second table of whole strings.
    ///
    /// A function of the column alone — never of threads, run size or
    /// budget — so every run, both sorters and every thread count plan
    /// the same key.
    pub(crate) fn sample(
        &mut self,
        column: &Vector,
        strings: &StringVec,
        max_len: usize,
    ) -> Sample {
        const HEAD: usize = DEFAULT_MAX_PREFIX;
        // A sample's bucket: its first 12 bytes, zero-padded, and its
        // length up to 13 — the string itself when it has 12 bytes or
        // fewer, every longer string with the same first 12 otherwise.
        let heap = Heap::new(strings);
        let bucket_of = |row: usize| heap.head(row, HEAD) | heap.len(row).min(HEAD + 1) as u128;
        let slot_of = |bucket: u128| {
            let (hi, lo) = ((bucket >> 64) as u64, bucket as u64);
            let mixed =
                (lo ^ hi.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (mixed >> (u64::BITS - TABLE_SLOTS.trailing_zeros())) as usize
        };
        // Two tables in one buffer: buckets, then the longer strings whole.
        self.slots.clear();
        self.slots.resize(2 * TABLE_SLOTS, 0);
        self.rows.clear();
        self.rows.reserve(SAMPLE_ROWS);
        self.prev.clear();
        self.prev.reserve(SAMPLE_ROWS);
        let limit = max_len.min(PREFIX_CAP);
        let mut prefix = HEAD;
        // Whether some colliding pair stops sharing bytes within the cap,
        // and whether one has asked for all the prefix there is.
        let (mut separable, mut settled) = (false, false);
        let (mut sampled, mut repeats) = (0, 0);
        let step = strings.len().div_ceil(SAMPLE_ROWS).max(1);
        for row in (0..strings.len()).step_by(step) {
            // A NULL's key is decided by its NULL byte.
            if !column.is_valid(row) {
                continue;
            }
            sampled += 1;
            let s = strings.get_bytes(row);
            let sample = |e: u32| strings.get_bytes(self.rows[e as usize - 1] as usize);
            let bucket = bucket_of(row);
            let mut slot = slot_of(bucket);
            while self.slots[slot] != 0
                && bucket_of(self.rows[self.slots[slot] as usize - 1] as usize) != bucket
            {
                slot = (slot + 1) % TABLE_SLOTS;
            }
            let first = self.slots[slot];
            // A string of 12 bytes or fewer encodes exactly: its bucket
            // holds copies of it only.
            if s.len() <= HEAD && first != 0 {
                repeats += 1;
                continue;
            }
            // A longer string is looked up whole in the second table, where
            // each distinct one sampled has a slot.
            let mut whole = (hash_bytes(s) >> (u64::BITS - TABLE_SLOTS.trailing_zeros())) as usize;
            let mut repeat = false;
            while let Some(&e) = self.slots.get(TABLE_SLOTS + whole).filter(|&&e| e != 0) {
                if sample(e) == s {
                    repeat = true;
                    break;
                }
                whole = (whole + 1) % TABLE_SLOTS;
            }
            let mut earlier = first;
            for _ in 0..PAIRS_PER_ROW {
                if earlier == 0 {
                    break;
                }
                let other = sample(earlier);
                if other != s && !settled {
                    // Compared up to the cap: sharing more is all the same.
                    let lcp = HEAD + shared_bytes(&s[HEAD..], &other[HEAD..], PREFIX_CAP - HEAD);
                    separable |= lcp < PREFIX_CAP;
                    prefix = prefix.max(lcp + 1 + PREFIX_SLACK);
                    // No later pair can ask for more.
                    settled = separable && prefix >= limit;
                }
                earlier = self.prev[earlier as usize - 1];
            }
            repeats += usize::from(repeat);
            self.rows.push(row as u32);
            self.prev.push(first);
            self.slots[slot] = self.rows.len() as u32;
            if !repeat {
                self.slots[TABLE_SLOTS + whole] = self.rows.len() as u32;
            }
            // Once the prefix is settled, the sample goes on only to count
            // strings, and stops where it already shows too many for a
            // dictionary: a column of fewer strings shows fewer at every
            // sample size.
            let so_far = Sample {
                prefix_len: 0,
                rows: sampled,
                distinct: sampled - repeats,
            };
            if settled && sampled % CHECK_EVERY == 0 && !few_values(strings.len(), so_far) {
                break;
            }
        }
        let prefix_len = if max_len <= HEAD {
            max_len.max(1)
        } else if separable {
            prefix.min(limit)
        } else {
            // Where every colliding pair shares more than the cap holds, a
            // wider key separates nothing: the paper's 12 bytes, and the
            // ties.
            HEAD
        };
        Sample {
            prefix_len,
            rows: sampled,
            distinct: sampled - repeats,
        }
    }
}

/// How many leading bytes `a` and `b` share, up to `cap`: eight at a time,
/// the first unequal byte of a word found from its lowest set bit.
fn shared_bytes(a: &[u8], b: &[u8], cap: usize) -> usize {
    let n = a.len().min(b.len()).min(cap);
    let (a, b) = (
        a.get(..n).unwrap_or_default(),
        b.get(..n).unwrap_or_default(),
    );
    let mut at = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(word::<8>(x, 0)) ^ u64::from_le_bytes(word::<8>(y, 0));
        if diff != 0 {
            return at + diff.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    let tail = a.iter().zip(b).skip(at);
    at + tail.take_while(|(x, y)| x == y).count()
}

/// Rows per distinct string a VARCHAR key column needs to be rank-coded
/// ([`most_values`]).
const ROWS_PER_VALUE: usize = 8;

/// Most distinct strings a VARCHAR key column of `rows` rows is rank-coded
/// with: one per [`ROWS_PER_VALUE`] rows, and 2¹⁶. At one string per 8
/// rows, sorting the distinct strings costs about what the dictionary's
/// hashed pass over the rows does; past 2¹⁶ a rank is no `u16`.
fn most_values(rows: usize) -> usize {
    (rows / ROWS_PER_VALUE).min(MAX_VALUES)
}

/// Whether a VARCHAR key column of `rows` rows whose sample is `sample` is
/// worth a dictionary: whether the sample holds no more distinct strings
/// than as many draws from [`most_values`] equally likely strings would on
/// average. A column of uniform strings qualifies up to about that many;
/// one whose strings are skewed, with more, and its pass may then stop at
/// 2¹⁶ + 1 — the only time a sampled column's dictionary is begun and
/// dropped. `longstr_t1`'s 50 000 values over 62 500 rows show about 1 880
/// distinct strings in 1 920 samples, where 7 812 strings would show
/// 1 700; `strings_mem`'s e-mails show as many as their samples.
fn few_values(rows: usize, sample: Sample) -> bool {
    let most = most_values(rows) as f64;
    let expected = -most * (-(sample.rows as f64) / most).exp_m1();
    expected >= sample.distinct as f64
}

/// Runs a phase of the plan on every worker of a crew (its argument is the
/// worker's index), or once on the calling thread.
pub(crate) type Spread<'a> = &'a dyn Fn(&(dyn Fn(usize) + Sync));

/// The key statistics of one relation's columns, each taken by the first
/// sort that keys on its column and kept for every later sort of the same
/// rows (DESIGN.md §6, "A table's statistics"). None of them depends on an
/// `ORDER BY`: a VARCHAR column's longest string, its collision sample (a
/// column longer than 12 bytes) and its dictionary (where it holds few
/// strings); an integer, DATE or TIMESTAMP column's range. What a sort does
/// with them — where its key ends, which columns it drops — stays the
/// sort's own.
///
/// An engine makes one per registered table, empty, and lends it to each
/// sort of that table's rows as they lie
/// ([`SortPipeline::sort_with_stats`](crate::pipeline::SortPipeline::sort_with_stats),
/// [`ExternalSorter::sort_with_stats`](crate::external::ExternalSorter::sort_with_stats));
/// every other sort plans through a cache of its sorter's own, emptied
/// each sort. The statistics describe their rows row for row — a
/// dictionary's ranks are per row — so a cache serves no other relation,
/// not even a subset of its own.
///
/// ```
/// use rowsort_core::{SortOptions, SortPipeline, TableStats};
/// use rowsort_vector::{DataChunk, OrderBy, Vector};
///
/// let table = DataChunk::from_columns(vec![Vector::from_strings(["b", "a", "b", "c"])]).unwrap();
/// let stats = TableStats::new(&table);
/// let pipeline = SortPipeline::new(table.types(), OrderBy::ascending(1), SortOptions::default());
/// let cold = pipeline.sort_with_stats(&table, Some(&stats));
/// assert_eq!(pipeline.last_profile().stats_reused, 0);
/// // The second sort plans from what the first took.
/// assert_eq!(pipeline.sort_with_stats(&table, Some(&stats)), cold);
/// assert_eq!(pipeline.last_profile().stats_reused, 1);
/// ```
#[derive(Default)]
pub struct TableStats {
    /// Rows of the relation.
    rows: usize,
    /// Its columns', by index.
    columns: Vec<ColumnStats>,
    /// Plans made through this cache: a plan's number marks what it took.
    plans: AtomicU64,
}

/// What sorts took of one column ([`TableStats`]). Each statistic is taken
/// once, by the first sort that needs it; a sort that needs it meanwhile
/// waits for it.
#[derive(Default)]
struct ColumnStats {
    /// A VARCHAR column's longest string.
    max_len: OnceLock<usize>,
    /// A VARCHAR column's collision sample, when its strings outgrow 12
    /// bytes.
    sample: OnceLock<Sample>,
    /// A VARCHAR column's dictionary; `None` where the column holds too
    /// many strings for one.
    dict: OnceLock<Option<Ranks>>,
    /// An integer, DATE or TIMESTAMP column's range.
    range: OnceLock<Option<KeyRange>>,
    /// The number of the plan that last took one of the above.
    taken_by: AtomicU64,
}

/// A built dictionary: what it holds, each row's rank, and a row of each
/// rank's string.
struct Ranks {
    ranked: Ranked,
    ranks: Vec<u16>,
    rows: Vec<u32>,
}

impl TableStats {
    /// A cache for the statistics of `data`'s columns, none taken yet.
    pub fn new(data: &DataChunk) -> TableStats {
        let mut stats = TableStats {
            rows: data.len(),
            ..TableStats::default()
        };
        stats
            .columns
            .resize_with(data.column_count(), Default::default);
        stats
    }

    /// Empty the cache for `input`'s columns, handing each dictionary's
    /// buffers to `spare`: a sorter's own cache before each sort.
    fn reset(&mut self, input: &DataChunk, spare: &mut Vec<(Vec<u16>, Vec<u32>)>) {
        self.rows = input.len();
        self.columns
            .resize_with(input.column_count(), Default::default);
        for column in &mut self.columns {
            if let Some(Some(dict)) = column.dict.take() {
                spare.push((dict.ranks, dict.rows));
            }
            *column = ColumnStats::default();
        }
    }

    /// Whether the cache is for a relation shaped like `input`.
    fn fits(&self, input: &DataChunk) -> bool {
        self.rows == input.len() && self.columns.len() == input.column_count()
    }

    /// The ranks of column `c`'s rows, empty unless a dictionary ranked it.
    pub(crate) fn ranks(&self, c: usize) -> &[u16] {
        match self.columns.get(c).and_then(|column| column.dict.get()) {
            Some(Some(dict)) => &dict.ranks,
            _ => &[],
        }
    }

    /// A row of each rank's string in column `c`, by rank: the dictionary
    /// a sort's output decodes the column's ranks through. Empty unless a
    /// dictionary ranked the column.
    pub(crate) fn rank_rows(&self, c: usize) -> &[u32] {
        match self.columns.get(c).and_then(|column| column.dict.get()) {
            Some(Some(dict)) => &dict.rows,
            _ => &[],
        }
    }

    /// What the cache holds of column `c`, as the key plans it: its range;
    /// or its ranks, else its longest string and the prefix of it its
    /// sample asked for (all of a string within 12 bytes); else nothing.
    fn stat(&self, c: usize) -> KeyStat {
        let Some(column) = self.columns.get(c) else {
            return KeyStat::Plain;
        };
        if let Some(&Some(range)) = column.range.get() {
            return KeyStat::Range(range);
        }
        let Some(&max_len) = column.max_len.get() else {
            return KeyStat::Plain;
        };
        let prefix_len = match column.sample.get() {
            Some(sample) if max_len > DEFAULT_MAX_PREFIX => sample.prefix_len,
            _ => max_len.max(1),
        };
        let prefix = VarcharStat {
            max_len,
            prefix_len,
        };
        match column.dict.get() {
            Some(Some(dict)) => KeyStat::Ranked(RankStat {
                values: dict.ranked.values,
                nulls: dict.ranked.nulls,
                prefix,
            }),
            _ => KeyStat::Varchar(prefix),
        }
    }
}

impl std::fmt::Debug for TableStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableStats")
            .field("rows", &self.rows)
            .field("columns", &self.columns.len())
            .finish_non_exhaustive()
    }
}

/// What the key planner keeps from sort to sort, so a warm sorter's plan
/// allocates nothing: the sample's table, a dictionary's working memory
/// per `ORDER BY` position, and the rank buffers its own cache gave back.
#[derive(Default)]
pub(crate) struct PlanScratch {
    sampler: Mutex<PrefixSampler>,
    /// More samplers, for columns sampled while `sampler` is busy.
    spare: Mutex<Vec<PrefixSampler>>,
    /// Columns longer than 12 bytes whose sample asked for a dictionary:
    /// `ORDER BY` position and distinct strings sampled.
    sampled: Mutex<Vec<(usize, usize)>>,
    /// Each key column's dictionary, by `ORDER BY` position, while the
    /// plan takes them.
    dicts: Vec<Mutex<Dictionary>>,
    /// Rank buffers of an emptied cache, for the next dictionaries.
    spare_ranks: Mutex<Vec<(Vec<u16>, Vec<u32>)>>,
}

/// What [`key_stats`] found beside the statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Planned {
    /// Whether some column's statistic differs from what `stats` held.
    pub(crate) changed: bool,
    /// Key columns the plan read from `table` without taking anything of
    /// them: what earlier sorts took ([`SortProfile::stats_reused`]).
    ///
    /// [`SortProfile::stats_reused`]: crate::metrics::SortProfile::stats_reused
    pub(crate) reused: u32,
}

/// What the key planner needs of `input`'s `ORDER BY` columns, read from
/// `table` — [`input`'s statistics](TableStats) — where an earlier sort
/// took it and taken into `table` where none did; into `stats` (indexed by
/// column; [`KeyStat::Plain`] for every other column — a payload column is
/// never read, so it cannot invalidate a cached key block). A VARCHAR
/// column: the longest string, and the prefix of it the key encodes — all
/// of it up to 12 bytes, the paper's rule; beyond that, what
/// [`PrefixSampler::sample`] finds the data to need. Or, instead, the
/// column's ranks among its distinct strings over the whole input
/// ([`Dictionary`], the ranks kept in `table`) where it holds at most
/// [`most_values`] of them: a column of strings within 12 bytes tries, and
/// its pass stops past that many; a longer one tries where its sample
/// shows few ([`few_values`]), and its pass stops past 2¹⁶. An integer
/// column: its range and whether it has NULLs ([`key_range`]). The plan
/// is sort-wide: every run must agree on the normalized-key shape or the
/// merge phase could not compare keys.
///
/// A sample, a dictionary or a range is a pass over its column, so with
/// two such passes left to take or more the columns are claimed one at a
/// time, in `ORDER BY` order, by `spread`'s workers, and none past the
/// first column the key truncates: `catalog_spill`'s four nullable INT
/// columns (2 M values) take about 3 ms on one thread of a 2-core host and
/// 1.6–2.3 ms on two, and `small_sort`'s last names are ranked while its
/// e-mails are sampled. A longer column whose sample asks for a dictionary
/// gets it after those claims. What the plan does with the statistics is
/// its own: the key ends at the first column whose prefix truncates, and
/// the columns past it are dropped — so one table's statistics serve every
/// `ORDER BY`, and a plan from a warm `table` equals a plan from a cold one.
pub(crate) fn key_stats(
    input: &DataChunk,
    order: &OrderBy,
    table: &TableStats,
    scratch: &mut PlanScratch,
    stats: &mut Vec<KeyStat>,
    spread: Spread<'_>,
) -> Planned {
    assert!(table.fits(input), "key statistics of another relation");
    let (keys, rows) = (order.keys.as_slice(), input.len());
    let plan = table.plans.fetch_add(1, AtomicOrdering::SeqCst) + 1;
    let taken = |column: &ColumnStats| column.taken_by.store(plan, AtomicOrdering::SeqCst);
    let cached = |c: usize| &table.columns[c];
    // Every VARCHAR key column's longest string, and the passes left to
    // take: a longer VARCHAR's sample, a shorter one's dictionary, an
    // integer's range.
    let mut passes = 0;
    for key in keys {
        let (column, cache) = (input.column(key.column), cached(key.column));
        let Some(strings) = column.as_strings() else {
            let rangeable = KeyColumn::rangeable(column.logical_type());
            passes += usize::from(rangeable && cache.range.get().is_none());
            continue;
        };
        let max_len = *cache.max_len.get_or_init(|| {
            taken(cache);
            strings.max_len()
        });
        if max_len > DEFAULT_MAX_PREFIX {
            passes += usize::from(cache.sample.get().is_none());
        } else if cache.dict.get().is_none() {
            if most_values(rows) > 0 {
                scratch.make_room(keys.len());
            }
            passes += 1;
        }
    }
    // The columns, claimed in `ORDER BY` order. The key ends at the first
    // column its prefix truncates, and no column past it is claimed.
    let end = AtomicUsize::new(keys.len());
    {
        let (scratch, next) = (&*scratch, AtomicUsize::new(0));
        let claim = |_worker: usize| loop {
            let k = next.fetch_add(1, AtomicOrdering::SeqCst);
            let within = |_: &_| k <= end.load(AtomicOrdering::SeqCst);
            let Some(key) = keys.get(k).filter(within) else {
                break;
            };
            let (column, cache) = (input.column(key.column), cached(key.column));
            let Some(strings) = column.as_strings() else {
                if KeyColumn::rangeable(column.logical_type()) {
                    cache.range.get_or_init(|| {
                        taken(cache);
                        key_range(column)
                    });
                }
                continue;
            };
            let max_len = cache.max_len.get().copied().unwrap_or_default();
            if max_len <= DEFAULT_MAX_PREFIX {
                cache.dict.get_or_init(|| {
                    taken(cache);
                    let most = most_values(rows);
                    let dict =
                        (most > 0).then(|| scratch.rank(k, strings, column, (max_len, 256, most)));
                    dict.flatten()
                });
                continue;
            }
            let sample = *cache.sample.get_or_init(|| {
                taken(cache);
                scratch.sample(column, strings, max_len)
            });
            if few_values(rows, sample) {
                if cache.dict.get().is_none() {
                    let mut sampled = scratch.sampled.lock().unwrap_or_else(|e| e.into_inner());
                    sampled.push((k, sample.distinct));
                }
            } else if sample.prefix_len < max_len {
                end.fetch_min(k, AtomicOrdering::SeqCst);
            }
        };
        if passes > 1 {
            spread(&claim);
        } else {
            claim(0);
        }
    }
    // Then the dictionaries of the longer columns whose sample asked for
    // one, within the key.
    let end = end.into_inner();
    let mut sampled = std::mem::take(scratch.sampled.get_mut().unwrap_or_else(|e| e.into_inner()));
    sampled.retain(|&(k, _)| k <= end);
    sampled.sort_unstable();
    if !sampled.is_empty() {
        scratch.make_room(keys.len());
    }
    {
        let (scratch, next) = (&*scratch, AtomicUsize::new(0));
        let claim = |_worker: usize| {
            while let Some(&(k, distinct)) = sampled.get(next.fetch_add(1, AtomicOrdering::SeqCst))
            {
                let Some(key) = keys.get(k) else { break };
                let (column, cache) = (input.column(key.column), cached(key.column));
                let (Some(strings), Some(&max_len)) = (column.as_strings(), cache.max_len.get())
                else {
                    continue;
                };
                cache.dict.get_or_init(|| {
                    taken(cache);
                    scratch.rank(k, strings, column, (max_len, 2 * distinct, MAX_VALUES))
                });
            }
        };
        if sampled.len() > 1 {
            spread(&claim);
        } else {
            claim(0);
        }
    }
    sampled.clear();
    *scratch.sampled.get_mut().unwrap_or_else(|e| e.into_inner()) = sampled;
    // Where a dictionary stopped or none was asked for, a column keeps its
    // prefix; where that truncates, the key ends, and later columns go.
    let truncated = |s: KeyStat| matches!(s, KeyStat::Varchar(v) if v.prefix_len < v.max_len);
    let kept = keys
        .iter()
        .position(|key| truncated(table.stat(key.column)))
        .map_or(keys, |end| &keys[..=end]);
    let mut changed = stats.len() != input.column_count();
    stats.resize(input.column_count(), KeyStat::Plain);
    for (c, planned) in stats.iter_mut().enumerate() {
        let stat = if kept.iter().any(|key| key.column == c) {
            table.stat(c)
        } else {
            KeyStat::Plain
        };
        changed |= *planned != stat;
        *planned = stat;
    }
    let reused = kept.iter().filter(|key| {
        let taken_by = cached(key.column).taken_by.load(AtomicOrdering::SeqCst);
        table.stat(key.column) != KeyStat::Plain && taken_by != plan
    });
    Planned {
        changed,
        reused: reused.count() as u32,
    }
}

impl PlanScratch {
    /// [`PrefixSampler::sample`] on the sampler no other claim holds.
    fn sample(&self, column: &Vector, strings: &StringVec, max_len: usize) -> Sample {
        match self.sampler.try_lock() {
            Ok(mut sampler) => sampler.sample(column, strings, max_len),
            Err(TryLockError::Poisoned(e)) => e.into_inner().sample(column, strings, max_len),
            Err(TryLockError::WouldBlock) => {
                let spare = || self.spare.lock().unwrap_or_else(|e| e.into_inner());
                let mut sampler = spare().pop().unwrap_or_default();
                let sample = sampler.sample(column, strings, max_len);
                spare().push(sampler);
                sample
            }
        }
    }

    /// Rank `column` (its `strings`, at most `max_len` bytes long) at
    /// `ORDER BY` position `k`, room made for `expected` distinct strings:
    /// its dictionary, or `None` past `most` of them.
    fn rank(
        &self,
        k: usize,
        strings: &StringVec,
        column: &Vector,
        (max_len, expected, most): (usize, usize, usize),
    ) -> Option<Ranks> {
        let mut dict = self.dicts.get(k)?.lock().unwrap_or_else(|e| e.into_inner());
        if dict.ranks.capacity() == 0 {
            let mut spare = self.spare_ranks.lock().unwrap_or_else(|e| e.into_inner());
            (dict.ranks, dict.rows) = spare.pop().unwrap_or_default();
        }
        let ranked = dict.build(column, strings, max_len, expected, most)?;
        Some(Ranks {
            ranked,
            ranks: std::mem::take(&mut dict.ranks),
            rows: std::mem::take(&mut dict.rows),
        })
    }

    /// Make room for a dictionary at each of `keys` `ORDER BY` positions.
    /// Only a sorter that builds one keeps any.
    fn make_room(&mut self, keys: usize) {
        if self.dicts.len() < keys {
            self.dicts.resize_with(keys, Default::default);
        }
    }
}

/// What a sort's key and row are, and what planning keeps from sort to
/// sort: the key's layout and the one [`RowPlan`] it calls for, both
/// built when the statistics they were planned for change and only then,
/// so a warm sort of the same shape builds neither. Whether the row's
/// columns hold a NULL is one of those statistics, for the row alone: a
/// change there rebuilds the row, not the key. Unplanned, the key has no
/// columns and the row none either.
pub(crate) struct KeyPlan {
    /// The statistics `key` was planned for, by column.
    stats: Vec<KeyStat>,
    scratch: PlanScratch,
    /// The statistics of a sort no table lends its own to: the sorter's,
    /// emptied before each such sort.
    own: TableStats,
    /// The planned key.
    key: NormKeyLayout,
    /// The payload row `key` calls for.
    rows: RowPlan,
    /// Key blocks of `key`, whose entry buffers the runs encode into.
    key_blocks: Mutex<Vec<KeyBlock>>,
    /// Key columns the current plan read from a lent table's statistics.
    pub(crate) reused: u32,
}

impl Default for KeyPlan {
    fn default() -> KeyPlan {
        KeyPlan {
            stats: Vec::new(),
            scratch: PlanScratch::default(),
            own: TableStats::default(),
            key: NormKeyLayout::new(Vec::new()),
            rows: RowPlan::new(&[], &OrderBy::new(Vec::new()), 0, |_| true),
            key_blocks: Mutex::default(),
            reused: 0,
        }
    }
}

/// Where a sort's output takes one input column from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColumnSource {
    /// Its slot in the payload row.
    Slot(usize),
    /// The key column at this `ORDER BY` position, which holds it exactly.
    Key(usize),
}

/// The payload row of a sort whose key holds its first `exact` `ORDER BY`
/// columns exactly ([`KeyColumn::is_exact`]): every input column but
/// those, which the output decodes from the key (DESIGN.md §7.7). Its
/// layout, the tie comparator over it and each column's source depend on
/// the key's shape and on which columns hold a NULL, so the [`KeyPlan`]
/// that plans the key builds its one row beside it. The layout is sized
/// from the input ([`RowLayout::fitted`]): a NULL flag only for a column
/// that holds a NULL, the row padded to its widest slot (DESIGN.md §7.7).
pub(crate) struct RowPlan {
    pub(crate) layout: Arc<RowLayout>,
    /// Where each input column comes from, by input column.
    pub(crate) from: Vec<ColumnSource>,
    /// The input column in each row slot.
    pub(crate) columns: Vec<usize>,
    /// The output's VARCHAR columns, in column order: each one's input
    /// column, and where the output takes its strings from — a row slot,
    /// whose strings are the row's heap, or the key.
    pub(crate) strings: Vec<(usize, ColumnSource)>,
    /// Compares rows whose keys are byte-equal: the `ORDER BY` columns
    /// past those the key holds exactly, without those decoded from the
    /// key — in a tie group every column the key holds exactly is equal.
    pub(crate) tie_cmp: FusedRowComparator,
}

impl RowPlan {
    /// The row plan of a sort of `types` by `order` whose key holds its
    /// first `exact` `ORDER BY` columns exactly, over an input whose
    /// column `c` holds a NULL where `nulls(c)` says so. A column named
    /// twice is decoded from its first place.
    pub(crate) fn new(
        types: &[LogicalType],
        order: &OrderBy,
        exact: usize,
        nulls: impl Fn(usize) -> bool,
    ) -> RowPlan {
        let decoded_at = |c: usize| order.keys.iter().take(exact).position(|by| by.column == c);
        let columns: Vec<usize> = (0..types.len())
            .filter(|&c| decoded_at(c).is_none())
            .collect();
        let from: Vec<ColumnSource> = (0..types.len())
            .map(|c| match decoded_at(c) {
                Some(k) => ColumnSource::Key(k),
                None => ColumnSource::Slot(columns.partition_point(|&s| s < c)),
            })
            .collect();
        let slot_types: Vec<LogicalType> = columns.iter().map(|&c| types[c]).collect();
        let layout = Arc::new(RowLayout::fitted(&slot_types, |s| nulls(columns[s])));
        let ties = order
            .keys
            .iter()
            .skip(exact)
            .filter_map(|by| match from[by.column] {
                ColumnSource::Slot(column) => Some(OrderByColumn {
                    column,
                    spec: by.spec,
                }),
                ColumnSource::Key(_) => None,
            });
        let tie_cmp = FusedRowComparator::new(&layout, &OrderBy::new(ties.collect()));
        let strings = (0..types.len())
            .filter(|&c| types[c] == LogicalType::Varchar)
            .map(|c| (c, from[c]))
            .collect();
        RowPlan {
            layout,
            from,
            columns,
            strings,
            tie_cmp,
        }
    }

    /// Row slots that hold a VARCHAR, whose strings are the row's heap.
    pub(crate) fn varlen(&self) -> impl Iterator<Item = usize> + '_ {
        self.strings.iter().filter_map(|&(_, from)| match from {
            ColumnSource::Slot(s) => Some(s),
            ColumnSource::Key(_) => None,
        })
    }

    /// Whether the row has a NULL flag for each of its columns that holds
    /// a NULL in `input` and for no other: each such column's validity
    /// read once ([`Validity::all_valid`]).
    ///
    /// [`Validity::all_valid`]: rowsort_vector::Validity::all_valid
    fn flags_fit(&self, input: &DataChunk) -> bool {
        let mut slots = self.columns.iter().enumerate();
        slots.all(|(s, &c)| {
            let flagged = self.layout.null_flag(s).is_some();
            flagged != input.column(c).validity().all_valid()
        })
    }

    /// Input columns the output decodes from the key.
    pub(crate) fn decoded(&self) -> usize {
        let keyed = self
            .from
            .iter()
            .filter(|f| matches!(f, ColumnSource::Key(_)));
        keyed.count()
    }
}

impl KeyPlan {
    /// Plan the key of a sort of `input` by `order` from `lent`, the
    /// statistics of `input`'s table, or else from the sorter's own, taken
    /// afresh: size the VARCHAR prefixes from the strings or rank the
    /// strings, size the integer columns from their ranges. Where that
    /// changes a statistic, the key's layout and row are built anew and
    /// the key blocks of the old layout dropped. What is missing is taken
    /// on `spread`'s workers.
    pub(crate) fn plan(
        &mut self,
        types: &[LogicalType],
        order: &OrderBy,
        input: &DataChunk,
        lent: Option<&TableStats>,
        spread: Spread<'_>,
    ) {
        let table = match lent {
            Some(table) => table,
            None => {
                let spare = self.scratch.spare_ranks.get_mut();
                self.own
                    .reset(input, spare.unwrap_or_else(|e| e.into_inner()));
                &self.own
            }
        };
        let planned = key_stats(
            input,
            order,
            table,
            &mut self.scratch,
            &mut self.stats,
            spread,
        );
        self.reused = planned.reused;
        let nulls = |c: usize| !input.column(c).validity().all_valid();
        if planned.changed {
            let stats = &self.stats;
            let key = key_layout(types, order, |c| stats[c]);
            let exact = key.columns().iter().take_while(|c| c.is_exact()).count();
            self.rows = RowPlan::new(types, order, exact, nulls);
            self.key = key;
            self.release_entries();
        } else if !self.rows.flags_fit(input) {
            let exact = self.key.columns().iter().take_while(|c| c.is_exact());
            self.rows = RowPlan::new(types, order, exact.count(), nulls);
        }
    }

    /// Drop the key blocks and their entries: a sort whose runs are built
    /// needs none of them.
    pub(crate) fn release_entries(&mut self) {
        self.key_blocks
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// The planned key.
    pub(crate) fn key(&self) -> &NormKeyLayout {
        &self.key
    }

    /// The payload row the planned key calls for.
    pub(crate) fn rows(&self) -> &RowPlan {
        &self.rows
    }

    /// How the sort planned here compares records in its merges, and
    /// where its output takes each column from: a rank-coded column
    /// through the dictionary of `table`, the statistics the sort planned
    /// from, whose ranks name rows of `input`'s strings.
    pub(crate) fn merge_order<'a>(
        &'a self,
        table: &'a TableStats,
        input: &'a DataChunk,
    ) -> MergeOrder<'a> {
        MergeOrder {
            kw: self.key.width(),
            tie_possible: self.key.tie_possible(),
            rows: &self.rows,
            key: &self.key,
            table,
            input,
        }
    }

    /// The statistics the sort planned from: `lent`, or the sorter's own.
    pub(crate) fn table<'a>(&'a self, lent: Option<&'a TableStats>) -> &'a TableStats {
        lent.unwrap_or(&self.own)
    }

    /// The longest VARCHAR prefix in the planned key (0 without a
    /// prefix-coded VARCHAR key column), for the sort's profile.
    pub(crate) fn varchar_prefix(&self) -> u32 {
        let prefixed = self
            .key
            .columns()
            .iter()
            .filter(|c| c.ty == LogicalType::Varchar && c.range.is_none());
        prefixed.map(|c| c.prefix_len as u32).max().unwrap_or(0)
    }

    /// The rank-coded key columns of the planned key and the distinct
    /// strings of the first [`DICT_REPORTED`] of them in `ORDER BY` order,
    /// for the sort's profile.
    pub(crate) fn dictionaries(&self) -> (u32, [u32; DICT_REPORTED]) {
        let columns = self.key.columns().iter();
        let ranked = columns.filter(|c| c.ty == LogicalType::Varchar);
        let mut values = [0; DICT_REPORTED];
        let mut count = 0;
        for range in ranked.filter_map(|c| c.range) {
            let distinct = if range.lo <= range.hi {
                range.hi + 1
            } else {
                0
            };
            if let Some(slot) = values.get_mut(count) {
                *slot = distinct as u32;
            }
            count += 1;
        }
        (count as u32, values)
    }
}

impl SorterCore {
    /// Build one sorted run from input rows `lo..hi` with `plan`'s key
    /// blocks and the ranks in `table`, the statistics it planned from,
    /// every buffer from `pool`. `streamed` says a merge or the
    /// run-file encoder will read the run front to back: it then gets its
    /// code column (only when its merge codes are stored: the sorter's
    /// `ovc` option is on and the key is 8 bytes or wider) and its strings
    /// laid out in run order.
    pub(crate) fn make_run(
        &self,
        pool: SortPool<'_>,
        (plan, table): (&KeyPlan, &TableStats),
        input: &DataChunk,
        (lo, hi): (usize, usize),
        streamed: bool,
    ) -> SortedRun {
        let rows = hi - lo;
        let row_plan = &plan.rows;
        let (layout, width) = (&row_plan.layout, row_plan.layout.width());
        // Each stage's time goes to its own clock (`RUN_STAGES`).
        let mut clock = Instant::now();
        let mut lap = |stage: Counter| {
            let now = Instant::now();
            self.metrics.add(stage, (now - clock).as_nanos() as u64);
            clock = now;
        };
        // DSM → NSM: payload rows (the columns the key does not give
        // back) in input order first. A VARCHAR slot holds its string's
        // offset in its input column: no string moves here.
        let mut staging =
            RowBlock::from_raw_parts(Arc::clone(layout), pool.get_bytes(rows * width), Vec::new());
        staging.append_columns_in_place(input, |slot| row_plan.columns[slot], lo, hi);
        let heaps = Heaps::Columns(input, &row_plan.columns);
        lap(Counter::RunScatterNs);

        let key_blocks = &plan.key_blocks;
        let mut keys = key_blocks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_else(|| KeyBlock::with_layout(plan.key.clone(), &self.order));
        keys.reset();
        keys.append_ranked_range(input, lo, hi, table);
        lap(Counter::RunEncodeNs);

        // Thread-local sort: radix over the key bytes, then the tie
        // comparator inside whatever key-equal ranges a truncated VARCHAR
        // prefix left.
        let mut radix_scratch = pool.get_bytes(rows * keys.stride());
        let algo = keys.sort_with_scratch(&mut radix_scratch, |a, b| {
            let (a, b) = (staging.row(a as usize), staging.row(b as usize));
            row_plan.tie_cmp.compare_in(a, heaps, b, heaps)
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

        // The payload in key order. Its rows' slots still point into the
        // input columns: a lone resident run goes to output from there. A
        // run a merge or the encoder reads takes its strings in run order
        // instead, so that reader copies them front to back rather than
        // with a cache miss per string.
        let mut payload_rows = pool.get_bytes(rows * width);
        reorder_rows(&mut payload_rows, staging.data(), width, keys.order_iter());
        let (staging_data, _) = staging.into_raw_parts();
        pool.put_bytes(staging_data);
        let keyed = row_plan.strings.iter();
        let keyed = keyed.filter(|(_, from)| matches!(from, ColumnSource::Key(_)));
        let marks = if streamed {
            rows.div_ceil(KEYED_STRIDE) * keyed.count()
        } else {
            0
        };
        let mut strings = pool.get_bytes(8 * (row_plan.strings.len() + marks));
        for &(c, _) in &row_plan.strings {
            let total = input.column(c).valid_string_bytes(lo, hi) as u64;
            strings.extend_from_slice(&total.to_le_bytes());
        }
        let (heap, heap_moved) = if streamed && row_plan.varlen().next().is_some() {
            let expected = row_plan.varlen().map(|s| row_plan.columns[s]);
            let expected = expected
                .map(|c| input.column(c).valid_string_bytes(lo, hi))
                .sum();
            let mut heap = pool.get_bytes(expected);
            reorder_heap(&mut payload_rows, layout, heaps, (&mut heap, expected));
            let moved = heap.len();
            (heap, moved)
        } else {
            (Vec::new(), 0)
        };
        if streamed {
            let order = || keys.order_iter().map(|i| lo + i as usize);
            keyed_marks(input, row_plan, order, &mut strings);
        }
        let payload = RowBlock::from_raw_parts(Arc::clone(layout), payload_rows, heap);
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
            rows,
            keys: run_keys,
            key_width,
            ovc: run_ovc,
            payload,
            in_input: !streamed,
            strings,
        }
    }
}

/// Append to `strings` each key-decoded VARCHAR column's bytes before every
/// [`KEYED_STRIDE`]-th row of a run whose rows are input rows `order()`, in
/// run order ([`SortedRun::strings`]), NULLs holding none. Such a column
/// is in no row, so a cut inside the run counts its bytes from here.
fn keyed_marks<I: Iterator<Item = usize>>(
    input: &DataChunk,
    plan: &RowPlan,
    order: impl Fn() -> I,
    strings: &mut Vec<u8>,
) {
    for &(c, from) in &plan.strings {
        let (ColumnSource::Key(_), Some(column)) = (from, input.column(c).as_strings()) else {
            continue;
        };
        let vector = input.column(c);
        let mut before = 0u64;
        for (i, row) in order().enumerate() {
            if i % KEYED_STRIDE == 0 {
                strings.extend_from_slice(&before.to_le_bytes());
            }
            if vector.is_valid(row) {
                before += column.byte_len(row) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SortProfile;
    use crate::resources::SortResources;
    use rowsort_normkey::{KeyRange, Ordinal};
    use rowsort_vector::{OrderByColumn, Value};

    /// `key_stats` of `input` by `order` on one thread, from statistics
    /// taken afresh.
    fn plan_cold(input: &DataChunk, order: &OrderBy, scratch: &mut PlanScratch) -> Vec<KeyStat> {
        let mut stats = Vec::new();
        let table = TableStats::new(input);
        key_stats(input, order, &table, scratch, &mut stats, &|phase| phase(0));
        stats
    }

    fn three_workers(phase: &(dyn Fn(usize) + Sync)) {
        std::thread::scope(|s| {
            for w in 0..3 {
                s.spawn(move || phase(w));
            }
        })
    }

    /// The statistics of a relation sorted by its leading `keys` columns.
    fn stats_of(columns: Vec<Vector>, keys: usize) -> Vec<KeyStat> {
        let chunk = DataChunk::from_columns(columns).unwrap();
        let mut sampler = PlanScratch::default();
        let order = OrderBy::ascending(keys);
        let stats = plan_cold(&chunk, &order, &mut sampler);
        // The sampler carries nothing from one column or sort to the next,
        // and the stats are the same however many workers take them.
        let (mut again, table) = (Vec::new(), TableStats::new(&chunk));
        key_stats(
            &chunk,
            &order,
            &table,
            &mut sampler,
            &mut again,
            &three_workers,
        );
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
        let stats = plan_cold(&chunk, &order, &mut PlanScratch::default());
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
        let stats = plan_cold(&chunk, &order, &mut PlanScratch::default());
        assert_eq!(stats[3], range(1i32.ordinal(), 2i32.ordinal(), false));
        assert_eq!(stats[4], KeyStat::Plain);
    }

    /// A VARCHAR column of `rows` rows, none NULL, each one of `values`
    /// strings at random.
    fn drawn(rows: usize, values: u64) -> Vector {
        let mut rng = rowsort_testkit::Rng::seed_from_u64(values);
        Vector::from_strings((0..rows).map(|_| format!("name_{:05}", rng.below(values))))
    }

    fn ranked(values: u32, nulls: bool, prefix: KeyStat) -> KeyStat {
        let KeyStat::Varchar(prefix) = prefix else {
            panic!("{prefix:?} is no prefix")
        };
        KeyStat::Ranked(RankStat {
            values,
            nulls,
            prefix,
        })
    }

    #[test]
    fn shared_bytes_counts_like_a_byte_loop() {
        let mut rng = rowsort_testkit::Rng::seed_from_u64(0x5ba2ed);
        for _ in 0..2_000 {
            let a: Vec<u8> = (0..rng.below(30)).map(|_| rng.below(3) as u8).collect();
            let mut b = a.clone();
            b.truncate(rng.below(31) as usize);
            if let Some(byte) = b.get_mut(rng.below(31) as usize) {
                *byte ^= 1 << rng.below(8);
            }
            let cap = rng.below(25) as usize;
            let bytewise = a
                .iter()
                .zip(&b)
                .take(cap)
                .take_while(|(x, y)| x == y)
                .count();
            assert_eq!(shared_bytes(&a, &b, cap), bytewise, "{a:?} {b:?} {cap}");
        }
    }

    #[test]
    fn the_sample_counts_distinct_valid_strings() {
        let strings: Vec<Value> = ["b", "a", "b", "", "", "long_string_one", "long_string_one"]
            .into_iter()
            .map(Value::from)
            .chain([Value::Null, Value::Null, Value::from("long_string_two")])
            .collect();
        let column = Vector::from_values(LogicalType::Varchar, &strings).unwrap();
        let strings = column.as_strings().unwrap();
        let sample = PrefixSampler::default().sample(&column, strings, strings.max_len());
        let want = Sample {
            prefix_len: 15,
            rows: 8,
            distinct: 5,
        };
        assert_eq!(sample, want);
        // Long strings in one bucket, repeated past any pair's reach: each
        // is still counted once.
        let names = (0..600).map(|i| format!("a_stem_longer_than_any_prefix_{}", i % 40));
        let column = Vector::from_strings(names);
        let strings = column.as_strings().unwrap();
        let sample = PrefixSampler::default().sample(&column, strings, strings.max_len());
        assert_eq!((sample.rows, sample.distinct), (600, 40));
    }

    #[test]
    fn a_column_of_few_strings_is_ranked_over_the_whole_input() {
        // Five strings and NULLs over 800 rows, a truncated prefix if it
        // were coded by one: the column is exact, and the key goes on to
        // the integer after it.
        let values: Vec<Value> = (0..800)
            .map(|i| match i % 6 {
                5 => Value::Null,
                v => Value::from(format!("a_shared_stem_of_strings_{v}")),
            })
            .collect();
        let names = Vector::from_values(LogicalType::Varchar, &values).unwrap();
        let ints = Vector::from_u32s((0..800).collect());
        let stats = stats_of(vec![names, ints], 2);
        assert_eq!(stats[0], ranked(5, true, stat(26, 26)));
        assert_eq!(
            stats[1],
            KeyStat::Range(KeyRange {
                lo: 0,
                hi: 799,
                nulls: false
            })
        );
        let chunk =
            DataChunk::from_columns(vec![
                Vector::from_values(LogicalType::Varchar, &values).unwrap()
            ])
            .unwrap();
        let mut block = KeyBlock::planned(&chunk, &OrderBy::ascending(1));
        assert_eq!(block.key_width(), 1);
        block.append_chunk(&chunk);
        block.sort(|_, _| panic!("a ranked key cannot tie"));
        let order = block.order();
        // Ranks 0..5 in the order of their strings, NULLs last.
        for pair in order.windows(2) {
            let (a, b) = (&values[pair[0] as usize], &values[pair[1] as usize]);
            let ordered = match (a, b) {
                (Value::Varchar(a), Value::Varchar(b)) => a <= b,
                (a, b) => !a.is_null() || b.is_null(),
            };
            assert!(ordered, "{a:?} before {b:?}");
        }
    }

    #[test]
    fn many_strings_keep_their_prefix_and_build_nothing() {
        // All distinct beyond 12 bytes: the sample shows it, and no
        // dictionary is made.
        let mut scratch = PlanScratch::default();
        let distinct = Vector::from_strings((0..5_000).map(|i| format!("a_long_name_{i:05}")));
        let chunk = DataChunk::from_columns(vec![distinct]).unwrap();
        let stats = plan_cold(&chunk, &OrderBy::ascending(1), &mut scratch);
        assert_eq!(stats, [stat(17, 17)]);
        assert!(scratch.dicts.is_empty());
        // Strings within 12 bytes are not sampled: their dictionary stops
        // past one string per 8 rows.
        let mut ranked = |values| {
            let chunk = DataChunk::from_columns(vec![drawn(8_000, values)]).unwrap();
            let stats = plan_cold(&chunk, &OrderBy::ascending(1), &mut scratch);
            matches!(stats[0], KeyStat::Ranked(_))
        };
        assert!(ranked(1_000));
        assert!(!ranked(1_500));
        // Nor, below 8 rows, is any column ranked.
        let chunk = DataChunk::from_columns(vec![Vector::from_strings(["a"; 7])]).unwrap();
        let stats = plan_cold(&chunk, &OrderBy::ascending(1), &mut scratch);
        assert_eq!(stats, [stat(1, 1)]);
    }

    #[test]
    fn a_dictionary_of_more_than_two_to_the_sixteen_strings_keeps_the_prefix() {
        // Every sampled row holds one string, the others `values − 1` more
        // past the 12-byte prefix: the sample asks for a dictionary, which
        // holds 2¹⁶ strings and not one more.
        let input = |values: usize| {
            let rows = 1 << 17;
            let step = rows / SAMPLE_ROWS;
            let mut others = 0..;
            let names: Vec<String> = (0..rows)
                .map(|i| match i % step {
                    0 => "the_common_name".to_owned(),
                    _ => format!(
                        "the_other_name_{:05}",
                        others.next().unwrap() % (values - 1)
                    ),
                })
                .collect();
            DataChunk::from_columns(vec![
                Vector::from_strings(&names),
                Vector::from_u32s((0..rows as u32).collect()),
            ])
            .unwrap()
        };
        let order = OrderBy::ascending(2);
        let stats = plan_cold(&input(MAX_VALUES), &order, &mut PlanScratch::default());
        // The sample saw one string: 12 bytes of prefix, which truncate.
        assert_eq!(stats[0], ranked(MAX_VALUES as u32, false, stat(20, 12)));
        assert!(matches!(stats[1], KeyStat::Range(_)));
        let stats = plan_cold(&input(MAX_VALUES + 1), &order, &mut PlanScratch::default());
        // The prefix truncates: the key ends there after all, and the
        // integer's range is dropped.
        assert_eq!(stats, [stat(20, 12), KeyStat::Plain]);
    }

    /// A table of 2¹⁷ rows whose columns reach every plan: short strings
    /// with NULLs and 40 values (ranked), long strings that share more
    /// than the prefix cap (truncated), long strings with NULLs and 50
    /// values (sampled, then ranked), a nullable INT (ranged), long strings
    /// whose sample sees one value of 2¹⁶ + 1 (a dictionary begun and
    /// dropped, then truncated), and 2¹⁷ distinct short strings (a
    /// dictionary dropped past 2¹⁴, the strings exact).
    fn every_plan_table() -> DataChunk {
        let rows = 1usize << 17;
        let step = rows / SAMPLE_ROWS;
        let mut rng = rowsort_testkit::Rng::seed_from_u64(0x7AB1E);
        let nullable = |rng: &mut rowsort_testkit::Rng, v: Value| {
            if rng.below(9) == 0 {
                Value::Null
            } else {
                v
            }
        };
        let short: Vec<Value> = (0..rows)
            .map(|_| {
                let v = Value::from(format!("s{}", rng.below(40)));
                nullable(&mut rng, v)
            })
            .collect();
        let long_few: Vec<Value> = (0..rows)
            .map(|_| {
                let v = Value::from(format!("a_long_customer_name_{}", rng.below(50)));
                nullable(&mut rng, v)
            })
            .collect();
        let ints: Vec<Value> = (0..rows)
            .map(|_| {
                let v = Value::Int32(rng.below(1_000) as i32 - 500);
                nullable(&mut rng, v)
            })
            .collect();
        let mut others = 0..;
        let many_long = (0..rows).map(|i| match i % step {
            0 => "the_common_name".to_owned(),
            _ => format!("the_other_name_{:05}", others.next().unwrap() % MAX_VALUES),
        });
        let stem = "a_very_long_shared_stem_of_more_than_thirty_two_bytes";
        DataChunk::from_columns(vec![
            Vector::from_values(LogicalType::Varchar, &short).unwrap(),
            Vector::from_strings((0..rows).map(|i| format!("{stem}_{i:06}"))),
            Vector::from_values(LogicalType::Varchar, &long_few).unwrap(),
            Vector::from_values(LogicalType::Int32, &ints).unwrap(),
            Vector::from_strings(many_long),
            Vector::from_strings((0..rows).map(|i| format!("{:x}", i * 7_919))),
        ])
        .unwrap()
    }

    #[test]
    fn a_warm_tables_plan_equals_a_cold_plan_for_every_order_by() {
        let input = every_plan_table();
        let types = input.types();
        let (asc, desc) = (OrderByColumn::asc, OrderByColumn::desc);
        let nulls_first = |c| OrderByColumn {
            column: c,
            spec: rowsort_vector::SortSpec {
                order: rowsort_vector::SortOrder::Ascending,
                nulls: rowsort_vector::NullOrder::NullsFirst,
            },
        };
        // The truncated column ends the first key before the INT the second
        // needs; the third ranks the sampled column and drops its
        // dictionary of 2¹⁶ + 1 strings; the rest read what those took.
        let mut orders = vec![
            vec![asc(1), asc(3)],
            vec![asc(3), desc(0)],
            vec![desc(2), asc(4), asc(0)],
            vec![asc(0), nulls_first(2)],
            vec![asc(5), nulls_first(3)],
            vec![desc(4), asc(3)],
        ];
        let mut rng = rowsort_testkit::Rng::seed_from_u64(0x000D_E2B1);
        for _ in 0..4 {
            let mut columns: Vec<usize> = (0..6).collect();
            let mut order = Vec::new();
            for _ in 0..1 + rng.below(3) {
                let c = columns.remove(rng.below(columns.len() as u64) as usize);
                order.push(if rng.below(2) == 0 { asc(c) } else { desc(c) });
            }
            orders.push(order);
        }
        let (warm, mut scratch) = (TableStats::new(&input), PlanScratch::default());
        let sorted_by = TableStats::new(&input);
        for (q, keys) in orders.into_iter().enumerate() {
            let order = OrderBy::new(keys);
            let what = format!("query {q}, {order:?}");
            let cold = TableStats::new(&input);
            let mut want = Vec::new();
            let serial: Spread<'_> = &|phase| phase(0);
            let planned = key_stats(
                &input,
                &order,
                &cold,
                &mut PlanScratch::default(),
                &mut want,
                serial,
            );
            assert_eq!(planned.reused, 0, "{what}");
            let mut got = Vec::new();
            let reused = key_stats(
                &input,
                &order,
                &warm,
                &mut scratch,
                &mut got,
                &three_workers,
            );
            assert_eq!(got, want, "{what}: statistics");
            // The fixed queries plan what the comment above says.
            let truncated =
                |c: usize| matches!(want[c], KeyStat::Varchar(v) if v.prefix_len < v.max_len);
            let ranked = |c: usize| matches!(want[c], KeyStat::Ranked(_));
            let shape = match q {
                0 => truncated(1) && want[3] == KeyStat::Plain,
                1 => matches!(want[3], KeyStat::Range(_)) && ranked(0),
                2 => ranked(2) && truncated(4) && want[0] == KeyStat::Plain,
                3 => ranked(0) && ranked(2) && reused.reused == 2,
                4 => {
                    let exact = matches!(want[5], KeyStat::Varchar(v) if v.prefix_len == v.max_len);
                    exact && matches!(want[3], KeyStat::Range(_))
                }
                5 => truncated(4) && want[3] == KeyStat::Plain && reused.reused == 1,
                _ => true,
            };
            assert!(shape, "{what}: planned {want:?}, {reused:?}");
            for (c, stat) in want.iter().enumerate() {
                if matches!(stat, KeyStat::Ranked(_)) {
                    assert!(
                        warm.ranks(c) == cold.ranks(c),
                        "{what}: ranks of column {c}"
                    );
                    assert_eq!(warm.ranks(c).len(), input.len(), "{what}: column {c}");
                }
            }
            // Sorted both ways: the same key, the same merge, the same rows.
            let options = crate::pipeline::SortOptions {
                threads: 2,
                run_rows: input.len() / 2,
                ovc: true,
            };
            let pipeline =
                crate::pipeline::SortPipeline::new(types.clone(), order.clone(), options);
            let expected = pipeline.sort(&input);
            let afresh = pipeline.last_profile();
            let sorted = pipeline.sort_with_stats(&input, Some(&sorted_by));
            let lent = pipeline.last_profile();
            assert_eq!(lent.key_width, afresh.key_width, "{what}: key width");
            let cmps = |p: SortProfile| p.metrics.counter(Counter::MergeCmps);
            assert_eq!(cmps(lent), cmps(afresh), "{what}: merge_cmps");
            assert!(sorted == expected, "{what}: sorted rows");
        }
    }

    #[test]
    fn a_streamed_run_takes_its_strings_in_run_order_and_a_lone_one_leaves_them_in_the_input() {
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
        // The names share more bytes than any planned prefix: the key
        // truncates them, and the row keeps every column.
        let key = strings(&[
            Some("a_stem_that_outgrows_any_planned_prefix_by_far: mike"),
            Some("a_stem_that_outgrows_any_planned_prefix_by_far: alpha"),
            None,
            Some("a_stem_that_outgrows_any_planned_prefix_by_far: zulu"),
            Some("a_stem_that_outgrows_any_planned_prefix_by_far: echo"),
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
        plan.plan(&types, &order, &input, None, &|phase| phase(0));
        let layout = &plan.rows().layout;
        assert_eq!(layout.types(), types, "the row keeps every column");
        let staged = |c: usize| input.column(c).valid_string_bytes(0, 6);
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
            let planned = (&plan, plan.table(None));
            let run = core.make_run(core.pool(), planned, &input, (0, 6), streamed);
            moved[usize::from(streamed)] =
                core.metrics.snapshot().counter(Counter::BytesMoved) - before;
            let block = &run.payload;
            let input_row = |i: usize| match block.value(i, 1) {
                Value::UInt32(r) => r as usize,
                other => panic!("row id {other:?}"),
            };
            let rows: Vec<usize> = (0..block.len()).map(input_row).collect();
            assert_eq!(rows.len(), 6);
            let heaps = if run.in_input {
                Heaps::Columns(&input, &plan.rows().columns)
            } else {
                Heaps::One(block.heap())
            };
            let slot = |i: usize, c: usize| {
                let at = layout.offset(c);
                let word = |at| u32::from_le_bytes(word(block.row(i), at)) as usize;
                (word(at), word(at + 4))
            };
            for (i, &r) in rows.iter().enumerate() {
                for c in [0, 2] {
                    let (off, len) = slot(i, c);
                    let string = &heaps.of(c)[off..off + len];
                    let want = input.column(c).as_strings().unwrap().get_bytes(r);
                    assert_eq!(block.is_null(i, c), !input.column(c).is_valid(r));
                    if !block.is_null(i, c) {
                        assert_eq!(string, want, "row {i}, column {c}");
                    }
                }
            }
            if streamed {
                // Contiguous, in row order, one column after the other; a
                // NULL takes no bytes, and its slot the offset its column
                // has reached: the column's bytes before each row are its
                // slot's offset less the first row's.
                assert_eq!(block.heap(), laid_out(&rows));
                assert_eq!(block.heap().len(), staged_heap);
                let mut before = [0; 2];
                for i in 0..=block.len() {
                    let order = plan.merge_order(plan.table(None), &input);
                    run.strings_before(order, i, &mut before);
                    let want = [0, 2].map(|c| {
                        let column = input.column(c);
                        let named = rows[..i].iter().filter(|&&r| column.is_valid(r));
                        let len = |&r: &usize| column.as_strings().unwrap().byte_len(r) as u64;
                        named.map(len).sum::<u64>()
                    });
                    assert_eq!(before, want, "bytes before row {i}");
                }
                for c in [0, 2] {
                    for i in (0..block.len()).filter(|&i| block.is_null(i, c)) {
                        let column_start = slot(0, c).0;
                        let (off, len) = slot(i, c);
                        assert_eq!(len, 0, "row {i}, column {c}");
                        let previous = (i > 0).then(|| slot(i - 1, c));
                        let before = previous.map_or(column_start, |(o, l)| o + l);
                        assert_eq!(off, before, "row {i}, column {c}");
                    }
                }
            } else {
                // A lone resident run leaves its strings in the input
                // columns: no heap at all.
                assert!(block.heap().is_empty());
                assert_eq!(heaps.of(0), input.column(0).as_strings().unwrap().bytes());
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

    /// The row of `input` sorted by `order`, as a sort plans it: its width
    /// where the row carried every column with a NULL flag each, padded to
    /// 8 bytes; its width; its NULL flags; and the columns the output
    /// decodes from the key.
    fn planned_row(input: &DataChunk, order: OrderBy) -> (usize, u32, u32, u32) {
        let full = RowLayout::new(&input.types()).width();
        let options = crate::pipeline::SortOptions::single_with_run_rows(1 << 17);
        let pipeline = crate::pipeline::SortPipeline::new(input.types(), order, options);
        drop(pipeline.sort(input));
        let profile = pipeline.last_profile();
        let row = (profile.row_width, profile.row_flags);
        (full, row.0, row.1, profile.key_decoded_columns)
    }

    #[test]
    fn the_row_holds_only_what_the_key_does_not_give_back() {
        use rowsort_datagen::tpcds;
        let mut rng = rowsort_testkit::Rng::seed_from_u64(0x0_0ef0_bac4);
        // `ints_mem`: a random u32 key and a u32 payload; the key is the
        // range-coded u32, and only the payload stays — with no NULL, so
        // with no flag: its 4 bytes alone.
        let keys: Vec<u32> = (0..20_000).map(|_| rng.next_u32()).collect();
        let ids = (0..keys.len() as u32).collect();
        let ints = DataChunk::from_columns(vec![Vector::from_u32s(keys), Vector::from_u32s(ids)]);
        let ints = ints.unwrap();
        assert_eq!(planned_row(&ints, OrderBy::ascending(1)), (16, 4, 0, 1));
        // `catalog_spill`: four range-coded INT keys of five columns; the
        // item number left holds no NULL.
        let catalog = tpcds::catalog_sales(20_000, 10.0, 0x000F_1616).data;
        let by = OrderBy::new((1..=4).map(OrderByColumn::asc).collect());
        assert_eq!(planned_row(&catalog, by), (32, 4, 0, 4));
        // `customer` by last name, first name, birth year: two ranked
        // names and a range-coded year leave, and no string stays.
        let customer = tpcds::customer(20_000, 0x00C0_5703).data;
        let by = OrderBy::new([2, 1, 3].map(OrderByColumn::asc).to_vec());
        assert_eq!(planned_row(&customer, by), (40, 16, 2, 3));
        // `strings_mem`'s statement: the ranked last name leaves; the
        // e-mail is truncated, and the birth year lies past it.
        let letters: Vec<char> = ('a'..='z').collect();
        let emails: Vec<Value> = (0..customer.len())
            .map(
                |row| match (customer.column(1).get(row), customer.column(2).get(row)) {
                    (Value::Varchar(first), Value::Varchar(last)) => {
                        let domain = rng.string_from(&letters, 10);
                        Value::from(format!("{first}.{last}@{domain}.org"))
                    }
                    _ => Value::Null,
                },
            )
            .collect();
        let mut columns = customer.columns().to_vec();
        columns.push(Vector::from_values(LogicalType::Varchar, &emails).unwrap());
        let customer_email = DataChunk::from_columns(columns).unwrap();
        let by = OrderBy::new(vec![
            OrderByColumn {
                column: 2,
                spec: rowsort_vector::SortSpec::new(
                    rowsort_vector::SortOrder::Descending,
                    rowsort_vector::NullOrder::NullsFirst,
                ),
            },
            OrderByColumn::asc(6),
            OrderByColumn::desc(3),
        ]);
        // 48 → 40 bytes: six columns, two of them strings, stay.
        assert_eq!(planned_row(&customer_email, by), (48, 40, 5, 1));
    }

    #[test]
    fn a_column_named_twice_decodes_once_from_its_first_place() {
        let types = [
            LogicalType::UInt32,
            LogicalType::Int32,
            LogicalType::Varchar,
        ];
        let order = OrderBy::new(vec![
            OrderByColumn::asc(1),
            OrderByColumn::desc(0),
            OrderByColumn::desc(1),
        ]);
        // Every key column exact: the first two columns decode, from their
        // first places, and the row keeps the VARCHAR alone.
        let plan = RowPlan::new(&types, &order, 3, |c| c == 1);
        assert_eq!(
            plan.from,
            [
                ColumnSource::Key(1),
                ColumnSource::Key(0),
                ColumnSource::Slot(0)
            ]
        );
        assert_eq!((plan.decoded(), plan.columns.as_slice()), (2, &[2][..]));
        // The sort: the same rows as a row of every column gives.
        let values: Vec<Value> = (0..300)
            .map(|i| match i % 7 {
                0 => Value::Null,
                _ => Value::Int32(i % 13 - 6),
            })
            .collect();
        let input = DataChunk::from_columns(vec![
            Vector::from_u32s((0..300).map(|i| (i * 7_919) % 301).collect()),
            Vector::from_values(LogicalType::Int32, &values).unwrap(),
            Vector::from_strings((0..300).map(|i| format!("row {i}"))),
        ])
        .unwrap();
        let options = crate::pipeline::SortOptions::single_with_run_rows(64);
        let pipeline = crate::pipeline::SortPipeline::new(input.types(), order.clone(), options);
        let sorted = pipeline.sort(&input);
        assert_eq!(pipeline.last_profile().key_decoded_columns, 2);
        crate::testutil::assert_sorted_permutation(&sorted, &input, &order, "named twice");
    }
}
