//! Normalized-key blocks: the sortable representation of ORDER BY keys.

use crate::run::{key_stats, PrefixSampler};
use rowsort_algos::pdqsort::pdqsort_rows;
use rowsort_algos::radix::radix_sort_rows_with_scratch;
pub(crate) use rowsort_algos::rows::word;
use rowsort_algos::rows::{copy_row, RowsMut};
use rowsort_algos::NoProbe;
use rowsort_normkey::{
    encode_column_range_into, KeyColumn, KeyRange, NormKeyLayout, DEFAULT_MAX_PREFIX, MAX_PREFIX,
};
use rowsort_vector::{DataChunk, LogicalType, OrderBy};
use std::cmp::Ordering;

/// What the planner knows about one VARCHAR `ORDER BY` column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VarcharStat {
    /// Longest string in the column, in bytes (a true upper bound over
    /// the rows the key will encode).
    pub max_len: usize,
    /// Bytes of each string the key encodes; the column is exact when
    /// this reaches `max_len`.
    pub prefix_len: usize,
}

/// What the planner knows about one `ORDER BY` column, from the rows the
/// key will encode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KeyStat {
    /// Nothing: the column's plain layout (a VARCHAR column's key is then
    /// sized for empty strings — only columns the key never reaches go
    /// unread).
    #[default]
    Plain,
    /// A VARCHAR column's longest string and planned prefix.
    Varchar(VarcharStat),
    /// An integer-like column's range: the key range-codes it when that
    /// is narrower ([`KeyColumn::ranged`]).
    Range(KeyRange),
}

/// The longest VARCHAR prefix the sorters' planner sizes from the data
/// ([`KeyBlock::planned`]). Past it the key stops paying: on rowbench's
/// `strings_mem` a run sorts fastest at 20–24 bytes (24 separate every
/// pair of e-mails) and 32 costs a tenth more than that, and a column
/// whose strings share more than this is the comparator's either way.
pub const PREFIX_CAP: usize = 32;

// The continuation marker is one byte: a longer prefix would encode
// "fits" and "truncated" alike.
const _: () = assert!(PREFIX_CAP <= MAX_PREFIX);

/// A block of fixed-width normalized keys, each suffixed with a `u32`
/// row id linking back to the payload row.
///
/// ```
/// use rowsort_core::keys::KeyBlock;
/// use rowsort_vector::{DataChunk, OrderBy, Vector};
///
/// let chunk = DataChunk::from_columns(vec![Vector::from_u32s(vec![30, 10, 20])]).unwrap();
/// let mut keys = KeyBlock::new(&chunk.types(), &OrderBy::ascending(1), |_| 0);
/// keys.append_chunk(&chunk);
/// keys.sort(|_, _| unreachable!("fixed-width keys cannot tie"));
/// assert_eq!(keys.order(), vec![1, 2, 0]); // the payload permutation
/// ```
///
/// Layout of one entry: `[ encoded key bytes … ][ row id: u32 LE ]`.
/// The row id is *not* part of the comparison; it rides along so that
/// sorting the keys yields the payload permutation (paper Figure 11:
/// "Key columns are converted to normalized keys … then we reorder the
/// payload").
pub struct KeyBlock {
    layout: NormKeyLayout,
    data: Vec<u8>,
    len: usize,
    key_columns: Vec<usize>,
    last_sort: KeySortStats,
}

/// Width of the row-id suffix.
const ROW_ID_WIDTH: usize = 4;

/// What a [`KeyBlock::sort`] needed — reported back so the pipeline's
/// metrics can count the runs the key bytes ordered alone against the
/// runs that also went to the comparator. Every sort radix-sorts the key
/// bytes first; the variants say what was left after that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySortAlgo {
    /// No key columns: nothing to order by.
    Noop,
    /// The comparison-free radix sort over the normalized key bytes
    /// decided everything: no two entries with equal keys could differ.
    Radix {
        /// Scatter passes performed (single-bucket passes are skipped).
        passes: u64,
    },
    /// The radix sort left at least one key-equal range of a layout whose
    /// equal keys may hide unequal tuples; each such range was sorted by
    /// pdqsort with the caller's full-tuple comparator
    /// ([`KeyBlock::last_sort`] has the counts).
    Pdq,
}

/// What the most recent [`KeyBlock::sort`] did, beyond its
/// [`KeySortAlgo`]: the radix sort's scatter passes whichever variant was
/// reported, and how much was handed to the comparator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeySortStats {
    /// Scatter passes of the radix sort over the key bytes.
    pub radix_passes: u64,
    /// Key-equal ranges (two entries or more) sorted by the comparator.
    pub tie_ranges: u64,
    /// Entries inside those ranges.
    pub tie_rows: u64,
}

impl KeyBlock {
    /// Plan a key block for sorting a relation with column `types` by
    /// `order`. `varchar_max_len(col)` supplies the string-length
    /// statistic used to size VARCHAR prefixes (DuckDB picks
    /// `min(stat, 12)`).
    pub fn new(
        types: &[LogicalType],
        order: &OrderBy,
        varchar_max_len: impl Fn(usize) -> usize,
    ) -> KeyBlock {
        KeyBlock::with_stats(types, order, |c| {
            KeyStat::Varchar(VarcharStat {
                max_len: varchar_max_len(c),
                prefix_len: DEFAULT_MAX_PREFIX,
            })
        })
    }

    /// [`KeyBlock::new`] with each key column shaped by what the caller
    /// knows of it, `stat(col)`: a VARCHAR column's longest string and the
    /// prefix to encode of it (clamped to what the marker byte can
    /// describe), an integer column's range. Both sorters plan through
    /// this, from [`key_stats`](crate::run::key_stats).
    pub fn with_stats(
        types: &[LogicalType],
        order: &OrderBy,
        stat: impl Fn(usize) -> KeyStat,
    ) -> KeyBlock {
        let cols: Vec<KeyColumn> = order
            .keys
            .iter()
            .map(|k| match (types[k.column], stat(k.column)) {
                (LogicalType::Varchar, KeyStat::Varchar(s)) => {
                    KeyColumn::varchar_with_prefix(k.spec, s.max_len, s.prefix_len)
                }
                (LogicalType::Varchar, _) => KeyColumn::varchar_with_prefix(k.spec, 0, 0),
                (ty, KeyStat::Range(range)) => KeyColumn::ranged(ty, k.spec, range),
                (ty, _) => KeyColumn::fixed(ty, k.spec),
            })
            .collect();
        KeyBlock {
            layout: NormKeyLayout::new(cols),
            data: Vec::new(),
            len: 0,
            key_columns: order.keys.iter().map(|k| k.column).collect(),
            last_sort: KeySortStats::default(),
        }
    }

    /// The key block both sorters plan for sorting `input` by `order`:
    /// [`KeyBlock::with_stats`] over the statistics they take of `input`'s
    /// key columns (VARCHAR: longest string, prefix sized from a collision
    /// sample; integers: the range; DESIGN.md §6). A function of the input
    /// alone.
    pub fn planned(input: &DataChunk, order: &OrderBy) -> KeyBlock {
        let mut stats = Vec::new();
        key_stats(
            input,
            order,
            &mut PrefixSampler::default(),
            &mut stats,
            &|phase| phase(0),
        );
        KeyBlock::with_stats(&input.types(), order, |c| stats[c])
    }

    /// The planned normalized-key shape.
    pub fn layout(&self) -> &NormKeyLayout {
        &self.layout
    }

    /// Total bytes per entry (key + row id).
    pub fn stride(&self) -> usize {
        self.layout.width() + ROW_ID_WIDTH
    }

    /// Bytes per entry that participate in comparisons.
    pub fn key_width(&self) -> usize {
        self.layout.width()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the block holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether equal key bytes may hide unequal tuples (truncated VARCHAR
    /// prefixes), requiring tie resolution against full values.
    pub fn tie_possible(&self) -> bool {
        self.layout.tie_possible()
    }

    /// The key bytes of entry `i` (no row id).
    pub fn key(&self, i: usize) -> &[u8] {
        let s = self.stride();
        &self.data[i * s..i * s + self.key_width()]
    }

    /// The row id of entry `i`.
    pub fn row_id(&self, i: usize) -> u32 {
        let s = self.stride();
        let off = i * s + self.key_width();
        u32::from_le_bytes(word::<4>(&self.data, off))
    }

    /// Remove all entries, keeping the layout and the buffer capacity, so
    /// a pooled block can be refilled without reallocating.
    pub fn reset(&mut self) {
        self.data.clear();
        self.len = 0;
    }

    /// Encode the key columns of `chunk` and append them; row ids continue
    /// from the current length.
    pub fn append_chunk(&mut self, chunk: &DataChunk) {
        self.append_chunk_range(chunk, 0, chunk.len());
    }

    /// Encode rows `lo..hi` of `chunk`'s key columns and append them; row
    /// ids continue from the current length (they are block-local, not
    /// chunk-local). Lets the pipeline encode a morsel without slicing the
    /// chunk into a temporary copy.
    pub fn append_chunk_range(&mut self, chunk: &DataChunk, lo: usize, hi: usize) {
        let stride = self.stride();
        let base = self.len;
        let n = hi - lo;
        self.data.resize((base + n) * stride, 0);
        // The layout may hold fewer columns than the ORDER BY: it stops
        // at the first truncatable VARCHAR (later columns' bytes could
        // wrongly decide a comparison before that column's truncation
        // tie is detected); dropped columns are ordered by the caller's
        // full-tuple tie comparator instead.
        for (k, col) in self.layout.columns().iter().enumerate() {
            encode_column_range_into(
                chunk.column(self.key_columns[k]),
                col,
                &mut self.data,
                stride,
                self.layout.offset(k),
                base,
                lo,
                hi,
            );
        }
        let kw = self.key_width();
        let entries = self.data[base * stride..].chunks_exact_mut(stride);
        for (entry, rid) in entries.zip(base..) {
            entry[kw..kw + ROW_ID_WIDTH].copy_from_slice(&(rid as u32).to_le_bytes());
        }
        self.len += n;
    }

    /// Sort the block: radix sort over the key bytes, whatever the layout;
    /// then, when equal keys may hide unequal tuples (a truncated VARCHAR
    /// prefix), one scan finds the key-equal ranges and only those are
    /// sorted by comparison. The sort is stable: entries the key bytes and
    /// `resolve` both call equal stay in row-id (input) order.
    ///
    /// `resolve(a, b)` compares the *full tuples* of two row ids; it is
    /// consulted only for entries whose key bytes are equal, and only when
    /// ties are possible.
    pub fn sort(&mut self, resolve: impl Fn(u32, u32) -> Ordering) -> KeySortAlgo {
        let mut scratch = Vec::new();
        self.sort_with_scratch(&mut scratch, resolve)
    }

    /// [`KeyBlock::sort`] with a caller-pooled radix scratch buffer: with
    /// sufficient recycled capacity the sort allocates nothing.
    pub fn sort_with_scratch(
        &mut self,
        scratch: &mut Vec<u8>,
        resolve: impl Fn(u32, u32) -> Ordering,
    ) -> KeySortAlgo {
        let stride = self.stride();
        let kw = self.key_width();
        self.last_sort = KeySortStats::default();
        if kw == 0 {
            return KeySortAlgo::Noop; // no key columns: nothing to order by
        }
        let passes =
            radix_sort_rows_with_scratch(&mut self.data, stride, 0, kw, scratch, &NoProbe) as u64;
        self.last_sort.radix_passes = passes;
        if self.tie_possible() {
            self.sort_tied_ranges(resolve);
        }
        if self.last_sort.tie_ranges > 0 {
            KeySortAlgo::Pdq
        } else {
            KeySortAlgo::Radix { passes }
        }
    }

    /// After the radix sort: find every maximal range of adjacent entries
    /// with equal key bytes and sort it by `resolve`, row id last. Where
    /// keys differ this costs one `memcmp` per entry; the comparator (a
    /// random read of two rows and their strings) runs inside ranges only.
    fn sort_tied_ranges(&mut self, resolve: impl Fn(u32, u32) -> Ordering) {
        let (stride, kw) = (self.stride(), self.key_width());
        let mut is_less = |a: &[u8], b: &[u8]| {
            let ra = u32::from_le_bytes(word::<4>(a, kw));
            let rb = u32::from_le_bytes(word::<4>(b, kw));
            resolve(ra, rb).then(ra.cmp(&rb)) == Ordering::Less
        };
        let mut lo = 0;
        while lo < self.len {
            let mut hi = lo + 1;
            while hi < self.len && self.key(hi) == self.key(lo) {
                hi += 1;
            }
            if hi - lo > 1 {
                let range = &mut self.data[lo * stride..hi * stride];
                pdqsort_rows(&mut RowsMut::new(range, stride), &mut is_less, &NoProbe);
                self.last_sort.tie_ranges += 1;
                self.last_sort.tie_rows += (hi - lo) as u64;
            }
            lo = hi;
        }
    }

    /// Counts of the most recent [`KeyBlock::sort`] (zeroes before the
    /// first).
    pub fn last_sort(&self) -> KeySortStats {
        self.last_sort
    }

    /// The permutation the sort produced: row ids in current entry order.
    pub fn order(&self) -> Vec<u32> {
        (0..self.len).map(|i| self.row_id(i)).collect()
    }

    /// The permutation as an iterator — [`KeyBlock::order`] without the
    /// allocation, for consumers that stream the row ids.
    pub fn order_iter(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        (0..self.len).map(|i| self.row_id(i))
    }

    /// Strip the row-id suffixes into a caller-pooled buffer (cleared
    /// first): a compact `key_width`-stride byte array in current entry
    /// order, which is what merge phases read once the payload has been
    /// reordered. The buffer is sized once and each key moved by
    /// [`copy_row`], not appended through a `memcpy` call per entry.
    pub fn keys_only_into(&self, out: &mut Vec<u8>) {
        let (kw, stride) = (self.key_width(), self.stride());
        out.clear();
        out.resize(self.len * kw, 0);
        if kw == 0 {
            return;
        }
        let entries = self.data.chunks_exact(stride);
        for (key, entry) in out.chunks_exact_mut(kw).zip(entries) {
            copy_row(key, &entry[..kw]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowsort_vector::{OrderByColumn, SortSpec, Value, Vector};

    fn u32_chunk(cols: Vec<Vec<u32>>) -> DataChunk {
        DataChunk::from_columns(cols.into_iter().map(Vector::from_u32s).collect()).unwrap()
    }

    #[test]
    fn fixed_keys_sort_with_radix() {
        let chunk = u32_chunk(vec![vec![5, 1, 4, 1, 3], vec![0, 9, 0, 2, 0]]);
        let order = OrderBy::ascending(2);
        let mut kb = KeyBlock::new(&chunk.types(), &order, |_| 0);
        assert!(!kb.tie_possible());
        kb.append_chunk(&chunk);
        kb.sort(|_, _| unreachable!("no ties possible"));
        assert_eq!(kb.order(), vec![3, 1, 4, 2, 0]);
    }

    #[test]
    fn row_ids_track_append_order() {
        let c1 = u32_chunk(vec![vec![9, 8]]);
        let c2 = u32_chunk(vec![vec![7]]);
        let order = OrderBy::ascending(1);
        let mut kb = KeyBlock::new(&c1.types(), &order, |_| 0);
        kb.append_chunk(&c1);
        kb.append_chunk(&c2);
        assert_eq!(kb.len(), 3);
        assert_eq!(
            (0..3).map(|i| kb.row_id(i)).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        kb.sort(|_, _| unreachable!());
        assert_eq!(kb.order(), vec![2, 1, 0]);
    }

    #[test]
    fn desc_and_nulls() {
        let mut chunk = DataChunk::new(&[LogicalType::Int32]);
        for v in [Value::Int32(1), Value::Null, Value::Int32(3)] {
            chunk.push_row(&[v]).unwrap();
        }
        let order = OrderBy::new(vec![OrderByColumn {
            column: 0,
            spec: SortSpec::DESC, // NULLS LAST
        }]);
        let mut kb = KeyBlock::new(&chunk.types(), &order, |_| 0);
        kb.append_chunk(&chunk);
        kb.sort(|_, _| unreachable!());
        assert_eq!(kb.order(), vec![2, 0, 1], "3, 1, NULL");
    }

    #[test]
    fn varchar_ties_resolved_against_full_values() {
        let strings = ["prefix_AAAA_z", "prefix_AAAA_a", "short"];
        let chunk = DataChunk::from_columns(vec![Vector::from_strings(strings)]).unwrap();
        let order = OrderBy::ascending(1);
        // Prefix of 12 truncates both long strings to "prefix_AAAA_".
        let mut kb = KeyBlock::new(&chunk.types(), &order, |_| 13);
        assert!(kb.tie_possible());
        kb.append_chunk(&chunk);
        let algo = kb.sort(|a, b| strings[a as usize].cmp(strings[b as usize]));
        assert_eq!(kb.order(), vec![1, 0, 2]);
        // One key-equal range of two entries went to the comparator.
        assert_eq!(algo, KeySortAlgo::Pdq);
        let sorted = kb.last_sort();
        assert_eq!((sorted.tie_ranges, sorted.tie_rows), (1, 2));
    }

    #[test]
    fn comparator_runs_inside_key_equal_ranges_only() {
        // `ORDER BY n, s` with a truncatable s: the integer and the first
        // 12 bytes decide most pairs; `resolve` may only ever be asked
        // about entries whose keys are byte-equal.
        let n: Vec<u32> = (0..60).map(|i| i % 3).collect();
        let strings: Vec<String> = (0..60)
            .map(|i| match i % 4 {
                0 => format!("shared_prefix_{}", i % 5),
                _ => format!("distinct{i:02}_and_long"),
            })
            .collect();
        let chunk = DataChunk::from_columns(vec![
            Vector::from_u32s(n.clone()),
            Vector::from_strings(strings.iter().map(String::as_str)),
        ])
        .unwrap();
        let order = OrderBy::ascending(2);
        let mut kb = KeyBlock::new(&chunk.types(), &order, |_| 20);
        kb.append_chunk(&chunk);
        let keys: Vec<Vec<u8>> = (0..kb.len()).map(|i| kb.key(i).to_vec()).collect();
        let algo = kb.sort(|a, b| {
            let (a, b) = (a as usize, b as usize);
            assert_eq!(keys[a], keys[b], "resolve asked about unequal keys");
            strings[a].cmp(&strings[b])
        });
        assert_eq!(algo, KeySortAlgo::Pdq);
        let want = {
            let mut ids: Vec<u32> = (0..60).collect();
            ids.sort_by_key(|&i| (n[i as usize], &strings[i as usize]));
            ids
        };
        assert_eq!(kb.order(), want, "stable: full ties stay in input order");
        // Every "shared_prefix_k" string is one of 15 rows (i % 4 == 0)
        // split over three integers; the distinct ones never tie.
        let sorted = kb.last_sort();
        assert_eq!(sorted.tie_rows, 15);
        assert_eq!(sorted.tie_ranges, 3);
        assert!(sorted.radix_passes > 0);
    }

    #[test]
    fn truncatable_layout_without_ties_reports_radix() {
        // Ties are possible by the layout, but no two keys are equal: the
        // radix sort decided everything and says so.
        let strings = ["prefix_AAAA_z_long", "qrefix_AAAA_a_long", "short"];
        let chunk = DataChunk::from_columns(vec![Vector::from_strings(strings)]).unwrap();
        let mut kb = KeyBlock::new(&chunk.types(), &OrderBy::ascending(1), |_| 18);
        assert!(kb.tie_possible());
        kb.append_chunk(&chunk);
        let algo = kb.sort(|_, _| unreachable!("no two keys are equal"));
        assert!(matches!(algo, KeySortAlgo::Radix { .. }), "{algo:?}");
        assert_eq!(kb.order(), vec![0, 1, 2]);
        assert_eq!(kb.last_sort().tie_rows, 0);
    }

    #[test]
    fn chosen_prefix_decides_what_ties() {
        // The same strings under the 12-byte rule and under a prefix that
        // covers them: the second layout is exact and radix-sorts.
        let strings = ["prefix_AAAA_z", "prefix_AAAA_a", "short"];
        let chunk = DataChunk::from_columns(vec![Vector::from_strings(strings)]).unwrap();
        let stat = |prefix_len| {
            move |_| {
                KeyStat::Varchar(VarcharStat {
                    max_len: 13,
                    prefix_len,
                })
            }
        };
        let order = OrderBy::ascending(1);
        let twelve = KeyBlock::with_stats(&chunk.types(), &order, stat(12));
        assert!(twelve.tie_possible());
        assert_eq!(twelve.key_width(), 1 + 12 + 1);
        let mut exact = KeyBlock::with_stats(&chunk.types(), &order, stat(13));
        assert!(!exact.tie_possible());
        assert_eq!(exact.key_width(), 1 + 13 + 1);
        exact.append_chunk(&chunk);
        exact.sort(|_, _| unreachable!("an exact key cannot tie"));
        assert_eq!(exact.order(), vec![1, 0, 2]);
    }

    #[test]
    fn keys_only_strips_row_ids() {
        let chunk = u32_chunk(vec![vec![2, 1]]);
        let order = OrderBy::ascending(1);
        let mut kb = KeyBlock::new(&chunk.types(), &order, |_| 0);
        kb.append_chunk(&chunk);
        kb.sort(|_, _| unreachable!());
        let mut keys = Vec::new();
        kb.keys_only_into(&mut keys);
        assert_eq!(keys.len(), 2 * kb.key_width());
        assert!(keys[..kb.key_width()] < keys[kb.key_width()..]);
    }

    #[test]
    fn key_on_subset_of_columns() {
        // 3-column relation, sort by column 2 then 0.
        let chunk = u32_chunk(vec![vec![1, 2, 3], vec![9, 9, 9], vec![5, 5, 4]]);
        let order = OrderBy::new(vec![OrderByColumn::asc(2), OrderByColumn::asc(0)]);
        let mut kb = KeyBlock::new(&chunk.types(), &order, |_| 0);
        kb.append_chunk(&chunk);
        kb.sort(|_, _| unreachable!());
        assert_eq!(kb.order(), vec![2, 0, 1]);
    }

    #[test]
    fn empty_block() {
        let order = OrderBy::ascending(1);
        let mut kb = KeyBlock::new(&[LogicalType::UInt32], &order, |_| 0);
        kb.sort(|_, _| unreachable!());
        assert!(kb.is_empty());
        assert_eq!(kb.order(), Vec::<u32>::new());
    }
}
