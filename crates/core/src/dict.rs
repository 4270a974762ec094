//! Order-preserving dictionaries of VARCHAR key columns (DESIGN.md §6,
//! "VARCHAR keys coded by rank"):
//! a key column whose strings repeat is coded by each row's rank among the
//! column's distinct strings in bytewise order, in the fewest bytes that
//! hold every rank ([`KeyColumn::ranked`](rowsort_normkey::KeyColumn::ranked)).
//! The planner takes one dictionary per column, over the whole input, so
//! every run and both sorters code a string alike; a table's statistics
//! keep it for every later sort of the table (`run::TableStats`).

use crate::keys::word;
use crate::sorter::recycle_vec;
use rowsort_vector::{StringVec, Vector};

/// Most distinct strings a dictionary holds: a row's rank is a `u16`. The
/// pass that finds one more stops, and the column keeps its prefix.
pub(crate) const MAX_VALUES: usize = 1 << 16;

/// Longest string the build packs into one `u128`: its bytes from the
/// top, zero-padded, and its length in the lowest byte. That orders as
/// the strings do bytewise: where two strings first differ in their padded
/// bytes, the padded one is a prefix of the other whose next byte is above
/// the padding's zero; where they do not, the shorter is the prefix and
/// the length decides.
const PACKED_LEN: usize = 15;

/// A key column's ranks and the working memory that found them, kept by
/// the sorter so a warm sort's build allocates nothing. The planner moves
/// the ranks out into the statistics it plans from.
#[derive(Default)]
pub(crate) struct Dictionary {
    /// Each row's rank among the column's distinct strings, in bytewise
    /// order; 0 for a NULL row, which the key codes from its validity.
    pub(crate) ranks: Vec<u16>,
    /// A row holding each rank's string, by rank: how a sort's output
    /// decodes the column from its key.
    pub(crate) rows: Vec<u32>,
    /// Open-addressed table over the distinct strings: `1 +` a string's
    /// id, 0 for an empty slot.
    slots: Vec<u32>,
    /// The distinct strings of a column of short strings, packed, by id.
    packed: Vec<u128>,
    /// The distinct strings of any other column, by id (empty between
    /// builds: only the allocation is kept, [`recycle_vec`]).
    long: Vec<&'static [u8]>,
    /// Ids in the order of their strings.
    order: Vec<u16>,
    /// Each id's rank.
    rank_of: Vec<u16>,
    /// The first row of each id's string.
    first: Vec<u32>,
}

/// What one [`Dictionary::build`] runs over.
struct Pass<'a> {
    rows: usize,
    /// The column's validity words, `None` when no row is NULL.
    valid: Option<&'a [u64]>,
    /// Distinct strings the table is first sized for.
    expected: usize,
    /// Distinct strings past which the build stops.
    most: usize,
}

/// What a built dictionary holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ranked {
    /// Distinct strings among the valid rows (0 when every row is NULL).
    pub(crate) values: u32,
    /// Whether some row is NULL.
    pub(crate) nulls: bool,
}

impl Dictionary {
    /// Rank every row of `column`, whose strings are `strings` and at most
    /// `max_len` bytes long, room made for `expected` distinct ones: one
    /// hashed pass gives each row its string's first-seen id, the distinct
    /// strings are sorted bytewise, and each row's id becomes its rank.
    /// `None` — and `ranks` unspecified — when the column holds more than
    /// `most` distinct strings (at most [`MAX_VALUES`]): the pass stops at
    /// the first string past them.
    pub(crate) fn build(
        &mut self,
        column: &Vector,
        strings: &StringVec,
        max_len: usize,
        expected: usize,
        most: usize,
    ) -> Option<Ranked> {
        let pass = Pass {
            rows: strings.len(),
            valid: column.validity().words(),
            expected: expected.min(MAX_VALUES),
            most: most.min(MAX_VALUES),
        };
        let heap = Heap::new(strings);
        if max_len <= PACKED_LEN {
            let mut keys = std::mem::take(&mut self.packed);
            let ranked = self.rank(&mut keys, pass, |row| heap.packed(row), hash_packed);
            self.packed = keys;
            ranked
        } else {
            let mut keys = recycle_vec(std::mem::take(&mut self.long));
            let ranked = self.rank(&mut keys, pass, |row| heap.string(row), hash_bytes);
            self.long = recycle_vec(keys);
            ranked
        }
    }

    /// [`Dictionary::build`]'s `pass`, row `row`'s string as the key
    /// `key(row)`, hashed by `hash` and ordered as the strings are; `keys`
    /// gathers the distinct ones by id.
    fn rank<K: Copy + Ord>(
        &mut self,
        keys: &mut Vec<K>,
        pass: Pass<'_>,
        key: impl Fn(usize) -> K,
        hash: impl Fn(K) -> u64,
    ) -> Option<Ranked> {
        let Pass {
            rows: n,
            valid,
            expected,
            most,
        } = pass;
        keys.clear();
        keys.reserve(expected);
        // At least four slots per string, so few probes go past their slot:
        // eight per string expected, and doubled when the strings found
        // fill more than a quarter.
        let mut bits = (8 * expected).next_power_of_two().max(64).trailing_zeros();
        Self::place(&mut self.slots, keys, bits, &hash);
        self.ranks.clear();
        self.ranks.resize(n, 0);
        self.first.clear();
        let mut nulls = false;
        let (mut mask, mut shift) = ((1 << bits) - 1, u64::BITS - bits);
        'rows: for (row, rank) in self.ranks.iter_mut().enumerate() {
            if valid.is_some_and(|words| (words[row / 64] >> (row % 64)) & 1 == 0) {
                nulls = true;
                continue;
            }
            let k = key(row);
            let mut slot = (hash(k) >> shift) as usize;
            while let Some(&e) = self.slots.get(slot).filter(|&&e| e != 0) {
                if keys[e as usize - 1] == k {
                    *rank = (e - 1) as u16;
                    continue 'rows;
                }
                slot = (slot + 1) & mask;
            }
            // A string not seen before.
            if keys.len() == most {
                return None;
            }
            keys.push(k);
            self.first.push(row as u32);
            *rank = (keys.len() - 1) as u16;
            if 4 * keys.len() > mask + 1 {
                bits += 1;
                (mask, shift) = ((1 << bits) - 1, u64::BITS - bits);
                Self::place(&mut self.slots, keys, bits, &hash);
            } else if let Some(e) = self.slots.get_mut(slot) {
                *e = keys.len() as u32;
            }
        }
        let values = keys.len();
        self.order.clear();
        self.order.extend((0..values).map(|id| id as u16));
        self.order.sort_unstable_by_key(|&id| keys[usize::from(id)]);
        self.rank_of.clear();
        self.rank_of.resize(values, 0);
        self.rows.clear();
        for (rank, &id) in self.order.iter().enumerate() {
            self.rank_of[usize::from(id)] = rank as u16;
            self.rows.push(self.first[usize::from(id)]);
        }
        // Through a slice of its own: the compiler then knows the table is
        // not the ranks it rewrites, and the pass runs 5× faster.
        let rank_of = &self.rank_of[..];
        for r in &mut self.ranks {
            *r = rank_of.get(usize::from(*r)).copied().unwrap_or(0);
        }
        Some(Ranked {
            values: values as u32,
            nulls,
        })
    }

    /// Size the table `slots` at `2^bits` and enter `keys` into it.
    fn place<K: Copy>(slots: &mut Vec<u32>, keys: &[K], bits: u32, hash: impl Fn(K) -> u64) {
        slots.clear();
        slots.resize(1 << bits, 0);
        let mask = slots.len() - 1;
        for (id, &k) in keys.iter().enumerate() {
            let mut slot = (hash(k) >> (u64::BITS - bits)) as usize;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id as u32 + 1;
        }
    }
}

/// A VARCHAR column's strings as offsets into one byte array, read without
/// a `memcpy` call per string.
pub(crate) struct Heap<'a> {
    offsets: &'a [u32],
    /// The first offset, where `bytes` starts.
    base: u32,
    bytes: &'a [u8],
}

impl<'a> Heap<'a> {
    pub(crate) fn new(strings: &'a StringVec) -> Heap<'a> {
        let (offsets, bytes) = strings.range_parts(0, strings.len());
        let base = offsets.first().copied().unwrap_or(0);
        Heap {
            offsets,
            base,
            bytes,
        }
    }

    /// Where string `row` lies in `bytes`.
    fn span(&self, row: usize) -> (usize, usize) {
        let at = |r: usize| self.offsets.get(r).map_or(0, |&o| (o - self.base) as usize);
        (at(row), at(row + 1))
    }

    /// String `row`.
    pub(crate) fn string(&self, row: usize) -> &'a [u8] {
        let (start, end) = self.span(row);
        self.bytes.get(start..end).unwrap_or_default()
    }

    /// String `row` of at most [`PACKED_LEN`] bytes, packed into one
    /// `u128` as that constant says.
    fn packed(&self, row: usize) -> u128 {
        let (start, end) = self.span(row);
        self.head_at(start, end, PACKED_LEN) | (end - start) as u128
    }

    /// Bytes of string `row`.
    pub(crate) fn len(&self, row: usize) -> usize {
        let (start, end) = self.span(row);
        end - start
    }

    /// The first `min(len, keep)` bytes of string `row`, `keep` at most
    /// 16, from the top of a `u128` and zero after them — so two heads
    /// compare as the prefixes do — read with one 16-byte load where the
    /// heap holds 16 bytes from the string's start.
    pub(crate) fn head(&self, row: usize, keep: usize) -> u128 {
        let (start, end) = self.span(row);
        self.head_at(start, end, keep)
    }

    /// [`Heap::head`] of the string at `start..end`.
    fn head_at(&self, start: usize, end: usize, keep: usize) -> u128 {
        let n = (end - start).min(keep);
        let window = match self.bytes.get(start..start + 16) {
            Some(window) => word::<16>(window, 0),
            None => {
                let mut head = [0u8; 16];
                let tail = self.bytes.get(start..start + n).unwrap_or_default();
                if let Some(to) = head.get_mut(..tail.len()) {
                    to.copy_from_slice(tail);
                }
                head
            }
        };
        let kept = u128::MAX.checked_shl(8 * (16 - n as u32)).unwrap_or(0);
        u128::from_be_bytes(window) & kept
    }
}

/// Multiplier of the hashes: 2⁶⁴ over the golden ratio, odd.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A packed string's hash; its high bits pick the slot.
fn hash_packed(k: u128) -> u64 {
    let (hi, lo) = ((k >> 64) as u64, k as u64);
    (hi.wrapping_mul(MIX) ^ lo).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// A string's hash, 8 bytes at a time; its high bits pick the slot.
pub(crate) fn hash_bytes(s: &[u8]) -> u64 {
    let mut h = s.len() as u64;
    for chunk in s.chunks(8) {
        let mut word = [0u8; 8];
        if let Some(head) = word.get_mut(..chunk.len()) {
            head.copy_from_slice(chunk);
        }
        h = (h ^ u64::from_le_bytes(word))
            .wrapping_mul(MIX)
            .rotate_left(29);
    }
    h.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowsort_vector::{LogicalType, Value};

    fn column(values: &[Option<&[u8]>]) -> Vector {
        let values: Vec<Value> = values
            .iter()
            .map(|v| {
                v.map_or(Value::Null, |s| {
                    Value::from(String::from_utf8(s.to_vec()).unwrap())
                })
            })
            .collect();
        Vector::from_values(LogicalType::Varchar, &values).unwrap()
    }

    /// The ranks of `values` (NULL rows' as `None`), and what the build
    /// reports; `None` past [`MAX_VALUES`].
    fn ranks(
        dict: &mut Dictionary,
        values: &[Option<&[u8]>],
    ) -> Option<(Vec<Option<u16>>, Ranked)> {
        let column = column(values);
        let strings = column.as_strings().unwrap();
        let ranked = dict.build(&column, strings, strings.max_len(), 0, MAX_VALUES)?;
        // Each rank names a row of its string, and only rank `r`'s.
        assert_eq!(dict.rows.len(), ranked.values as usize);
        for (row, v) in values.iter().enumerate() {
            if let Some(v) = v {
                let named = dict.rows[usize::from(dict.ranks[row])] as usize;
                assert_eq!(strings.get_bytes(named), *v);
            }
        }
        let ranks = values
            .iter()
            .zip(&dict.ranks)
            .map(|(v, &r)| v.map(|_| r))
            .collect();
        Some((ranks, ranked))
    }

    #[test]
    fn ranks_follow_bytewise_order_across_prefixes_nul_and_the_empty_string() {
        let a: &[u8] = b"a";
        let rows: [Option<&[u8]>; 9] = [
            Some(b"a\0"),
            Some(b"ab"),
            None,
            Some(a),
            Some(b""),
            Some(b"a\x01"),
            Some(b"b"),
            Some(a),
            Some(b""),
        ];
        // "" < "a" < "a\0" < "a\x01" < "ab" < "b"; NULL is no value.
        let want = [2, 4, 9, 1, 0, 3, 5, 1, 0].map(|r| (r < 9).then_some(r));
        for long in [false, true] {
            let mut dict = Dictionary::default();
            // The same strings under a 16-byte stem take the byte path.
            let stem = |s: &[u8]| [&b"0123456789abcdef"[..], s].concat();
            let owned: Vec<Option<Vec<u8>>> = rows
                .iter()
                .map(|r| r.map(|s| if long { stem(s) } else { s.to_vec() }))
                .collect();
            let values: Vec<Option<&[u8]>> = owned.iter().map(Option::as_deref).collect();
            let (got, ranked) = ranks(&mut dict, &values).unwrap();
            assert_eq!(got, want, "long={long}");
            let six = Ranked {
                values: 6,
                nulls: true,
            };
            assert_eq!(ranked, six);
        }
    }

    #[test]
    fn one_value_no_value_and_all_null() {
        let mut dict = Dictionary::default();
        let (got, ranked) = ranks(&mut dict, &[Some(b"x"), Some(b"x")]).unwrap();
        assert_eq!(
            (got, ranked.values, ranked.nulls),
            (vec![Some(0); 2], 1, false)
        );
        let (got, ranked) = ranks(&mut dict, &[None, None]).unwrap();
        assert_eq!((got, ranked.values, ranked.nulls), (vec![None; 2], 0, true));
        let (_, ranked) = ranks(&mut dict, &[]).unwrap();
        assert_eq!((ranked.values, ranked.nulls), (0, false));
        // The empty string is a value, not a NULL.
        let (got, ranked) = ranks(&mut dict, &[Some(b""), None]).unwrap();
        assert_eq!(
            (got, ranked.values, ranked.nulls),
            (vec![Some(0), None], 1, true)
        );
    }

    #[test]
    fn a_dictionary_holds_two_to_the_sixteen_values_and_not_one_more() {
        let mut dict = Dictionary::default();
        let strings: Vec<String> = (0..=MAX_VALUES).map(|i| format!("{i:06}")).collect();
        let mut values: Vec<Option<&[u8]>> = strings.iter().map(|s| Some(s.as_bytes())).collect();
        // Reversed, and twice over: the ranks still count up from the
        // least string.
        values.reverse();
        let all = values.clone();
        values.remove(0);
        values.extend_from_within(..);
        let (got, ranked) = ranks(&mut dict, &values).unwrap();
        assert_eq!(ranked.values as usize, MAX_VALUES);
        assert_eq!(got[0], Some(u16::MAX));
        assert_eq!(got[MAX_VALUES - 1], Some(0));
        assert_eq!(got[MAX_VALUES..], got[..MAX_VALUES]);
        assert_eq!(ranks(&mut dict, &all), None);
    }
}
