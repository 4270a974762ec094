//! Compact string column storage.

/// A string column stored as a contiguous byte buffer plus offsets.
///
/// This is the usual columnar VARCHAR layout (Arrow-style): string `i` is
/// `bytes[offsets[i] .. offsets[i + 1]]`. Compared to `Vec<String>` it does
/// one large allocation instead of one per string, and reading neighbouring
/// strings is sequential in memory — which matters for the paper's
/// cache-behaviour arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StringVec {
    offsets: Vec<u32>,
    bytes: Vec<u8>,
}

impl StringVec {
    /// An empty string column.
    pub fn new() -> StringVec {
        StringVec {
            offsets: vec![0],
            bytes: Vec::new(),
        }
    }

    /// An empty column with room for `rows` strings of ~`avg_len` bytes.
    pub fn with_capacity(rows: usize, avg_len: usize) -> StringVec {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        StringVec {
            offsets,
            bytes: Vec::with_capacity(rows * avg_len),
        }
    }

    /// Number of strings stored.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` iff the column holds no strings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a string.
    ///
    /// # Panics
    /// If total byte length would exceed `u32::MAX` (columns are chunked long
    /// before that in practice).
    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        let end = u32::try_from(self.bytes.len()).expect("string column exceeds 4 GiB");
        self.offsets.push(end);
    }

    /// Assemble a column from an offsets vector and the byte buffer it
    /// indexes: one validation pass per column, where a `push` per string
    /// would validate (and grow) once per value. The parts are taken as
    /// they are if they describe valid strings — `offsets` starts at 0,
    /// never decreases and ends at `bytes.len()`, `bytes` is UTF-8 as a
    /// whole, and every offset falls on a character boundary. Bytes that
    /// came from outside the program may not: then each string — `bytes`
    /// between two neighbouring offsets, empty where they frame nothing —
    /// gets its own replacement characters.
    pub fn from_parts_lossy(offsets: Vec<u32>, bytes: Vec<u8>) -> StringVec {
        if well_formed(&offsets, &bytes) {
            return StringVec { offsets, bytes };
        }
        let string = |w: &[u32]| bytes.get(w[0] as usize..w[1] as usize).unwrap_or_default();
        let lossy = |w: &[u32]| String::from_utf8_lossy(string(w));
        offsets.windows(2).map(lossy).collect()
    }

    /// Assemble a column from parts whose every range was already checked
    /// the way [`StringVec::from_parts_lossy`] checks the whole: `offsets`
    /// starts at 0, never decreases and ends at `bytes.len()`, and the
    /// bytes between any two of them are UTF-8. A column built from pieces
    /// checked on the threads that filled them takes this, instead of a
    /// second pass over every byte. Parts that are not so are the caller's
    /// bug: [`StringVec::get`] panics on a string that is not UTF-8.
    pub fn from_checked_parts(offsets: Vec<u32>, bytes: Vec<u8>) -> StringVec {
        debug_assert!(well_formed(&offsets, &bytes), "parts not checked");
        StringVec { offsets, bytes }
    }

    /// Append strings `start..end` of `other`: one byte copy plus rebased
    /// offsets, with no per-string work.
    ///
    /// # Panics
    /// If `start..end` is not a valid range of `other`, or total byte length
    /// would exceed `u32::MAX` (see [`StringVec::push`]).
    pub fn extend_from_range(&mut self, other: &StringVec, start: usize, end: usize) {
        assert!(
            start <= end && end <= other.len(),
            "string range {start}..{end} of {}",
            other.len()
        );
        let (lo, hi) = (other.offsets[start], other.offsets[end]);
        let new_end = u32::try_from(self.bytes.len() + (hi - lo) as usize)
            .expect("string column exceeds 4 GiB");
        // Where the copied bytes start; no rebased offset exceeds `new_end`.
        let base = new_end - (hi - lo);
        self.bytes
            .extend_from_slice(&other.bytes[lo as usize..hi as usize]);
        self.offsets.extend(
            other.offsets[start + 1..=end]
                .iter()
                .map(|&o| o - lo + base),
        );
    }

    /// The string at `idx`.
    ///
    /// # Panics
    /// If `idx >= len`.
    pub fn get(&self, idx: usize) -> &str {
        let start = self.offsets[idx] as usize;
        let end = self.offsets[idx + 1] as usize;
        // SAFETY-free: contents were pushed from &str, so always valid UTF-8.
        std::str::from_utf8(&self.bytes[start..end]).expect("StringVec holds valid UTF-8")
    }

    /// The raw bytes of the string at `idx` (no UTF-8 revalidation).
    pub fn get_bytes(&self, idx: usize) -> &[u8] {
        let start = self.offsets[idx] as usize;
        let end = self.offsets[idx + 1] as usize;
        &self.bytes[start..end]
    }

    /// Byte length of the string at `idx`.
    pub fn byte_len(&self, idx: usize) -> usize {
        (self.offsets[idx + 1] - self.offsets[idx]) as usize
    }

    /// Iterate over all strings in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The bytes of every string, end to end: string `i` is
    /// `bytes()[o[i]..o[i + 1]]` for the column's offsets `o`.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total payload bytes stored.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Payload bytes of the strings `lo..hi`: one subtraction, no scan.
    pub fn range_bytes(&self, lo: usize, hi: usize) -> usize {
        (self.offsets[hi] - self.offsets[lo]) as usize
    }

    /// The strings `lo..hi` as their offsets and bytes: `hi - lo + 1`
    /// offsets, each still relative to the whole column, and the bytes
    /// from the first offset to the last. String `lo + i` is
    /// `bytes[offsets[i] - offsets[0]..offsets[i + 1] - offsets[0]]`. For
    /// a pass that copies a range's bytes at once and reads each string's
    /// place from the offsets.
    ///
    /// # Panics
    /// If `lo..hi` is not a valid range of the column.
    pub fn range_parts(&self, lo: usize, hi: usize) -> (&[u32], &[u8]) {
        let offsets = &self.offsets[lo..=hi];
        let (start, end) = (self.offsets[lo], self.offsets[hi]);
        (offsets, &self.bytes[start as usize..end as usize])
    }

    /// Maximum string byte length in the column (0 if empty). Used to pick
    /// normalized-key prefix lengths from statistics, as DuckDB does.
    pub fn max_len(&self) -> usize {
        (0..self.len()).map(|i| self.byte_len(i)).max().unwrap_or(0)
    }
}

/// Whether `offsets` frames `bytes` as strings
/// ([`StringVec::from_parts_lossy`]).
fn well_formed(offsets: &[u32], bytes: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return false;
    };
    offsets.first() == Some(&0)
        && offsets.last().map(|&end| end as usize) == Some(bytes.len())
        && offsets.windows(2).all(|w| w[0] <= w[1])
        && offsets.iter().all(|&o| text.is_char_boundary(o as usize))
}

impl<S: AsRef<str>> FromIterator<S> for StringVec {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> StringVec {
        let mut v = StringVec::new();
        for s in iter {
            v.push(s.as_ref());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut v = StringVec::new();
        v.push("GERMANY");
        v.push("");
        v.push("NETHERLANDS");
        assert_eq!(v.len(), 3);
        assert_eq!(v.get(0), "GERMANY");
        assert_eq!(v.get(1), "");
        assert_eq!(v.get(2), "NETHERLANDS");
        assert_eq!(v.byte_len(2), 11);
        assert_eq!(v.total_bytes(), 7 + 11);
        assert_eq!(v.range_bytes(1, 3), 11);
        assert_eq!(v.range_bytes(2, 2), 0);
    }

    #[test]
    fn empty_column() {
        let v = StringVec::new();
        assert!(v.is_empty());
        assert_eq!(v.max_len(), 0);
        assert_eq!(v.iter().count(), 0);
    }

    #[test]
    fn from_iterator_and_iter_round_trip() {
        let names = ["alice", "bob", "carol"];
        let v: StringVec = names.iter().collect();
        let back: Vec<&str> = v.iter().collect();
        assert_eq!(back, names);
    }

    #[test]
    fn get_bytes_matches_get() {
        let v: StringVec = ["héllo", "wörld"].iter().collect();
        assert_eq!(v.get_bytes(0), "héllo".as_bytes());
        assert_eq!(v.get(1), "wörld");
        assert_eq!(v.byte_len(0), "héllo".len());
    }

    #[test]
    fn max_len() {
        let v: StringVec = ["ab", "abcd", "a"].iter().collect();
        assert_eq!(v.max_len(), 4);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut v = StringVec::with_capacity(10, 8);
        v.push("x");
        assert_eq!(v.get(0), "x");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn extend_from_range_rebases_offsets() {
        let src: StringVec = ["ab", "", "héllo", "z"].iter().collect();
        let mut dst: StringVec = ["x"].iter().collect();
        dst.extend_from_range(&src, 1, 4);
        dst.extend_from_range(&src, 2, 2);
        assert_eq!(dst.iter().collect::<Vec<_>>(), ["x", "", "héllo", "z"]);
        assert_eq!(dst.total_bytes(), 1 + "héllo".len() + 1);
    }

    #[test]
    fn range_parts_frame_a_sliced_range() {
        let v: StringVec = ["ab", "", "héllo", "z", "end"].iter().collect();
        let (offsets, bytes) = v.range_parts(1, 4);
        assert_eq!(offsets, [2, 2, 8, 9]);
        assert_eq!(bytes, "hélloz".as_bytes());
        assert_eq!(bytes.len(), v.range_bytes(1, 4));
        let first = offsets[0];
        for (i, w) in offsets.windows(2).enumerate() {
            let (s, e) = ((w[0] - first) as usize, (w[1] - first) as usize);
            assert_eq!(&bytes[s..e], v.get_bytes(1 + i), "string {}", 1 + i);
        }
        // An empty range still names where it sits.
        assert_eq!(v.range_parts(3, 3), (&[8u32][..], &b""[..]));
        assert_eq!(StringVec::new().range_parts(0, 0), (&[0u32][..], &b""[..]));
    }

    #[test]
    fn only_well_framed_utf8_is_taken_as_it_is() {
        let bytes = "aé€".as_bytes(); // 1 + 2 + 3 bytes
        assert!(well_formed(&[0, 1, 3, 3, 6], bytes));
        assert!(well_formed(&[0], &[]));
        // An offset inside a character, a short or long frame, a
        // decreasing pair, a missing leading 0, invalid bytes.
        assert!(!well_formed(&[0, 2, 6], bytes));
        assert!(!well_formed(&[0, 1, 3], bytes));
        assert!(!well_formed(&[0, 7], bytes));
        assert!(!well_formed(&[0, 3, 1, 6], bytes));
        assert!(!well_formed(&[1, 6], bytes));
        assert!(!well_formed(&[], &[]));
        assert!(!well_formed(&[0, 1], &[0xFF]));
    }

    #[test]
    fn from_parts_lossy_replaces_string_by_string() {
        let valid = StringVec::from_parts_lossy(vec![0, 1, 3, 3], "aé".as_bytes().to_vec());
        assert_eq!(valid.iter().collect::<Vec<_>>(), ["a", "é", ""]);
        assert_eq!(
            StringVec::from_parts_lossy(vec![0], Vec::new()),
            StringVec::new()
        );
        // A frame reaching past the bytes holds nothing.
        let long = StringVec::from_parts_lossy(vec![0, 1, 7], b"ab".to_vec());
        assert_eq!(long.iter().collect::<Vec<_>>(), ["a", ""]);
        // "é" cut between two strings: UTF-8 as a whole, not string by string.
        let split = StringVec::from_parts_lossy(vec![0, 2, 2, 4], b"x\xC3\xA9y".to_vec());
        assert_eq!(
            split.iter().collect::<Vec<_>>(),
            ["x\u{FFFD}", "", "\u{FFFD}y"]
        );
        let bad = StringVec::from_parts_lossy(vec![0, 1, 2], vec![0xFF, b'k']);
        assert_eq!(bad.iter().collect::<Vec<_>>(), ["\u{FFFD}", "k"]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_get_panics() {
        let v = StringVec::new();
        let _ = v.get(0);
    }
}
