//! NULL tracking via bit masks.

/// A validity mask: one bit per row, set ⇔ the row's value is valid (not NULL).
///
/// The common all-valid case stores no bits at all, so scanning a column with
/// no NULLs costs nothing. The mask lazily materializes 64-bit words on the
/// first `set_invalid` call, mirroring how vectorized engines keep validity
/// out of the hot path until NULLs actually appear.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Validity {
    /// `None` ⇒ every row valid. `Some(words)` ⇒ bit i of word i/64 is row i.
    words: Option<Vec<u64>>,
    len: usize,
}

impl Validity {
    /// An all-valid mask covering `len` rows.
    pub fn new_valid(len: usize) -> Validity {
        Validity { words: None, len }
    }

    /// An all-NULL mask covering `len` rows.
    pub fn new_invalid(len: usize) -> Validity {
        let mut v = Validity::new_valid(len);
        for i in 0..len {
            v.set_invalid(i);
        }
        v
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` iff no row is NULL (fast path: no mask materialized, or all
    /// bits set).
    pub fn all_valid(&self) -> bool {
        match &self.words {
            None => true,
            Some(_) => self.count_invalid() == 0,
        }
    }

    /// Whether row `idx` is valid.
    ///
    /// # Panics
    /// If `idx >= len`.
    pub fn is_valid(&self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "validity index {idx} out of range {}",
            self.len
        );
        match &self.words {
            None => true,
            Some(words) => words[idx / 64] & (1u64 << (idx % 64)) != 0,
        }
    }

    /// Mark row `idx` NULL.
    pub fn set_invalid(&mut self, idx: usize) {
        assert!(
            idx < self.len,
            "validity index {idx} out of range {}",
            self.len
        );
        let words = self.materialize();
        words[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Mark row `idx` valid.
    pub fn set_valid(&mut self, idx: usize) {
        assert!(
            idx < self.len,
            "validity index {idx} out of range {}",
            self.len
        );
        if let Some(words) = &mut self.words {
            words[idx / 64] |= 1u64 << (idx % 64);
        }
        // all-valid representation: nothing to do
    }

    /// Set row `idx` to `valid`.
    pub fn set(&mut self, idx: usize, valid: bool) {
        if valid {
            self.set_valid(idx);
        } else {
            self.set_invalid(idx);
        }
    }

    /// Append one row with the given validity.
    pub fn push(&mut self, valid: bool) {
        let idx = self.len;
        self.len += 1;
        if let Some(words) = &mut self.words {
            if words.len() * 64 < self.len {
                words.push(u64::MAX);
            }
            // New bit defaults to valid (word pushed as MAX); clear if needed.
            if !valid {
                words[idx / 64] &= !(1u64 << (idx % 64));
            }
        } else if !valid {
            self.materialize();
            self.set_invalid(idx);
        }
    }

    /// The mask 64 rows a word — bit `i % 64` of word `i / 64` is row `i`
    /// — or `None` when no row was ever made NULL. Bits at and past
    /// [`Validity::len`] are set. For scans that test a word at a time.
    pub fn words(&self) -> Option<&[u64]> {
        self.words.as_deref()
    }

    /// Number of NULL rows.
    pub fn count_invalid(&self) -> usize {
        match &self.words {
            None => 0,
            Some(words) => {
                let mut nulls = 0usize;
                for (w, word) in words.iter().enumerate() {
                    let bits_in_word = if (w + 1) * 64 <= self.len {
                        64
                    } else {
                        self.len - w * 64
                    };
                    let mask = if bits_in_word == 64 {
                        u64::MAX
                    } else {
                        (1u64 << bits_in_word) - 1
                    };
                    nulls += (!word & mask).count_ones() as usize;
                }
                nulls
            }
        }
    }

    /// Number of valid (non-NULL) rows.
    pub fn count_valid(&self) -> usize {
        self.len - self.count_invalid()
    }

    /// Copy out the sub-mask covering rows `start..end`.
    pub fn slice(&self, start: usize, end: usize) -> Validity {
        let mut out = Validity::new_valid(0);
        out.extend_from_range(self, start, end);
        out
    }

    /// Append rows `start..end` of `other`. An all-valid range costs no
    /// bit work at all (and leaves a lazy mask lazy); otherwise bits move
    /// a word at a time, not one `push` per row.
    ///
    /// # Panics
    /// If `start..end` is not a valid row range of `other`.
    pub fn extend_from_range(&mut self, other: &Validity, start: usize, end: usize) {
        assert!(
            start <= end && end <= other.len,
            "slice {start}..{end} of {}",
            other.len
        );
        let n = end - start;
        let dst = self.len;
        self.len += n;
        let src = other
            .words
            .as_deref()
            .filter(|src| !range_all_valid(src, start, n));
        if src.is_none() && self.words.is_none() {
            return;
        }
        // Bits at and past the old length are set (the mask's invariant),
        // and so is every new word: the appended rows default to valid.
        let words = self.words.get_or_insert_with(Vec::new);
        words.resize(self.len.div_ceil(64).max(1), u64::MAX);
        let Some(src) = src else { return };
        let mut done = 0;
        while done < n {
            let (word, bit) = ((dst + done) / 64, (dst + done) % 64);
            let take = (64 - bit).min(n - done);
            let mask = low_mask(take) << bit;
            words[word] = (words[word] & !mask) | (read_bits(src, start + done, take) << bit);
            done += take;
        }
    }

    fn materialize(&mut self) -> &mut Vec<u64> {
        if self.words.is_none() {
            self.words = Some(vec![u64::MAX; self.len.div_ceil(64).max(1)]);
        }
        self.words.as_mut().unwrap()
    }
}

/// A word with its low `count` bits set (`count` ≤ 64).
fn low_mask(count: usize) -> u64 {
    if count >= 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Bits `pos..pos + count` of `words` (`count` ≤ 64) in the low bits of the
/// result, the rest clear.
fn read_bits(words: &[u64], pos: usize, count: usize) -> u64 {
    let (word, bit) = (pos / 64, pos % 64);
    let mut bits = words[word] >> bit;
    if bit + count > 64 {
        bits |= words[word + 1] << (64 - bit);
    }
    bits & low_mask(count)
}

/// Whether all `n` bits from `start` on are set.
fn range_all_valid(words: &[u64], start: usize, n: usize) -> bool {
    (0..n).step_by(64).all(|done| {
        let take = (n - done).min(64);
        read_bits(words, start + done, take) == low_mask(take)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_valid_is_lazy() {
        let v = Validity::new_valid(1000);
        assert!(v.all_valid());
        assert_eq!(v.count_invalid(), 0);
        assert_eq!(v.count_valid(), 1000);
        assert!(v.is_valid(0));
        assert!(v.is_valid(999));
    }

    #[test]
    fn set_and_query() {
        let mut v = Validity::new_valid(130);
        v.set_invalid(0);
        v.set_invalid(64);
        v.set_invalid(129);
        assert!(!v.is_valid(0));
        assert!(v.is_valid(1));
        assert!(!v.is_valid(64));
        assert!(!v.is_valid(129));
        assert_eq!(v.count_invalid(), 3);
        assert!(!v.all_valid());
        v.set_valid(64);
        assert!(v.is_valid(64));
        assert_eq!(v.count_invalid(), 2);
    }

    #[test]
    fn set_valid_on_lazy_mask_is_noop() {
        let mut v = Validity::new_valid(10);
        v.set_valid(3);
        assert!(v.all_valid());
    }

    #[test]
    fn all_invalid() {
        let v = Validity::new_invalid(70);
        assert_eq!(v.count_invalid(), 70);
        assert_eq!(v.count_valid(), 0);
        for i in 0..70 {
            assert!(!v.is_valid(i));
        }
    }

    #[test]
    fn push_grows_mask() {
        let mut v = Validity::new_valid(0);
        for i in 0..200 {
            v.push(i % 3 != 0);
        }
        assert_eq!(v.len(), 200);
        for i in 0..200 {
            assert_eq!(v.is_valid(i), i % 3 != 0, "row {i}");
        }
        // ceil(200/3) = 67 NULLs
        assert_eq!(v.count_invalid(), 67);
    }

    #[test]
    fn push_all_valid_stays_lazy() {
        let mut v = Validity::new_valid(0);
        for _ in 0..100 {
            v.push(true);
        }
        assert!(v.all_valid());
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn count_handles_partial_last_word() {
        // 65 rows: 2 words, the second with only 1 live bit.
        let mut v = Validity::new_valid(65);
        v.set_invalid(64);
        assert_eq!(v.count_invalid(), 1);
        v.set_valid(64);
        assert_eq!(v.count_invalid(), 0);
        assert!(v.all_valid(), "all bits restored counts as all_valid");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let v = Validity::new_valid(5);
        let _ = v.is_valid(5);
    }

    #[test]
    fn set_converts_between_states() {
        let mut v = Validity::new_valid(8);
        v.set(2, false);
        assert!(!v.is_valid(2));
        v.set(2, true);
        assert!(v.is_valid(2));
    }

    /// A mask with every third and every 67th row NULL, built bit by bit.
    fn patterned(len: usize) -> Validity {
        let mut v = Validity::new_valid(0);
        for i in 0..len {
            v.push(i % 3 != 0 && i % 67 != 0);
        }
        v
    }

    #[test]
    fn slice_and_extend_match_per_bit_pushes_off_word_boundaries() {
        let src = patterned(300);
        for (start, end) in [
            (0, 300),
            (1, 64),
            (63, 65),
            (5, 197),
            (64, 128),
            (70, 70),
            (129, 300),
        ] {
            let mut expected = Validity::new_valid(0);
            for i in start..end {
                expected.push(src.is_valid(i));
            }
            assert_eq!(src.slice(start, end), expected, "slice {start}..{end}");
            // Appended at destinations that are themselves unaligned.
            for prefix in [0, 1, 63, 64, 100] {
                let mut got = patterned(prefix);
                let mut expected = patterned(prefix);
                got.extend_from_range(&src, start, end);
                for i in start..end {
                    expected.push(src.is_valid(i));
                }
                assert_eq!(got, expected, "extend {prefix} + {start}..{end}");
            }
        }
    }

    #[test]
    fn all_valid_ranges_stay_lazy() {
        let mut src = Validity::new_valid(200);
        src.set_invalid(150);
        // The range holds no NULL, so neither the slice nor a lazy
        // destination materializes any words.
        assert_eq!(src.slice(3, 140), Validity::new_valid(137));
        let mut dst = Validity::new_valid(10);
        dst.extend_from_range(&src, 0, 150);
        assert_eq!(dst, Validity::new_valid(160));
        // A materialized destination grows by all-valid words.
        let mut dst = patterned(70);
        dst.extend_from_range(&Validity::new_valid(100), 20, 100);
        assert_eq!(dst.len(), 150);
        assert_eq!(dst.count_invalid(), patterned(70).count_invalid());
        assert!((70..150).all(|i| dst.is_valid(i)));
    }

    #[test]
    #[should_panic(expected = "slice 2..9 of 8")]
    fn extend_out_of_range_panics() {
        let mut dst = Validity::new_valid(0);
        dst.extend_from_range(&Validity::new_valid(8), 2, 9);
    }

    #[test]
    fn empty_mask() {
        let v = Validity::new_valid(0);
        assert!(v.is_empty());
        assert!(v.all_valid());
        assert_eq!(v.count_valid(), 0);
    }
}
