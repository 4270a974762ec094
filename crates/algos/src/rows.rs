//! A mutable view over a buffer of fixed-width byte rows, and the one
//! kernel that copies such a row.

use crate::probe::Probe;

/// `N` bytes of `s` from `at` as a fixed-size array. The callers' length
/// guards make the slice exact, so this compiles to a plain load; it
/// stands in for `try_into().unwrap()`, so the copy and compare kernels
/// carry no panic call.
#[inline]
pub fn word<const N: usize>(s: &[u8], at: usize) -> [u8; N] {
    let mut w = [0u8; N];
    w.copy_from_slice(&s[at..at + N]);
    w
}

/// Copy one row: `dst.copy_from_slice(src)` for equal-length slices, with
/// two overlapping fixed-width moves instead of a `memcpy` call when the
/// row holds 4 to 64 bytes. Run generation moves every row this way —
/// radix scatter, key strip, payload reorder, the strings of a run laid
/// out in run order — and so does the merge's sink: rows there are 5 to
/// 48 bytes (`strings_mem`'s key entries are 41, its payload rows 48),
/// where the call and its length dispatch cost more than the copy. Below
/// 4 bytes and above 64 it is `copy_from_slice`.
///
/// Always inlined: its callers copy rows of one width in a loop, where the
/// length dispatch inlined beside the loop is settled by the branch
/// predictor, and an outlined copy costs a call per row. (With the
/// 33–64-byte case added, plain `#[inline]` left the LSD scatter calling
/// it, and `ints_mem` spent about 5 % more CPU per query.)
///
/// ```
/// let src = *b"0123456789";
/// let mut dst = [0u8; 10];
/// rowsort_algos::rows::copy_row(&mut dst, &src);
/// assert_eq!(dst, src);
/// ```
#[inline(always)]
pub fn copy_row(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = src.len();
    if (16..=32).contains(&n) {
        let (a, b) = (word::<16>(src, 0), word::<16>(src, n - 16));
        dst[..16].copy_from_slice(&a);
        dst[n - 16..].copy_from_slice(&b);
    } else if (8..16).contains(&n) {
        let (a, b) = (word::<8>(src, 0), word::<8>(src, n - 8));
        dst[..8].copy_from_slice(&a);
        dst[n - 8..].copy_from_slice(&b);
    } else if (4..8).contains(&n) {
        let (a, b) = (word::<4>(src, 0), word::<4>(src, n - 4));
        dst[..4].copy_from_slice(&a);
        dst[n - 4..].copy_from_slice(&b);
    } else if (33..=64).contains(&n) {
        let (a, b) = (word::<32>(src, 0), word::<32>(src, n - 32));
        dst[..32].copy_from_slice(&a);
        dst[n - 32..].copy_from_slice(&b);
    } else {
        dst.copy_from_slice(src);
    }
}

/// A buffer of `len` rows, each exactly `width` bytes, that sorting
/// algorithms can permute in place.
///
/// This is the runtime-width analogue of `&mut [T]`: an interpreted engine
/// cannot generate a per-query struct type, so its sort operates on rows
/// whose width is only known at run time, moving them with `memcpy` — the
/// situation the paper's §VI techniques are designed for.
#[derive(Debug)]
pub struct RowsMut<'a> {
    data: &'a mut [u8],
    width: usize,
    len: usize,
}

impl<'a> RowsMut<'a> {
    /// Wrap a buffer. `data.len()` must be a multiple of `width`.
    pub fn new(data: &'a mut [u8], width: usize) -> RowsMut<'a> {
        assert!(width > 0, "row width must be positive");
        assert_eq!(
            data.len() % width,
            0,
            "buffer length {} not a multiple of row width {width}",
            data.len()
        );
        let len = data.len() / width;
        RowsMut { data, width, len }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Borrow row `i`.
    ///
    /// Bounds are checked in debug builds only: this accessor sits on the
    /// innermost comparator path of every row sort, where the per-call
    /// slice-bounds checks measurably widen the gap to a monomorphized
    /// typed sort (the comparison the paper's Figure 8 makes).
    #[inline]
    #[expect(unsafe_code, reason = "unchecked row slice on the comparator path")]
    pub fn row(&self, i: usize) -> &[u8] {
        debug_assert!(i < self.len, "row {i} out of bounds ({})", self.len);
        // SAFETY: `width` is fixed at construction and `new`/`sub`/
        // `split_at_mut` all guarantee `data.len() == len * width`, so
        // `i < len` implies `(i + 1) * width <= data.len()`: offsetting
        // `data` by `i * width` stays inside `data`. `i < len` is asserted
        // in debug builds; every in-crate caller iterates within `0..len`.
        let start = unsafe { self.data.as_ptr().add(i * self.width) };
        // SAFETY: `start` is `data` offset by `i * width`, and
        // `(i + 1) * width <= data.len()` (above), so the `width` bytes from
        // `start` lie inside `data`, borrowed for as long as `self`.
        unsafe { std::slice::from_raw_parts(start, self.width) }
    }

    /// Mutably borrow row `i`.
    #[inline]
    #[expect(unsafe_code, reason = "unchecked row slice on the comparator path")]
    pub fn row_mut(&mut self, i: usize) -> &mut [u8] {
        debug_assert!(i < self.len, "row {i} out of bounds ({})", self.len);
        // SAFETY: same bounds argument as `row`: `data.len() == len * width`
        // by construction and `i < len`, so offsetting `data` by
        // `i * width` stays inside `data`.
        let start = unsafe { self.data.as_mut_ptr().add(i * self.width) };
        // SAFETY: the `width` bytes from `start` lie inside `data` (as in
        // `row`); the `&mut self` receiver guarantees the borrow is
        // exclusive.
        unsafe { std::slice::from_raw_parts_mut(start, self.width) }
    }

    /// The underlying buffer.
    pub fn as_bytes(&self) -> &[u8] {
        self.data
    }

    /// Swap rows `i` and `j` (one `memcpy`-style exchange of `width` bytes),
    /// reported to `probe` as a load and a store of each row.
    #[inline]
    #[expect(unsafe_code, reason = "in-place row exchange without bounds checks")]
    pub fn swap<P: Probe>(&mut self, i: usize, j: usize, probe: &P) {
        debug_assert!(i < self.len && j < self.len);
        if i == j {
            return;
        }
        for k in [i, j] {
            self.probed_move(k, k + 1, probe);
        }
        let base = self.data.as_mut_ptr();
        // SAFETY: `base` starts `data`; `i < len` (debug-asserted) and
        // `data.len() == len * width` fixed at construction, so offsetting
        // it by `i * width` stays inside `data`.
        let a = unsafe { base.add(i * self.width) };
        // SAFETY: as for `a`: `j < len`, so offsetting `base` by
        // `j * width` stays inside `data`.
        let b = unsafe { base.add(j * self.width) };
        // SAFETY: `a` and `b` each start `width` in-bounds bytes of `data`
        // (above). `i != j` (equal indices returned above) and rows are
        // `width`-aligned slots, so the two regions cannot overlap.
        unsafe { std::ptr::swap_nonoverlapping(a, b, self.width) };
    }

    /// Rotate the non-empty range of rows `from..to` one slot right: row
    /// `to - 1` lands in slot `from` and the rows it passed move up one —
    /// an insertion step, in place and without a temporary row. A range
    /// of more than one row is reported to `probe` as loaded and stored.
    pub fn rotate_right<P: Probe>(&mut self, from: usize, to: usize, probe: &P) {
        debug_assert!(from < to && to <= self.len);
        if to - from > 1 {
            self.probed_move(from, to, probe);
        }
        let w = self.width;
        self.data[from * w..to * w].rotate_right(w);
    }

    /// Report rows `from..to` to `probe` as loaded and stored.
    fn probed_move<P: Probe>(&self, from: usize, to: usize, probe: &P) {
        let w = self.width;
        probe.read(self.data, from * w, (to - from) * w);
        probe.write(self.data, from * w, (to - from) * w);
    }

    /// Re-borrow a sub-range of rows as a new `RowsMut`.
    pub fn sub(&mut self, start: usize, end: usize) -> RowsMut<'_> {
        let w = self.width;
        RowsMut {
            data: &mut self.data[start * w..end * w],
            width: w,
            len: end - start,
        }
    }

    /// Split into two disjoint row views at row `mid`.
    pub fn split_at_mut(&mut self, mid: usize) -> (RowsMut<'_>, RowsMut<'_>) {
        let w = self.width;
        let (a, b) = self.data.split_at_mut(mid * w);
        (
            RowsMut {
                data: a,
                width: w,
                len: mid,
            },
            RowsMut {
                data: b,
                width: w,
                len: self.len - mid,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoProbe;

    #[test]
    fn copy_row_equals_copy_from_slice_at_every_length_and_offset() {
        // Distinct bytes everywhere, so a word taken from the wrong place
        // or stored to the wrong place shows; every length the kernel
        // splits on, at source and destination offsets that leave no load
        // or store aligned.
        let src: Vec<u8> = (0..88u8).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
        for n in 0..=72 {
            for (from, to) in [(0, 0), (1, 3), (3, 1), (7, 5), (5, 13)] {
                let mut want = vec![0xEEu8; 88];
                let mut got = want.clone();
                want[to..to + n].copy_from_slice(&src[from..from + n]);
                copy_row(&mut got[to..to + n], &src[from..from + n]);
                assert_eq!(got, want, "{n} bytes from offset {from} to {to}");
            }
        }
    }

    #[test]
    fn wrap_and_index() {
        let mut data = vec![1u8, 2, 3, 4, 5, 6];
        let rows = RowsMut::new(&mut data, 2);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.width(), 2);
        assert_eq!(rows.row(1), &[3, 4]);
    }

    #[test]
    fn swap_rows() {
        let mut data = vec![1u8, 2, 3, 4];
        let mut rows = RowsMut::new(&mut data, 2);
        rows.swap(0, 1, &NoProbe);
        assert_eq!(data, vec![3, 4, 1, 2]);
    }

    #[test]
    fn swap_self_is_noop() {
        let mut data = vec![1u8, 2];
        let mut rows = RowsMut::new(&mut data, 2);
        rows.swap(0, 0, &NoProbe);
        assert_eq!(data, vec![1, 2]);
    }

    #[test]
    fn sub_view() {
        let mut data = vec![0u8, 1, 2, 3, 4, 5];
        let mut rows = RowsMut::new(&mut data, 1);
        let mut mid = rows.sub(2, 5);
        assert_eq!(mid.len(), 3);
        mid.swap(0, 2, &NoProbe);
        assert_eq!(data, vec![0, 1, 4, 3, 2, 5]);
    }

    #[test]
    fn split_at_mut_disjoint() {
        let mut data = vec![0u8, 1, 2, 3];
        let mut rows = RowsMut::new(&mut data, 1);
        let (mut a, mut b) = rows.split_at_mut(2);
        a.swap(0, 1, &NoProbe);
        b.swap(0, 1, &NoProbe);
        assert_eq!(data, vec![1, 0, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_width_panics() {
        let mut data = vec![0u8; 5];
        let _ = RowsMut::new(&mut data, 2);
    }

    // `row`, `row_mut` and `swap` skip the slice bounds check; their
    // `debug_assert!` is all that stops an index at `len`. Each case
    // indexes a two-row view of a three-row buffer, so without the assert
    // the call returns instead of panicking and the case fails.

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_at_len_panics_in_debug() {
        let mut data = vec![0u8; 6];
        let mut rows = RowsMut::new(&mut data, 2);
        let _ = rows.sub(0, 2).row(2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_mut_at_len_panics_in_debug() {
        let mut data = vec![0u8; 6];
        let mut rows = RowsMut::new(&mut data, 2);
        let _ = rows.sub(0, 2).row_mut(2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "self.len")]
    fn swap_at_len_panics_in_debug() {
        let mut data = vec![0u8; 6];
        let mut rows = RowsMut::new(&mut data, 2);
        rows.sub(0, 2).swap(2, 0, &NoProbe);
    }
}
