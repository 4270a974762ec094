//! Byte-wise radix sorts over normalized-key rows (§VI-B).
//!
//! Because normalized keys compare correctly byte by byte, they can be
//! sorted by a distribution sort that performs *no comparisons at all*:
//! O(n·k) for key width k, versus O(n log n) comparisons — and with almost
//! no data-dependent branches, which is the paper's Figure 10 story.
//!
//! Following the paper's DuckDB implementation:
//!
//! * [`lsd_radix_sort_rows`] — least-significant-digit first, selected for
//!   keys of ≤ [`LSD_MAX_KEY_BYTES`] bytes;
//! * [`msd_radix_sort_rows`] — most-significant-digit first, recursing into
//!   buckets and falling back to insertion sort for buckets of ≤ 24 rows;
//! * both carry the optimization that a counting pass finding all rows in
//!   one bucket skips the copy entirely (helps Graefe's shortcomings (1)
//!   and (3): long duplicate keys and common prefixes).
//!
//! One implementation-level optimization rides on top (DESIGN.md §6),
//! **fused counting**: histograms for several successive key bytes are
//! built in one sweep over the rows. LSD needs only a single counting
//! pass for *all* its digit passes (a histogram of byte values is
//! invariant under row permutation); MSD fuses up to [`MSD_FUSE_BYTES`]
//! histograms so common-prefix bytes are skipped without rescanning the
//! bucket per byte. (Staging the scatter through a software
//! write-combining buffer was measured neutral to 1.7× slower and is
//! gone; EXPERIMENTS.md keeps the numbers.)
//!
//! [`radix_sort_rows_with_scratch`] takes the auxiliary buffer — a second
//! row area, as long as the first — from the caller, so a sort pipeline
//! can pool it; the plain entry points allocate it per call.
//!
//! Every entry takes a [`Probe`]: the counting sweeps report their key-byte
//! loads and histogram updates, the scatters their row loads and stores.

use crate::insertion::insertion_sort_rows;
use crate::probe::Probe;
use crate::rows::{copy_row, RowsMut};

/// Buckets at or below this size are finished with insertion sort (the
/// paper's constant).
pub const MSD_INSERTION_THRESHOLD: usize = 24;

/// Key width (bytes) at or below which LSD is preferred over MSD. The
/// paper's heuristic picks 4; with fused counting (one sweep per window
/// of digits instead of one per digit) LSD's crossover moves out —
/// on the Figure 12 workload's 5-byte normalized keys (NULL byte +
/// big-endian u32) LSD is ~2.3× faster than MSD, so the dispatch prefers
/// it through 8 bytes.
pub const LSD_MAX_KEY_BYTES: usize = 8;

/// Successive key bytes histogrammed per counting sweep in MSD.
const MSD_FUSE_BYTES: usize = 4;

/// Sort rows by `key_len` key bytes starting at `key_offset` within each
/// row, choosing LSD or MSD radix per the paper's key-width heuristic.
///
/// ```
/// // Three 4-byte rows: 2-byte big-endian key + 2 payload bytes.
/// let mut rows = vec![
///     0, 9, b'c', b'c', //
///     0, 1, b'a', b'a', //
///     0, 5, b'b', b'b',
/// ];
/// rowsort_algos::radix::radix_sort_rows(&mut rows, 4, 0, 2, &rowsort_algos::NoProbe);
/// assert_eq!(rows[1], 1);
/// assert_eq!(&rows[2..4], b"aa");
/// assert_eq!(rows[9], 9);
/// assert_eq!(&rows[10..12], b"cc", "payload moved with its key");
/// ```
pub fn radix_sort_rows<P: Probe>(
    data: &mut [u8],
    width: usize,
    key_offset: usize,
    key_len: usize,
    probe: &P,
) {
    let mut scratch = Vec::new();
    radix_sort_rows_with_scratch(data, width, key_offset, key_len, &mut scratch, probe);
}

/// [`radix_sort_rows`] with a caller-pooled scratch buffer. The buffer is
/// resized to `data.len()`; with sufficient capacity (e.g. a recycled
/// buffer) the call performs no allocation. Returns the number of scatter
/// passes performed (skipped single-bucket passes excluded), for the
/// pipeline's metrics.
pub fn radix_sort_rows_with_scratch<P: Probe>(
    data: &mut [u8],
    width: usize,
    key_offset: usize,
    key_len: usize,
    scratch: &mut Vec<u8>,
    probe: &P,
) -> usize {
    if key_len <= LSD_MAX_KEY_BYTES {
        lsd_with_scratch(data, width, key_offset, key_len, scratch, probe)
    } else {
        msd_with_scratch(data, width, key_offset, key_len, scratch, probe)
    }
}

/// Stable LSD radix sort: one fused counting sweep per
/// [`LSD_MAX_KEY_BYTES`]-byte window of key bytes, then one
/// scatter pass per key byte, least significant (last) byte first.
pub fn lsd_radix_sort_rows<P: Probe>(
    data: &mut [u8],
    width: usize,
    key_offset: usize,
    key_len: usize,
    probe: &P,
) {
    let mut scratch = Vec::new();
    lsd_with_scratch(data, width, key_offset, key_len, &mut scratch, probe);
}

/// [`lsd_radix_sort_rows`] with pooled scratch. Returns the number of
/// scatter passes performed.
fn lsd_with_scratch<P: Probe>(
    data: &mut [u8],
    width: usize,
    key_offset: usize,
    key_len: usize,
    scratch: &mut Vec<u8>,
    probe: &P,
) -> usize {
    let n = data.len() / width;
    if n <= 1 || key_len == 0 {
        return 0;
    }
    debug_assert_eq!(data.len() % width, 0);
    scratch.resize(data.len(), 0);
    let aux = scratch.as_mut_slice();
    probe.buffer(data);
    probe.buffer(aux);

    let mut passes = 0usize;
    // `in_aux` flag: false ⇒ current data in `data`, true ⇒ in `aux`.
    let mut in_aux = false;
    // Fused counting: one sweep builds the histograms of up to
    // LSD_MAX_KEY_BYTES key bytes at once. Scatter passes permute rows but
    // never change byte values, so a window's histograms stay valid for
    // every pass of that window; wider keys just take one counting sweep
    // per window instead of one per byte.
    let mut hi_rel = key_len;
    while hi_rel > 0 {
        let lo_rel = hi_rel.saturating_sub(LSD_MAX_KEY_BYTES);
        let fuse = hi_rel - lo_rel;
        let mut all_counts = [[0usize; 256]; LSD_MAX_KEY_BYTES];
        probe.buffer(&all_counts);
        let src: &[u8] = if in_aux { aux } else { data };
        for r in 0..n {
            let at = r * width + key_offset + lo_rel;
            let key = &src[at..at + fuse];
            probe.read(src, at, fuse);
            for (counts, &b) in all_counts.iter_mut().zip(key.iter()) {
                probe.write(counts, b as usize, 1);
                counts[b as usize] += 1;
            }
        }
        for rel in (lo_rel..hi_rel).rev() {
            let counts = &all_counts[rel - lo_rel];
            // All rows in one bucket: this pass cannot change the order;
            // skip the copy (paper's optimization).
            if counts.contains(&n) {
                continue;
            }
            let byte = key_offset + rel;
            if in_aux {
                scatter_pass(aux, data, width, byte, 0, n, counts, probe);
            } else {
                scatter_pass(data, aux, width, byte, 0, n, counts, probe);
            }
            in_aux = !in_aux;
            passes += 1;
        }
        hi_rel = lo_rel;
    }
    if in_aux {
        probe.read(aux, 0, aux.len());
        probe.write(data, 0, data.len());
        data.copy_from_slice(aux);
    }
    passes
}

/// Stable MSD radix sort: bucket by the most significant byte, recurse into
/// each bucket on the next byte; buckets of ≤ [`MSD_INSERTION_THRESHOLD`]
/// rows use insertion sort on the remaining key bytes.
pub fn msd_radix_sort_rows<P: Probe>(
    data: &mut [u8],
    width: usize,
    key_offset: usize,
    key_len: usize,
    probe: &P,
) {
    let mut scratch = Vec::new();
    msd_with_scratch(data, width, key_offset, key_len, &mut scratch, probe);
}

/// [`msd_radix_sort_rows`] with pooled scratch. Returns the number of
/// scatter passes performed across all recursion levels.
fn msd_with_scratch<P: Probe>(
    data: &mut [u8],
    width: usize,
    key_offset: usize,
    key_len: usize,
    scratch: &mut Vec<u8>,
    probe: &P,
) -> usize {
    let n = data.len() / width;
    if n <= 1 || key_len == 0 {
        return 0;
    }
    scratch.resize(data.len(), 0);
    probe.buffer(data);
    probe.buffer(scratch);
    let key_end = key_offset + key_len;
    msd_rec(data, scratch, width, key_offset, key_end, 0, n, probe)
}

/// One stable counting-scatter of rows `start..end` from `src` into `dst`
/// by the byte at `byte`, each row moved by [`copy_row`] (key entries are
/// 5–41 bytes, where a `memcpy` call per row costs more than the copy).
#[expect(
    clippy::too_many_arguments,
    reason = "one pass over one bucket: the buffers, its bounds and counts, and the probe"
)]
fn scatter_pass<P: Probe>(
    src: &[u8],
    dst: &mut [u8],
    width: usize,
    byte: usize,
    start: usize,
    end: usize,
    counts: &[usize; 256],
    probe: &P,
) {
    let mut offsets = [0usize; 256];
    probe.buffer(&offsets);
    let mut sum = start;
    for (o, &c) in offsets.iter_mut().zip(counts.iter()) {
        *o = sum;
        sum += c;
    }
    let rows = src[start * width..end * width].chunks_exact(width);
    for (r, row) in (start..end).zip(rows) {
        let b = row[byte] as usize;
        let dst_row = offsets[b];
        probe.write(&offsets, b, 1);
        offsets[b] += 1;
        probe.read(src, r * width, width);
        probe.write(dst, dst_row * width, width);
        copy_row(&mut dst[dst_row * width..(dst_row + 1) * width], row);
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "the recursion carries both buffers, the key bounds and the bucket"
)]
fn msd_rec<P: Probe>(
    data: &mut [u8],
    aux: &mut [u8],
    width: usize,
    mut byte: usize,
    key_end: usize,
    start: usize,
    end: usize,
    probe: &P,
) -> usize {
    let n = end - start;
    if n <= 1 {
        return 0;
    }
    // Small bucket: insertion sort on the remaining key bytes.
    if n <= MSD_INSERTION_THRESHOLD {
        let mut rows = RowsMut::new(&mut data[start * width..end * width], width);
        let mut is_less =
            |a: &[u8], b: &[u8]| probe.less_bytes(&a[byte..key_end], &b[byte..key_end]);
        insertion_sort_rows(&mut rows, &mut is_less, probe);
        return 0;
    }

    // Fused counting: histogram up to MSD_FUSE_BYTES successive bytes in
    // one sweep, then advance past the all-equal ones (common-prefix skip:
    // no copying — and, fused, no re-scanning per skipped byte).
    let counts = loop {
        if byte >= key_end {
            return 0; // keys exhausted: bucket fully equal
        }
        let fuse = MSD_FUSE_BYTES.min(key_end - byte);
        let mut multi = [[0usize; 256]; MSD_FUSE_BYTES];
        probe.buffer(&multi);
        for r in start..end {
            let at = r * width + byte;
            let bytes = &data[at..at + fuse];
            probe.read(data, at, fuse);
            for (counts, &b) in multi.iter_mut().zip(bytes.iter()) {
                probe.write(counts, b as usize, 1);
                counts[b as usize] += 1;
            }
        }
        match multi.iter().take(fuse).position(|c| !c.contains(&n)) {
            Some(k) => {
                byte += k;
                break multi[k];
            }
            None => byte += fuse,
        }
    };

    // Scatter into aux by the distinguishing byte, stable, then copy back.
    let mut bucket_starts = [0usize; 256];
    let mut sum = start;
    for (o, &c) in bucket_starts.iter_mut().zip(counts.iter()) {
        *o = sum;
        sum += c;
    }
    scatter_pass(data, aux, width, byte, start, end, &counts, probe);
    probe.read(aux, start * width, n * width);
    probe.write(data, start * width, n * width);
    data[start * width..end * width].copy_from_slice(&aux[start * width..end * width]);
    let mut passes = 1usize;

    // Recurse into each non-trivial bucket on the next byte.
    if byte + 1 < key_end {
        for (b, &bs) in bucket_starts.iter().enumerate() {
            let be = bs + counts[b];
            if be - bs > 1 {
                passes += msd_rec(data, aux, width, byte + 1, key_end, bs, be, probe);
            }
        }
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoProbe;

    /// A radix row sort as the tests call it: `(data, stride, key_offset,
    /// key_len, probe)`.
    type RowSort = fn(&mut [u8], usize, usize, usize, &NoProbe);

    fn make_rows(keys: &[u32], width: usize) -> Vec<u8> {
        // Row: 4-byte BE key + (width-4) payload bytes derived from key.
        keys.iter()
            .flat_map(|&k| {
                let mut row = k.to_be_bytes().to_vec();
                row.extend((4..width).map(|i| (k as usize + i) as u8));
                row
            })
            .collect()
    }

    fn keys_of(data: &[u8], width: usize) -> Vec<u32> {
        data.chunks(width)
            .map(|r| u32::from_be_bytes(r[..4].try_into().unwrap()))
            .collect()
    }

    fn pseudo_random(n: usize, seed: u64, modk: u32) -> Vec<u32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as u32) % modk
            })
            .collect()
    }

    #[test]
    fn lsd_sorts_u32_keys() {
        for modk in [u32::MAX, 128, 2] {
            let keys = pseudo_random(10_000, 1, modk);
            let mut data = make_rows(&keys, 8);
            lsd_radix_sort_rows(&mut data, 8, 0, 4, &NoProbe);
            let mut expected = keys.clone();
            expected.sort_unstable();
            assert_eq!(keys_of(&data, 8), expected, "modk={modk}");
        }
    }

    #[test]
    fn msd_sorts_u32_keys() {
        for modk in [u32::MAX, 128, 2] {
            let keys = pseudo_random(10_000, 2, modk);
            let mut data = make_rows(&keys, 8);
            msd_radix_sort_rows(&mut data, 8, 0, 4, &NoProbe);
            let mut expected = keys.clone();
            expected.sort_unstable();
            assert_eq!(keys_of(&data, 8), expected, "modk={modk}");
        }
    }

    #[test]
    fn radix_dispatches_by_key_width() {
        // 4-byte key → LSD; result must be sorted either way.
        let keys = pseudo_random(5_000, 3, 1000);
        let mut data = make_rows(&keys, 8);
        radix_sort_rows(&mut data, 8, 0, 4, &NoProbe);
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(keys_of(&data, 8), expected);
    }

    #[test]
    fn wide_keys_msd() {
        // 12-byte keys: 3 × 4-byte BE segments; compare as byte strings.
        let segs: Vec<[u32; 3]> = (0..5_000)
            .map(|i| {
                let r = pseudo_random(3, i as u64, 16);
                [r[0], r[1], r[2]]
            })
            .collect();
        let width = 16;
        let mut data: Vec<u8> = segs
            .iter()
            .flat_map(|s| {
                let mut row = Vec::with_capacity(width);
                for v in s {
                    row.extend_from_slice(&v.to_be_bytes());
                }
                row.extend_from_slice(&[0xEE; 4]);
                row
            })
            .collect();
        msd_radix_sort_rows(&mut data, width, 0, 12, &NoProbe);
        let mut expected: Vec<Vec<u8>> = segs
            .iter()
            .map(|s| s.iter().flat_map(|v| v.to_be_bytes()).collect())
            .collect();
        expected.sort();
        for (i, row) in data.chunks(width).enumerate() {
            assert_eq!(&row[..12], &expected[i][..]);
        }
    }

    #[test]
    fn both_radix_sorts_match_a_stable_oracle_at_every_stride() {
        // Every stride the scatter's row copy splits on, keys inside the
        // row with payload on both sides, few distinct key bytes (long
        // shared prefixes, many equal keys) and random payload: equal keys
        // must keep their input order, which the stable `sort_by` oracle
        // compares whole rows for.
        let mut rng = rowsort_testkit::Rng::seed_from_u64(0x5CA7_7E12);
        for stride in 1..=72usize {
            let key_offset = stride / 5;
            let key_len = ((stride - key_offset) * 2 / 3).max(1);
            let data: Vec<u8> = (0..600 * stride)
                .map(|at| {
                    let rel = (at % stride).wrapping_sub(key_offset);
                    match rel < key_len {
                        true if rng.below(4) == 0 => rng.below(3) as u8,
                        true => 7,
                        false => rng.next_u32() as u8,
                    }
                })
                .collect();
            let key = |row: &[u8]| row[key_offset..key_offset + key_len].to_vec();
            let mut expected: Vec<&[u8]> = data.chunks(stride).collect();
            expected.sort_by_key(|row| key(row));
            let expected = expected.concat();
            let sorts: [(&str, RowSort); 2] =
                [("lsd", lsd_radix_sort_rows), ("msd", msd_radix_sort_rows)];
            for (name, sort) in sorts {
                let mut got = data.clone();
                sort(&mut got, stride, key_offset, key_len, &NoProbe);
                assert!(
                    got == expected,
                    "{name} at stride {stride}, key {key_len} B"
                );
            }
        }
    }

    #[test]
    fn lsd_is_stable() {
        // Key byte 0; payload byte 1 records input order.
        let keys = [3u8, 1, 3, 1, 2, 3, 1];
        let mut data: Vec<u8> = keys
            .iter()
            .enumerate()
            .flat_map(|(i, &k)| [k, i as u8])
            .collect();
        lsd_radix_sort_rows(&mut data, 2, 0, 1, &NoProbe);
        assert_eq!(data, vec![1, 1, 1, 3, 1, 6, 2, 4, 3, 0, 3, 2, 3, 5]);
    }

    #[test]
    fn msd_is_stable() {
        let keys = [3u8, 1, 3, 1, 2, 3, 1];
        let mut data: Vec<u8> = keys
            .iter()
            .enumerate()
            .flat_map(|(i, &k)| [k, i as u8])
            .collect();
        // Force the scatter path (threshold would shortcut to insertion
        // sort, which is also stable — test both).
        msd_radix_sort_rows(&mut data, 2, 0, 1, &NoProbe);
        assert_eq!(data, vec![1, 1, 1, 3, 1, 6, 2, 4, 3, 0, 3, 2, 3, 5]);
    }

    #[test]
    fn msd_scatter_path_stable_large() {
        // > threshold rows, 1-byte key, payload = input order (2 bytes).
        let n = 1000usize;
        let mut data: Vec<u8> = (0..n)
            .flat_map(|i| [(i % 3) as u8, (i / 256) as u8, (i % 256) as u8])
            .collect();
        msd_radix_sort_rows(&mut data, 3, 0, 1, &NoProbe);
        let mut last_order = [0usize; 3];
        for row in data.chunks(3) {
            let k = row[0] as usize;
            let ord = row[1] as usize * 256 + row[2] as usize;
            assert!(last_order[k] <= ord, "stability violated within key {k}");
            last_order[k] = ord + 1;
        }
    }

    #[test]
    fn pooled_scratch_is_reused_across_calls() {
        let mut scratch = Vec::new();
        let keys = pseudo_random(8_000, 5, 1 << 20);
        let mut data = make_rows(&keys, 8);
        radix_sort_rows_with_scratch(&mut data, 8, 0, 4, &mut scratch, &NoProbe);
        let cap = scratch.capacity();
        assert!(cap >= data.len());
        // Second call with the warmed buffer must not grow it.
        let mut data2 = make_rows(&keys, 8);
        radix_sort_rows_with_scratch(&mut data2, 8, 0, 4, &mut scratch, &NoProbe);
        assert_eq!(scratch.capacity(), cap);
        assert_eq!(keys_of(&data, 8), keys_of(&data2, 8));
    }

    #[test]
    fn single_bucket_skip_still_sorts() {
        // High bytes all zero (values < 256): LSD passes 0..2 skip.
        let keys = pseudo_random(2_000, 9, 256);
        let mut data = make_rows(&keys, 8);
        lsd_radix_sort_rows(&mut data, 8, 0, 4, &NoProbe);
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(keys_of(&data, 8), expected);
    }

    #[test]
    fn common_prefix_msd() {
        // All keys share the first 8 bytes; differ in last 4.
        let keys = pseudo_random(3_000, 11, 1_000_000);
        let width = 12;
        let mut data: Vec<u8> = keys
            .iter()
            .flat_map(|&k| {
                let mut row = vec![0xAB; 8];
                row.extend_from_slice(&k.to_be_bytes());
                row
            })
            .collect();
        msd_radix_sort_rows(&mut data, width, 0, 12, &NoProbe);
        let mut expected = keys.clone();
        expected.sort_unstable();
        for (i, row) in data.chunks(width).enumerate() {
            assert_eq!(
                u32::from_be_bytes(row[8..12].try_into().unwrap()),
                expected[i]
            );
        }
    }

    #[test]
    fn long_common_prefix_beyond_fuse_window() {
        // A shared prefix longer than MSD_FUSE_BYTES: the fused counting
        // loop must advance through several windows before scattering.
        let keys = pseudo_random(3_000, 15, 1_000_000);
        let prefix = MSD_FUSE_BYTES * 2 + 3;
        let width = prefix + 4;
        let mut data: Vec<u8> = keys
            .iter()
            .flat_map(|&k| {
                let mut row = vec![0x5C; prefix];
                row.extend_from_slice(&k.to_be_bytes());
                row
            })
            .collect();
        msd_radix_sort_rows(&mut data, width, 0, width, &NoProbe);
        let mut expected = keys.clone();
        expected.sort_unstable();
        for (i, row) in data.chunks(width).enumerate() {
            assert_eq!(
                u32::from_be_bytes(row[prefix..].try_into().unwrap()),
                expected[i],
                "row {i}"
            );
        }
    }

    #[test]
    fn key_offset_respected() {
        // Row: 2 payload bytes, then 2-byte BE key.
        let keys = pseudo_random(1_000, 13, 60_000);
        let mut data: Vec<u8> = keys
            .iter()
            .flat_map(|&k| {
                let mut row = vec![0xCD, 0xEF];
                row.extend_from_slice(&(k as u16).to_be_bytes());
                row
            })
            .collect();
        lsd_radix_sort_rows(&mut data, 4, 2, 2, &NoProbe);
        let got: Vec<u16> = data
            .chunks(4)
            .map(|r| u16::from_be_bytes(r[2..4].try_into().unwrap()))
            .collect();
        let mut expected: Vec<u16> = keys.iter().map(|&k| k as u16).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_and_single() {
        let mut empty: Vec<u8> = vec![];
        radix_sort_rows(&mut empty, 4, 0, 4, &NoProbe);
        let mut one = vec![1u8, 2, 3, 4];
        radix_sort_rows(&mut one, 4, 0, 4, &NoProbe);
        assert_eq!(one, vec![1, 2, 3, 4]);
    }

    #[test]
    fn all_equal_keys() {
        let mut data: Vec<u8> = (0..500u32)
            .flat_map(|i| {
                let mut row = 7u32.to_be_bytes().to_vec();
                row.extend_from_slice(&i.to_le_bytes());
                row
            })
            .collect();
        let before = data.clone();
        lsd_radix_sort_rows(&mut data, 8, 0, 4, &NoProbe);
        assert_eq!(data, before, "stable sort of equal keys is the identity");
        let mut data2 = before.clone();
        msd_radix_sort_rows(&mut data2, 8, 0, 4, &NoProbe);
        assert_eq!(data2, before);
    }
}
