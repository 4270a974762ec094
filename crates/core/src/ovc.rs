//! Offset-value coding over normalized keys (Do & Graefe, *Robust and
//! Efficient Sorting with Offset-Value Coding*; DESIGN.md §10).
//!
//! A key's code relative to a *base* key that sorts at-or-before it packs
//! "where the two keys diverge" and "what the key holds there" into one
//! `u64`:
//!
//! ```text
//!   code = (arity − offset) << 32 | next_word        (descending offset)
//! ```
//!
//! where `arity` is the key's word count, `offset` the number of leading
//! 4-byte words shared with the base, and `next_word` the key's first
//! differing word (big-endian, so byte order and integer order agree).
//! `code == 0` iff the key equals its base. For two keys coded against the
//! **same** base, code order equals key order — a larger code means the
//! key diverges from the base earlier, or diverges with a bigger word —
//! so most merge comparisons resolve on a single `u64` compare and never
//! touch key bytes. On a code tie the keys share their base prefix *and*
//! the coded word, so the comparison restarts past the coded word, and
//! its outcome re-codes the loser relative to the winner for free: codes
//! stay current as a by-product of merging.
//!
//! Everything here is panic-free (R010: these kernels are reachable from
//! the hot merge entry points): tail words are zero-padded by a bounded
//! loader, and offsets decoded from untrusted spill files are clamped
//! before use.

use std::cmp::Ordering;

/// What a sort's merges decide their matches on (DESIGN.md §10), chosen
/// once per sort ([`MergeCodes::of`]) and a const parameter of the merge
/// kernel, never a branch per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeCodes {
    /// Every live head is coded 0, so every match compares whole keys:
    /// offset-value coding is off, or the key has no bytes.
    None,
    /// Offset-value codes: each run's code column, the loser re-coded
    /// against the winner of every match a code tie leaves to the keys.
    Ovc,
    /// Each key of 1 to [`KEY_CODE_BYTES`] bytes is its own code
    /// ([`key_mask`]): no code column, and a code tie is a key tie.
    Key,
}

impl MergeCodes {
    /// The codes of a sort with `ovc` on or off and `key_width`-byte keys.
    pub fn of(ovc: bool, key_width: usize) -> MergeCodes {
        if !ovc || key_width == 0 {
            MergeCodes::None
        } else if key_width <= KEY_CODE_BYTES {
            MergeCodes::Key
        } else {
            MergeCodes::Ovc
        }
    }

    /// Whether each run stores a code per row (its code column, and in a
    /// run file a code per record).
    pub fn stored(self) -> bool {
        self == MergeCodes::Ovc
    }

    /// `none`, `ovc` or `key`, as `EXPLAIN ANALYZE` prints it.
    pub fn name(self) -> &'static str {
        match self {
            MergeCodes::None => "none",
            MergeCodes::Ovc => "ovc",
            MergeCodes::Key => "key",
        }
    }
}

/// Code granularity: keys are compared word-at-a-time in 4-byte units.
pub const WORD_BYTES: usize = 4;

/// Number of coding words covering a `key_width`-byte normalized key
/// (the final word is zero-padded when `key_width % 4 != 0`).
#[inline]
pub fn word_count(key_width: usize) -> usize {
    key_width.div_ceil(WORD_BYTES)
}

/// Big-endian word `j` of `key`, zero-padded past the end of the slice.
/// Keys in one sort share a width, so the padding never changes an
/// ordering decision — it only rounds the tail up to a full word.
#[inline]
fn word_at(key: &[u8], j: usize) -> u32 {
    let start = j.saturating_mul(WORD_BYTES);
    // Fast path: a fully in-bounds word is one 4-byte big-endian load —
    // this is every word but the (possibly partial) last one, and it is
    // what the merge-loop suffix scans and `fill_run_codes` hit.
    if let Some(Ok(w)) = key
        .get(start..start.saturating_add(WORD_BYTES))
        .map(<[u8; WORD_BYTES]>::try_from)
    {
        return u32::from_be_bytes(w);
    }
    let mut buf = [0u8; WORD_BYTES];
    let end = key.len().min(start.saturating_add(WORD_BYTES));
    if start < end {
        if let (Some(dst), Some(src)) = (buf.get_mut(..end - start), key.get(start..end)) {
            dst.copy_from_slice(src);
        }
    }
    u32::from_be_bytes(buf)
}

/// Pack an offset-value code: the key diverges from its base at word
/// `offset` where it holds `value`. Stored as a *descending* offset
/// (`arity − offset`) so codes compare directly as `u64`s.
#[inline]
fn pack(arity: usize, offset: usize, value: u32) -> u64 {
    ((arity.saturating_sub(offset) as u64) << 32) | u64::from(value)
}

/// Big-endian 8-byte load at byte `off`, `None` past the end.
#[inline]
fn be64_at(key: &[u8], off: usize) -> Option<u64> {
    match key.get(off..off.saturating_add(8)).map(<[u8; 8]>::try_from) {
        Some(Ok(b)) => Some(u64::from_be_bytes(b)),
        _ => None,
    }
}

/// First word index in `start_word..arity` where `key` and `base`
/// differ, with both differing words, or `None` when the keys agree
/// through word `arity − 1`. Scans two words (8 bytes) per step — the
/// big-endian load keeps byte order and integer order aligned, so the
/// leading zeros of the XOR locate the first differing byte directly.
#[inline]
fn first_diff_from(
    key: &[u8],
    base: &[u8],
    start_word: usize,
    arity: usize,
) -> Option<(usize, u32, u32)> {
    let mut off = start_word.saturating_mul(WORD_BYTES);
    while let (Some(a), Some(b)) = (be64_at(key, off), be64_at(base, off)) {
        if a != b {
            let byte = off + ((a ^ b).leading_zeros() / 8) as usize;
            let j = byte / WORD_BYTES;
            if j >= arity {
                return None;
            }
            return Some((j, word_at(key, j), word_at(base, j)));
        }
        off += 8;
    }
    // Tail: fewer than 8 in-bounds bytes left on one side — finish with
    // zero-padded word loads.
    let mut j = off / WORD_BYTES;
    while j < arity {
        let (wa, wb) = (word_at(key, j), word_at(base, j));
        if wa != wb {
            return Some((j, wa, wb));
        }
        j += 1;
    }
    None
}

/// The code of a run's first key, i.e. relative to a virtual "minus
/// infinity" base that shares nothing: offset 0, value = word 0. All run
/// heads carry this form, which is what makes their codes mutually
/// comparable before a single row has been emitted.
#[inline]
pub fn initial_code(key: &[u8], arity: usize) -> u64 {
    pack(arity, 0, word_at(key, 0))
}

/// Code `key` relative to `base`, where `base` sorts at-or-before `key`
/// (e.g. its predecessor in a sorted run). Returns 0 when the keys are
/// byte-equal.
#[inline]
pub fn code_rel(key: &[u8], base: &[u8], arity: usize) -> u64 {
    match first_diff_from(key, base, 0, arity) {
        Some((j, w, _)) => pack(arity, j, w),
        None => 0,
    }
}

/// Outcome of one same-base compare-and-update (see [`compare_update`]).
#[derive(Debug, Clone, Copy)]
pub struct OvcCmp {
    /// Key order. `Equal` means the keys are **byte-equal** (callers with
    /// truncated-prefix ties still need their tie-break comparator).
    pub ord: Ordering,
    /// The loser's code relative to the winner. Whichever side the caller
    /// does *not* emit/advance must adopt this code; the winner's own
    /// code is unchanged. On `Equal` the caller may pick either side as
    /// winner (ties broken externally) — byte-equal keys code to 0
    /// relative to each other regardless.
    pub loser_code: u64,
    /// The comparison was decided by the code compare alone (no key
    /// bytes were read).
    pub resolved: bool,
    /// Key bytes examined by the post-tie suffix scan (both sides).
    pub key_bytes: u64,
}

/// Compare two keys whose codes `ca`, `cb` are relative to the **same**
/// base, updating the loser's code to be relative to the winner.
///
/// * Codes differ → key order is code order; the loser's code is already
///   correct relative to the winner (when codes differ, the loser's
///   divergence point and word against the base and against the winner
///   coincide), so `loser_code` is just its current code.
/// * Codes tie at 0 → both keys equal the base, hence each other.
/// * Codes tie at `(arity − o) << 32 | w` → both keys share words
///   `..= o` (their base prefix plus the coded word), so the scan
///   resumes at word `o + 1`; the first difference yields the order and
///   the loser's fresh code relative to the winner.
#[inline]
pub fn compare_update(ka: &[u8], ca: u64, kb: &[u8], cb: u64, arity: usize) -> OvcCmp {
    if ca != cb {
        return OvcCmp {
            ord: ca.cmp(&cb),
            loser_code: ca.max(cb),
            resolved: true,
            key_bytes: 0,
        };
    }
    if ca == 0 {
        return OvcCmp {
            ord: Ordering::Equal,
            loser_code: 0,
            resolved: true,
            key_bytes: 0,
        };
    }
    // Shared divergence word o = arity − d; `min` clamps codes decoded
    // from untrusted spill bytes (d > arity is impossible for codes we
    // produce, and checksum verification will reject the run — but the
    // kernel itself must stay in bounds and panic-free meanwhile).
    let d = ((ca >> 32) as usize).min(arity);
    let o = arity - d;
    match first_diff_from(ka, kb, o + 1, arity) {
        Some((j, wa, wb)) => {
            let (ord, lw) = if wa < wb {
                (Ordering::Less, wb)
            } else {
                (Ordering::Greater, wa)
            };
            OvcCmp {
                ord,
                loser_code: pack(arity, j, lw),
                resolved: false,
                key_bytes: ((j - o) * 2 * WORD_BYTES) as u64,
            }
        }
        None => OvcCmp {
            ord: Ordering::Equal,
            loser_code: 0,
            resolved: false,
            key_bytes: (arity.saturating_sub(o + 1) * 2 * WORD_BYTES) as u64,
        },
    }
}

/// Compute the per-row code column of a sorted run: row 0 gets the
/// [`initial_code`], row `i > 0` its code relative to row `i − 1`. Codes
/// are written to `out` as little-endian `u64`s (8 bytes per row); `out`
/// must hold `8 * (keys.len() / key_width)` bytes. Keys of at most 8
/// bytes take a branch-free path; the codes are the same.
pub fn fill_run_codes(keys: &[u8], key_width: usize, out: &mut [u8]) {
    if key_width == 0 {
        return;
    }
    if key_width <= SHORT_KEY_BYTES {
        fill_short_codes(keys, key_width, out);
        return;
    }
    let arity = word_count(key_width);
    let rows = keys.len() / key_width;
    let mut prev: Option<&[u8]> = None;
    for i in 0..rows {
        let key = match keys.get(i * key_width..(i + 1) * key_width) {
            Some(k) => k,
            None => break,
        };
        let code = match prev {
            Some(base) => code_rel(key, base, arity),
            None => initial_code(key, arity),
        };
        if let Some(slot) = out.get_mut(i * 8..(i + 1) * 8) {
            slot.copy_from_slice(&code.to_le_bytes());
        }
        prev = Some(key);
    }
}

/// The widest key [`fill_short_codes`] codes: one `u64`, two code words.
const SHORT_KEY_BYTES: usize = 8;

/// The widest key that is its own merge code ([`key_mask`]). Seven bytes
/// left-aligned in a `u64` leave its low byte zero, so no key code equals
/// the loser tree's fence, `u64::MAX`; an all-`0xFF` key of eight bytes
/// would (DESIGN.md §10.1).
pub const KEY_CODE_BYTES: usize = 7;

/// The bits of a big-endian 8-byte window that a `key_width`-byte key
/// covers: the top `key_width` bytes (none for a zero-width key, all of
/// them from 8 bytes on).
///
/// The 8 bytes from a key's first ([`key_window`]) masked so are the
/// merge code of a key of 1 to [`KEY_CODE_BYTES`] bytes: the key itself,
/// left-aligned in a big-endian `u64`. Two key codes compare as their
/// keys do and tie only on byte-equal keys, with no base: a head's code
/// is the same whoever it lost to.
#[inline]
pub fn key_mask(key_width: usize) -> u64 {
    let bits = 8 * key_width.min(8) as u32;
    u64::MAX.checked_shl(64 - bits).unwrap_or(0)
}

/// Big-endian 8-byte window of `keys` at byte `at`, zero-padded where it
/// runs past the end (a run's last keys, when they are shorter than 8
/// bytes).
#[inline]
pub fn key_window(keys: &[u8], at: usize) -> u64 {
    be64_at(keys, at).unwrap_or_else(|| {
        let mut buf = [0u8; 8];
        let tail = keys.get(at..).unwrap_or_default();
        for (b, &k) in buf.iter_mut().zip(tail) {
            *b = k;
        }
        u64::from_be_bytes(buf)
    })
}

/// [`fill_run_codes`] for keys of 1 to [`SHORT_KEY_BYTES`] bytes, without a
/// branch on the data. Each key is one big-endian `u64`, its window masked
/// to `key_width` bytes; the XOR with the previous key has
/// `leading_zeros / 32` = the first differing word (0 or 1), or 2 when the
/// keys are equal, and the code is picked by selects from there. Row 0 is
/// coded against its own complement, which differs in word 0: that is
/// [`initial_code`]. Equal to [`code_rel`] for every row — run files store
/// these codes, and `short_codes_equal_code_rel` holds the two together.
fn fill_short_codes(keys: &[u8], key_width: usize, out: &mut [u8]) {
    let arity = word_count(key_width) as u64;
    let mask = key_mask(key_width);
    let rows = keys.len() / key_width;
    let mut prev = !key_window(keys, 0);
    for (i, slot) in out.chunks_exact_mut(8).take(rows).enumerate() {
        let key = key_window(keys, i * key_width) & mask;
        let diff = key ^ prev;
        let word = u64::from(diff.leading_zeros() / 32);
        // Word 0 is the key's top half, word 1 its bottom half.
        let value = (key << (32 * (word & 1))) >> 32;
        let code = (arity.wrapping_sub(word) << 32) | value;
        let code = if diff == 0 { 0 } else { code };
        slot.copy_from_slice(&code.to_le_bytes());
        prev = key;
    }
}

/// Read row `i`'s code from a run's code column (the inverse of
/// [`fill_run_codes`]'s encoding). Returns 0 past the end — callers index
/// in-bounds by construction; the total function keeps the kernel
/// panic-free.
#[inline]
pub fn read_code(ovc: &[u8], i: usize) -> u64 {
    match ovc
        .get(i.saturating_mul(8)..i.saturating_mul(8).saturating_add(8))
        .map(<[u8; 8]>::try_from)
    {
        Some(Ok(src)) => u64::from_le_bytes(src),
        _ => 0,
    }
}

/// `true` iff `code` could have been produced by this module for a key of
/// `arity` words: the decoded descending offset is in range and a zero
/// offset field implies a fully-zero code. Spill readers reject runs
/// whose stored codes fail this (DESIGN.md §10.4).
#[inline]
pub fn code_plausible(code: u64, arity: usize) -> bool {
    let d = code >> 32;
    d <= arity as u64 && (d != 0 || code == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(bytes: &[u8]) -> Vec<u8> {
        bytes.to_vec()
    }

    #[test]
    fn word_at_pads_tail_with_zeros() {
        let k = key(&[0xAA, 0xBB, 0xCC, 0xDD, 0xEE]);
        assert_eq!(word_at(&k, 0), 0xAABBCCDD);
        assert_eq!(word_at(&k, 1), 0xEE000000);
        assert_eq!(word_at(&k, 2), 0);
    }

    #[test]
    fn code_rel_matches_definition() {
        let a = word_count(9);
        let base = key(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(code_rel(&base, &base, a), 0);
        // Diverges in word 1.
        let k = key(&[1, 2, 3, 4, 5, 6, 9, 9, 9]);
        assert_eq!(code_rel(&k, &base, a), ((a as u64 - 1) << 32) | 0x05060909);
        // Diverges in word 0.
        let k0 = key(&[2, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(code_rel(&k0, &base, a), ((a as u64) << 32) | 0x02020304);
        // Diverges only in the padded tail word.
        let kt = key(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_eq!(code_rel(&kt, &base, a), ((a as u64 - 2) << 32) | 0x0A000000);
    }

    #[test]
    fn initial_code_is_code_rel_smaller_everything() {
        let a = word_count(6);
        let k = key(&[9, 8, 7, 6, 5, 4]);
        assert_eq!(initial_code(&k, a), ((a as u64) << 32) | 0x09080706);
    }

    #[test]
    fn codes_are_order_isomorphic_same_base() {
        // Exhaustive 3-byte keys over a small alphabet, all coded against
        // one base: code order must equal key order whenever codes differ.
        let alpha = [0u8, 1, 7, 255];
        let base = key(&[1, 7, 1]);
        let arity = word_count(3);
        let mut keys = Vec::new();
        for &x in &alpha {
            for &y in &alpha {
                for &z in &alpha {
                    let k = key(&[x, y, z]);
                    if k >= base {
                        keys.push(k);
                    }
                }
            }
        }
        for ka in &keys {
            for kb in &keys {
                let (ca, cb) = (code_rel(ka, &base, arity), code_rel(kb, &base, arity));
                if ca != cb {
                    assert_eq!(ca.cmp(&cb), ka.cmp(kb), "ka={ka:?} kb={kb:?}");
                }
            }
        }
    }

    #[test]
    fn compare_update_full_oracle() {
        // Every pair of 5-byte keys (small alphabet) against every valid
        // base: order matches the byte oracle and the loser's refreshed
        // code matches code_rel against the winner.
        let alpha = [0u8, 3, 200];
        let mut keys = Vec::new();
        for &a in &alpha {
            for &b in &alpha {
                for &c in &alpha {
                    keys.push(key(&[a, 1, b, 2, c]));
                }
            }
        }
        let arity = word_count(5);
        for base in &keys {
            for ka in &keys {
                for kb in &keys {
                    if ka < base || kb < base {
                        continue;
                    }
                    let ca = code_rel(ka, base, arity);
                    let cb = code_rel(kb, base, arity);
                    let r = compare_update(ka, ca, kb, cb, arity);
                    assert_eq!(r.ord, ka.cmp(kb), "base={base:?} ka={ka:?} kb={kb:?}");
                    let (winner, loser) = match r.ord {
                        Ordering::Greater => (kb, ka),
                        _ => (ka, kb),
                    };
                    assert_eq!(
                        r.loser_code,
                        code_rel(loser, winner, arity),
                        "stale loser code: base={base:?} ka={ka:?} kb={kb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn equal_keys_resolve_to_zero() {
        let arity = word_count(8);
        let k = key(&[5; 8]);
        let base = key(&[1; 8]);
        let c = code_rel(&k, &base, arity);
        let r = compare_update(&k, c, &k, c, arity);
        assert_eq!(r.ord, Ordering::Equal);
        assert_eq!(r.loser_code, 0);
    }

    #[test]
    fn fill_and_read_roundtrip() {
        let kw = 5;
        let rows: Vec<Vec<u8>> = vec![
            key(&[0, 0, 0, 0, 1]),
            key(&[0, 0, 0, 0, 1]),
            key(&[0, 0, 0, 2, 0]),
            key(&[9, 0, 0, 0, 0]),
        ];
        let mut keys = Vec::new();
        for r in &rows {
            keys.extend_from_slice(r);
        }
        let mut ovc = vec![0u8; rows.len() * 8];
        fill_run_codes(&keys, kw, &mut ovc);
        let arity = word_count(kw);
        assert_eq!(read_code(&ovc, 0), initial_code(&rows[0], arity));
        assert_eq!(read_code(&ovc, 1), 0);
        assert_eq!(read_code(&ovc, 2), code_rel(&rows[2], &rows[1], arity));
        assert_eq!(read_code(&ovc, 3), code_rel(&rows[3], &rows[2], arity));
        assert_eq!(read_code(&ovc, 4), 0, "past-the-end read is total");
    }

    /// The code column as [`code_rel`] defines it, row by row.
    fn reference_codes(keys: &[u8], kw: usize) -> Vec<u64> {
        let arity = word_count(kw);
        let rows: Vec<&[u8]> = keys.chunks(kw).collect();
        (0..rows.len())
            .map(|i| match i {
                0 => initial_code(rows[0], arity),
                _ => code_rel(rows[i], rows[i - 1], arity),
            })
            .collect()
    }

    #[test]
    fn short_codes_equal_code_rel() {
        // Sorted runs of every short width: keys from few distinct bytes
        // (long runs of equal keys, code 0), NULL bytes leading some of
        // them, and run lengths that leave 0–7 bytes after the last key's
        // start, so the tail rows take the padded load.
        let mut rng = rowsort_testkit::Rng::seed_from_u64(0x0C0DE5);
        for kw in 1..=SHORT_KEY_BYTES {
            for rows in [1, 2, 3, 7, 64, 1000] {
                let mut run: Vec<Vec<u8>> = (0..rows)
                    .map(|_| {
                        let mut key: Vec<u8> = (0..kw).map(|_| rng.below(3) as u8 * 0x7F).collect();
                        if rng.below(8) == 0 {
                            key[0] = 0; // a NULL sorting first
                            key[1..].fill(0);
                        }
                        key
                    })
                    .collect();
                run.sort();
                let keys = run.concat();
                let mut out = vec![0u8; rows * 8];
                fill_run_codes(&keys, kw, &mut out);
                let got: Vec<u64> = (0..rows).map(|i| read_code(&out, i)).collect();
                assert_eq!(
                    got,
                    reference_codes(&keys, kw),
                    "{kw}-byte keys, {rows} rows"
                );
            }
        }
        // Random keys of every byte value, where each word's bits count.
        for kw in 1..=SHORT_KEY_BYTES {
            let mut run: Vec<Vec<u8>> = (0..500)
                .map(|_| (0..kw).map(|_| rng.next_u32() as u8).collect())
                .collect();
            run.sort();
            let keys = run.concat();
            let mut out = vec![0u8; 500 * 8];
            fill_run_codes(&keys, kw, &mut out);
            let got: Vec<u64> = (0..500).map(|i| read_code(&out, i)).collect();
            assert_eq!(got, reference_codes(&keys, kw), "{kw}-byte random keys");
        }
    }

    #[test]
    fn plausibility_rejects_corrupt_codes() {
        let arity = word_count(12); // 3 words
        assert!(code_plausible(0, arity));
        assert!(code_plausible((3 << 32) | 7, arity));
        assert!(!code_plausible(4 << 32, arity), "offset out of range");
        assert!(!code_plausible(77, arity), "nonzero value at zero offset");
    }

    #[test]
    fn clamped_corrupt_code_stays_in_bounds() {
        // A hostile code with an impossible offset must not read out of
        // bounds or panic — order may be wrong (the checksum rejects the
        // run), memory safety may not.
        let k = key(&[1, 2, 3]);
        let arity = word_count(3);
        let evil = (u64::from(u32::MAX)) << 32 | 5;
        let r = compare_update(&k, evil, &k, evil, arity);
        let _ = r.ord;
    }
}
