//! K-way merge with a loser tree — the merge structure used by the
//! ClickHouse- and HyPer-style system profiles (paper §VII).
//!
//! A loser tree performs ⌈log₂ k⌉ comparisons per output element, matching
//! the `n·log(k)` merge-phase comparison count the paper's §II analysis
//! assumes.

/// A tournament (loser) tree over `k` input cursors, compared by a plain
/// `less` — [`OvcLoserTree`] with the codes left unused.
///
/// After the winner's head element is consumed, [`LoserTree::replay`]
/// walks only the winner's root path: ⌈log₂ k⌉ matches. Exhausted inputs
/// lose every match, and ties break toward the lower input index so
/// merges are stable.
pub struct LoserTree(OvcLoserTree);

impl LoserTree {
    /// Build the tree with a full bottom-up tournament.
    ///
    /// `is_exhausted(i)` reports whether input `i < k` is empty;
    /// `leaf_less(a, b)` compares the current heads of two non-exhausted
    /// inputs.
    pub fn new<E, L>(k: usize, is_exhausted: E, mut leaf_less: L) -> LoserTree
    where
        E: FnMut(usize) -> bool,
        L: FnMut(usize, usize) -> bool,
    {
        LoserTree(OvcLoserTree::new(
            k,
            |_| 0,
            is_exhausted,
            |a, b, _, _| Self::uncoded(a, b, &mut leaf_less),
        ))
    }

    /// The input whose head is currently smallest.
    pub fn winner(&self) -> usize {
        self.0.winner()
    }

    /// Replay the path from input `leaf`'s position to the root after its
    /// head changed (was consumed or its run advanced).
    pub fn replay<E, L>(&mut self, leaf: usize, is_exhausted: &mut E, leaf_less: &mut L)
    where
        E: FnMut(usize) -> bool,
        L: FnMut(usize, usize) -> bool,
    {
        self.0.replay(leaf, 0, is_exhausted, &mut |a, b, _, _| {
            Self::uncoded(a, b, leaf_less)
        });
    }

    /// One match decided by `leaf_less` alone.
    fn uncoded<L: FnMut(usize, usize) -> bool>(a: usize, b: usize, leaf_less: &mut L) -> OvcMatch {
        OvcMatch {
            a_beats_b: leaf_less(a, b) || (!leaf_less(b, a) && a < b),
            loser_code: 0,
        }
    }
}

/// Outcome of one loser-tree match under offset-value coding: who won,
/// and the loser's refreshed code **relative to the winner** (the classic
/// OVC ⟷ tree-of-losers interaction: each match leaves the loser coded
/// against the key that beat it, so the next match at that node starts
/// from a shared base).
#[derive(Debug, Clone, Copy)]
pub struct OvcMatch {
    /// Input `a`'s head sorts before input `b`'s.
    pub a_beats_b: bool,
    /// Code of the losing head relative to the winning head.
    pub loser_code: u64,
}

/// A loser tree that carries an offset-value code per internal node.
///
/// Internal node `x` stores the *loser* of the match played at `x` — and,
/// next to the losing input, the loser's code relative to the input that
/// won the match at `x`; the overall winner is kept in a dedicated field.
/// Inputs are padded to a power of two with virtual always-exhausted
/// leaves. A
/// winner ascends with its code unchanged (it keeps winning against keys
/// it was already coded against), so each replayed match hands the
/// `play` callback two codes with a common base and most matches resolve
/// on a single `u64` compare inside the callback.
///
/// Exhausted and virtual (padding) inputs lose every match without
/// `play` being called; their codes are immaterial and kept at
/// `u64::MAX`.
pub struct OvcLoserTree {
    /// `tree[1..cap]`: losers of each internal match; slot 0 unused.
    tree: Vec<usize>,
    /// `code[x]`: the loser's code relative to the winner of match `x`.
    code: Vec<u64>,
    /// Rebuild scratch (the bottom-up tournament bracket), kept so
    /// [`OvcLoserTree::rebuild`] allocates nothing once grown.
    round: Vec<usize>,
    round_code: Vec<u64>,
    winner: usize,
    winner_code: u64,
    cap: usize,
    k: usize,
}

impl Default for OvcLoserTree {
    fn default() -> Self {
        OvcLoserTree::empty()
    }
}

impl OvcLoserTree {
    /// Build the tree with a full bottom-up tournament.
    ///
    /// `init_code(i)` is the starting code of non-exhausted input `i`'s
    /// head — all inputs must be coded against one common base (the
    /// usual choice: offset 0 relative to a virtual −∞ key, which is
    /// what run-file head codes already are). `is_exhausted(i)` reports
    /// whether input `i < k` is empty; `play(a, b, ca, cb)` compares two
    /// non-exhausted heads given their same-base codes.
    pub fn new<C, E, M>(k: usize, init_code: C, is_exhausted: E, play: M) -> OvcLoserTree
    where
        C: FnMut(usize) -> u64,
        E: FnMut(usize) -> bool,
        M: FnMut(usize, usize, u64, u64) -> OvcMatch,
    {
        let mut t = Self::empty();
        t.rebuild(k, init_code, is_exhausted, play);
        t
    }

    /// A tree with no inputs; call [`OvcLoserTree::rebuild`] before use.
    /// Lets callers that merge repeatedly (e.g. a steady-state sort
    /// pipeline) keep one tree and re-seed it without reallocating.
    pub fn empty() -> OvcLoserTree {
        OvcLoserTree {
            tree: Vec::new(),
            code: Vec::new(),
            round: Vec::new(),
            round_code: Vec::new(),
            winner: 0,
            winner_code: u64::MAX,
            cap: 1,
            k: 0,
        }
    }

    /// Re-seed the tree for `k` inputs with a full bottom-up tournament,
    /// reusing the existing buffers (no allocation once they have grown
    /// to `k.next_power_of_two()`).
    pub fn rebuild<C, E, M>(&mut self, k: usize, mut init_code: C, mut is_exhausted: E, mut play: M)
    where
        C: FnMut(usize) -> u64,
        E: FnMut(usize) -> bool,
        M: FnMut(usize, usize, u64, u64) -> OvcMatch,
    {
        assert!(k > 0, "loser tree needs at least one input");
        let cap = k.next_power_of_two();
        self.cap = cap;
        self.k = k;
        self.round.clear();
        self.round.resize(2 * cap, 0);
        self.round_code.clear();
        self.round_code.resize(2 * cap, u64::MAX);
        for (i, (slot, code)) in self.round[cap..]
            .iter_mut()
            .zip(self.round_code[cap..].iter_mut())
            .enumerate()
        {
            *slot = i;
            if i < k && !is_exhausted(i) {
                *code = init_code(i);
            }
        }
        self.tree.clear();
        self.tree.resize(cap, 0);
        self.code.clear();
        self.code.resize(cap, u64::MAX);
        for node in (1..cap).rev() {
            let (a, b) = (self.round[2 * node], self.round[2 * node + 1]);
            let (ca, cb) = (self.round_code[2 * node], self.round_code[2 * node + 1]);
            let (w, wc, l, lc) = Self::play_match(a, b, ca, cb, k, &mut is_exhausted, &mut play);
            self.round[node] = w;
            self.round_code[node] = wc;
            self.tree[node] = l;
            self.code[node] = lc;
        }
        // The root match's winner is the champion; with a single input
        // (cap == 1) no match was played and input 0 wins by default.
        // (For cap == 1 the champion's code slot is the leaf slot 1.)
        self.winner = self.round.get(1).copied().unwrap_or(0);
        self.winner_code = self.round_code.get(1).copied().unwrap_or(u64::MAX);
    }

    /// The input whose head is currently smallest.
    pub fn winner(&self) -> usize {
        self.winner
    }

    /// The winner's code (relative to whatever base its run carries —
    /// after an emission-driven [`OvcLoserTree::replay`], the previously
    /// emitted row).
    pub fn winner_code(&self) -> u64 {
        self.winner_code
    }

    /// Replay the path from input `leaf`'s position to the root after its
    /// head changed. `leaf_code` is the new head's code — when the old
    /// head was just emitted, the run's stored code for the new head is
    /// already relative to it, which is exactly the base every resident
    /// loser on this path was re-coded against when it lost to that
    /// emitted head... and transitively to the output prefix (the
    /// published OVC tree-of-losers invariant).
    pub fn replay<E, M>(&mut self, leaf: usize, leaf_code: u64, is_exhausted: &mut E, play: &mut M)
    where
        E: FnMut(usize) -> bool,
        M: FnMut(usize, usize, u64, u64) -> OvcMatch,
    {
        let mut contender = leaf;
        let mut ccode = leaf_code;
        let mut node = (self.cap + leaf) / 2;
        while node >= 1 {
            let resident = self.tree[node];
            let rcode = self.code[node];
            let (w, wc, l, lc) = Self::play_match(
                contender,
                resident,
                ccode,
                rcode,
                self.k,
                is_exhausted,
                play,
            );
            self.tree[node] = l;
            self.code[node] = lc;
            contender = w;
            ccode = wc;
            node /= 2;
        }
        self.winner = contender;
        self.winner_code = ccode;
    }

    /// Play one match: returns `(winner, winner_code, loser, loser_code)`.
    /// Exhausted or virtual inputs lose without `play` being consulted.
    fn play_match<E, M>(
        a: usize,
        b: usize,
        ca: u64,
        cb: u64,
        k: usize,
        is_exhausted: &mut E,
        play: &mut M,
    ) -> (usize, u64, usize, u64)
    where
        E: FnMut(usize) -> bool,
        M: FnMut(usize, usize, u64, u64) -> OvcMatch,
    {
        let a_done = a >= k || is_exhausted(a);
        let b_done = b >= k || is_exhausted(b);
        match (a_done, b_done) {
            (true, _) => (b, cb, a, u64::MAX),
            (false, true) => (a, ca, b, u64::MAX),
            (false, false) => {
                let m = play(a, b, ca, cb);
                if m.a_beats_b {
                    (a, ca, b, m.loser_code)
                } else {
                    (b, cb, a, m.loser_code)
                }
            }
        }
    }
}

/// Merge `k` sorted runs into one, stably (ties resolve toward
/// lower-indexed runs). Comparisons per output element: ⌈log₂ k⌉.
pub fn kway_merge<T, F>(runs: &[&[T]], is_less: &mut F) -> Vec<T>
where
    T: Clone,
    F: FnMut(&T, &T) -> bool,
{
    let k = runs.len();
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(total);
    if k == 0 {
        return out;
    }
    let mut pos = vec![0usize; k];
    let mut tree = {
        let pos_ref = &pos;
        LoserTree::new(
            k,
            |i| pos_ref[i] >= runs[i].len(),
            |a, b| is_less(&runs[a][pos_ref[a]], &runs[b][pos_ref[b]]),
        )
    };
    for _ in 0..total {
        let w = tree.winner();
        // lint:allow(R003): this clone is the merge's output emission —
        // one per emitted element, required for generic `T: Clone`.
        out.push(runs[w][pos[w]].clone());
        pos[w] += 1;
        let pos_ref = &pos;
        tree.replay(w, &mut |i| pos_ref[i] >= runs[i].len(), &mut |a, b| {
            is_less(&runs[a][pos_ref[a]], &runs[b][pos_ref[b]])
        });
    }
    out
}

/// Merge `k` sorted runs of fixed-width byte rows, stably.
pub fn kway_merge_rows<F>(runs: &[&[u8]], width: usize, is_less: &mut F) -> Vec<u8>
where
    F: FnMut(&[u8], &[u8]) -> bool,
{
    let k = runs.len();
    let total: usize = runs.iter().map(|r| r.len() / width).sum();
    let mut out = Vec::with_capacity(total * width);
    if k == 0 {
        return out;
    }
    let lens: Vec<usize> = runs.iter().map(|r| r.len() / width).collect();
    let mut pos = vec![0usize; k];
    let row = |i: usize, p: usize| &runs[i][p * width..(p + 1) * width];
    let mut tree = {
        let pos_ref = &pos;
        LoserTree::new(
            k,
            |i| pos_ref[i] >= lens[i],
            |a, b| is_less(row(a, pos_ref[a]), row(b, pos_ref[b])),
        )
    };
    for _ in 0..total {
        let w = tree.winner();
        out.extend_from_slice(row(w, pos[w]));
        pos[w] += 1;
        let pos_ref = &pos;
        tree.replay(w, &mut |i| pos_ref[i] >= lens[i], &mut |a, b| {
            is_less(row(a, pos_ref[a]), row(b, pos_ref[b]))
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_basic() {
        let a = vec![1u32, 4, 7];
        let b = vec![2u32, 5, 8];
        let c = vec![3u32, 6, 9];
        let out = kway_merge(&[&a, &b, &c], &mut |x, y| x < y);
        assert_eq!(out, (1..=9).collect::<Vec<u32>>());
    }

    #[test]
    fn merges_k1() {
        let a = vec![1u32, 2, 3];
        let out = kway_merge(&[&a], &mut |x, y| x < y);
        assert_eq!(out, a);
    }

    #[test]
    fn merges_empty_runs() {
        let a: Vec<u32> = vec![];
        let b = vec![1u32];
        let c: Vec<u32> = vec![];
        let out = kway_merge(&[&a, &b, &c], &mut |x, y| x < y);
        assert_eq!(out, vec![1]);
        let out: Vec<u32> = kway_merge::<u32, _>(&[], &mut |x, y| x < y);
        assert!(out.is_empty());
    }

    #[test]
    fn merges_unbalanced_lengths() {
        let a: Vec<u32> = (0..100).map(|i| i * 3).collect();
        let b: Vec<u32> = (0..7).map(|i| i * 50).collect();
        let c: Vec<u32> = vec![500];
        let mut expected: Vec<u32> = a.iter().chain(&b).chain(&c).copied().collect();
        expected.sort_unstable();
        let out = kway_merge(&[&a, &b, &c], &mut |x, y| x < y);
        assert_eq!(out, expected);
    }

    #[test]
    fn stability_toward_lower_run() {
        let a = vec![(5u32, 'a')];
        let b = vec![(5u32, 'b')];
        let out = kway_merge(&[&a, &b], &mut |x, y| x.0 < y.0);
        assert_eq!(out, vec![(5, 'a'), (5, 'b')]);
        let out = kway_merge(&[&b, &a], &mut |x, y| x.0 < y.0);
        assert_eq!(out, vec![(5, 'b'), (5, 'a')]);
    }

    #[test]
    fn merges_many_runs_non_power_of_two() {
        for k in [2usize, 3, 5, 7, 13, 16, 17] {
            let runs: Vec<Vec<u32>> = (0..k)
                .map(|r| (0..40).map(|i| (i * k + r) as u32).collect())
                .collect();
            let refs: Vec<&[u32]> = runs.iter().map(|r| r.as_slice()).collect();
            let out = kway_merge(&refs, &mut |x, y| x < y);
            assert_eq!(out, (0..40 * k as u32).collect::<Vec<u32>>(), "k={k}");
        }
    }

    #[test]
    fn merge_of_random_runs_matches_sort() {
        let mut state = 5u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32 % 1000
        };
        let runs: Vec<Vec<u32>> = (0..9)
            .map(|i| {
                let mut r: Vec<u32> = (0..(i * 13 + 1)).map(|_| next()).collect();
                r.sort_unstable();
                r
            })
            .collect();
        let refs: Vec<&[u32]> = runs.iter().map(|r| r.as_slice()).collect();
        let out = kway_merge(&refs, &mut |x, y| x < y);
        let mut expected: Vec<u32> = runs.iter().flatten().copied().collect();
        expected.sort_unstable();
        assert_eq!(out, expected);
    }

    /// Merge u32 runs through [`OvcLoserTree`] with a one-word OVC: the
    /// code of key `x` relative to base `b` is 0 if `x == b`, else
    /// `(1 << 32) | x`. Asserts the published tree invariant as it goes:
    /// every nonzero code handed to a match must carry its key's word
    /// (a stale code would be caught immediately), and equal same-base
    /// codes must mean equal keys.
    fn ovc_merge_u32(runs: &[Vec<u32>]) -> Vec<(u32, usize)> {
        let k = runs.len();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let code_of = |key: u32| -> u64 { (1 << 32) | u64::from(key) };
        let mut pos = vec![0usize; k];
        let play = |a: usize, b: usize, ca: u64, cb: u64, pos: &[usize]| -> OvcMatch {
            let (ka, kb) = (runs[a][pos[a]], runs[b][pos[b]]);
            if ca != 0 {
                assert_eq!(ca, code_of(ka), "stale code on input {a}");
            }
            if cb != 0 {
                assert_eq!(cb, code_of(kb), "stale code on input {b}");
            }
            if ca != cb {
                OvcMatch {
                    a_beats_b: ca < cb,
                    loser_code: ca.max(cb),
                }
            } else {
                assert_eq!(ka, kb, "equal same-base codes must mean equal keys");
                OvcMatch {
                    a_beats_b: a < b, // stability: lower run index wins ties
                    loser_code: 0,
                }
            }
        };
        let mut tree = {
            let pos_ref = &pos;
            OvcLoserTree::new(
                k,
                |i| code_of(runs[i][pos_ref[i]]),
                |i| pos_ref[i] >= runs[i].len(),
                |a, b, ca, cb| play(a, b, ca, cb, pos_ref),
            )
        };
        let mut out = Vec::with_capacity(total);
        for _ in 0..total {
            let w = tree.winner();
            let emitted = runs[w][pos[w]];
            assert!(
                tree.winner_code() == 0 || tree.winner_code() == code_of(emitted),
                "winner's code does not match its key"
            );
            out.push((emitted, w));
            pos[w] += 1;
            // The successor's code relative to the just-emitted row — what
            // a run file's stored OVC column provides for free.
            let leaf_code = match runs[w].get(pos[w]) {
                Some(&next) if next == emitted => 0,
                Some(&next) => code_of(next),
                None => u64::MAX,
            };
            let pos_ref = &pos;
            tree.replay(
                w,
                leaf_code,
                &mut |i| pos_ref[i] >= runs[i].len(),
                &mut |a, b, ca, cb| play(a, b, ca, cb, pos_ref),
            );
        }
        out
    }

    /// Expected stable k-way merge: concatenate runs in index order and
    /// stable-sort by key (ties end up in run-then-position order).
    fn stable_reference(runs: &[Vec<u32>]) -> Vec<(u32, usize)> {
        let mut all: Vec<(u32, usize)> = runs
            .iter()
            .enumerate()
            .flat_map(|(r, run)| run.iter().map(move |&v| (v, r)))
            .collect();
        all.sort_by_key(|&(v, _)| v);
        all
    }

    #[test]
    fn ovc_tree_matches_stable_merge() {
        let mut state = 77u64;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32 % m
        };
        for k in [1usize, 2, 3, 5, 8, 13] {
            // Heavy ties (mod 7) exercise the equal-key / code-0 paths;
            // wide range exercises pure code decisions.
            for m in [7u32, 1_000_000] {
                let runs: Vec<Vec<u32>> = (0..k)
                    .map(|r| {
                        let mut run: Vec<u32> = (0..(r * 17 + 5)).map(|_| next(m)).collect();
                        run.sort_unstable();
                        run
                    })
                    .collect();
                assert_eq!(ovc_merge_u32(&runs), stable_reference(&runs), "k={k} m={m}");
            }
        }
    }

    #[test]
    fn ovc_tree_handles_empty_and_unbalanced_runs() {
        let runs = vec![
            vec![],
            vec![5u32, 5, 5],
            vec![],
            vec![1, 5, 9, 9, 9, 9],
            vec![5],
        ];
        assert_eq!(ovc_merge_u32(&runs), stable_reference(&runs));
    }

    #[test]
    fn ovc_tree_all_equal_keys_stay_stable() {
        let runs = vec![vec![3u32; 4], vec![3u32; 2], vec![3u32; 3]];
        let got = ovc_merge_u32(&runs);
        let orders: Vec<usize> = got.iter().map(|&(_, r)| r).collect();
        assert_eq!(orders, vec![0, 0, 0, 0, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn rows_kway_merge() {
        let mk = |keys: &[u8]| -> Vec<u8> { keys.iter().flat_map(|&k| [k, k ^ 0xFF]).collect() };
        let a = mk(&[1, 5, 9]);
        let b = mk(&[2, 6]);
        let c = mk(&[3, 4, 7, 8]);
        let out = kway_merge_rows(&[&a, &b, &c], 2, &mut |x, y| x[0] < y[0]);
        let keys: Vec<u8> = out.chunks(2).map(|r| r[0]).collect();
        assert_eq!(keys, (1..=9).collect::<Vec<u8>>());
        for r in out.chunks(2) {
            assert_eq!(r[1], r[0] ^ 0xFF, "payload stayed attached");
        }
    }
}
