//! K-way merge with a loser tree — the merge structure used by the
//! ClickHouse- and HyPer-style system profiles (paper §VII).
//!
//! A loser tree performs ⌈log₂ k⌉ comparisons per output element, matching
//! the `n·log(k)` merge-phase comparison count the paper's §II analysis
//! assumes.

/// A tournament (loser) tree over `k` input cursors, compared by a plain
/// `less` — [`OvcLoserTree`] with every live head coded `0`, so each
/// match between two live heads is a code tie for `leaf_less` to decide.
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
    pub fn new<E, L>(k: usize, mut is_exhausted: E, mut leaf_less: L) -> LoserTree
    where
        E: FnMut(usize) -> bool,
        L: FnMut(usize, usize) -> bool,
    {
        LoserTree(OvcLoserTree::new(
            k,
            |i| Self::code(is_exhausted(i)),
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
        let code = Self::code(is_exhausted(leaf));
        self.0
            .replay(leaf, code, &mut |a, b, _, _| Self::uncoded(a, b, leaf_less));
    }

    /// A head's code: the fence once its input is exhausted, else `0`.
    fn code(exhausted: bool) -> u64 {
        if exhausted {
            OvcLoserTree::FENCE
        } else {
            0
        }
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
/// Inputs are padded to a power of two with virtual leaves. A winner
/// ascends with its code unchanged (it keeps winning against keys it was
/// already coded against), so each replayed match sees two codes with a
/// common base.
///
/// The tree decides every match on those two codes. Unequal codes decide
/// it outright: the smaller wins, and the loser keeps its own code, the
/// larger, which is already relative to the winner. Only a code tie is
/// handed to the `play` callback. An exhausted or virtual input carries
/// the fence code [`OvcLoserTree::FENCE`], which no live head's code
/// reaches, so a fence loses every match to a live head on the code
/// compare alone and two fences tie without a decision: `play` only
/// ever sees two live heads.
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
}

impl Default for OvcLoserTree {
    fn default() -> Self {
        OvcLoserTree::empty()
    }
}

impl OvcLoserTree {
    /// The code of an exhausted or virtual input: `u64::MAX`, so every
    /// other value is a live head's code and the fence loses every match
    /// it plays against one.
    pub const FENCE: u64 = u64::MAX;

    /// Build the tree with a full bottom-up tournament.
    ///
    /// `leaf_code(i)` is the starting code of input `i < k`'s head, or
    /// [`OvcLoserTree::FENCE`] if the input is empty. All live heads must
    /// be coded against one common base (the usual choice: offset 0
    /// relative to a virtual −∞ key, which is what run-file head codes
    /// already are). `play(a, b, ca, cb)` decides a match between two live
    /// heads whose same-base codes tie (`ca == cb`).
    pub fn new<C, M>(k: usize, leaf_code: C, play: M) -> OvcLoserTree
    where
        C: FnMut(usize) -> u64,
        M: FnMut(usize, usize, u64, u64) -> OvcMatch,
    {
        let mut t = Self::empty();
        t.rebuild(k, leaf_code, play);
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
            winner_code: Self::FENCE,
            cap: 1,
        }
    }

    /// Re-seed the tree for `k` inputs with a full bottom-up tournament,
    /// reusing the existing buffers (no allocation once they have grown
    /// to `k.next_power_of_two()`). Arguments as for
    /// [`OvcLoserTree::new`]; returns how many matches between two live
    /// heads the codes decided without `play`.
    pub fn rebuild<C, M>(&mut self, k: usize, mut leaf_code: C, mut play: M) -> u64
    where
        C: FnMut(usize) -> u64,
        M: FnMut(usize, usize, u64, u64) -> OvcMatch,
    {
        assert!(k > 0, "loser tree needs at least one input");
        let cap = k.next_power_of_two();
        self.cap = cap;
        self.round.clear();
        self.round.resize(2 * cap, 0);
        self.round_code.clear();
        self.round_code.resize(2 * cap, Self::FENCE);
        for (i, (slot, code)) in self.round[cap..]
            .iter_mut()
            .zip(self.round_code[cap..].iter_mut())
            .enumerate()
        {
            *slot = i;
            if i < k {
                *code = leaf_code(i);
            }
        }
        self.tree.clear();
        self.tree.resize(cap, 0);
        self.code.clear();
        self.code.resize(cap, Self::FENCE);
        let mut decided = 0;
        for node in (1..cap).rev() {
            let (a, b) = (self.round[2 * node], self.round[2 * node + 1]);
            let (ca, cb) = (self.round_code[2 * node], self.round_code[2 * node + 1]);
            let (w, l, lc) = Self::decide(a, b, ca, cb, &mut play, &mut decided);
            self.round[node] = w;
            self.round_code[node] = ca.min(cb);
            self.tree[node] = l;
            self.code[node] = lc;
        }
        // The root match's winner is the champion; with a single input
        // (cap == 1) no match was played and input 0 wins by default.
        // (For cap == 1 the champion's code slot is the leaf slot 1.)
        self.winner = self.round.get(1).copied().unwrap_or(0);
        self.winner_code = self.round_code.get(1).copied().unwrap_or(Self::FENCE);
        decided
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
    /// head changed. `leaf_code` is the new head's code, or
    /// [`OvcLoserTree::FENCE`] once the input is exhausted — when the old
    /// head was just emitted, the run's stored code for the new head is
    /// already relative to it, which is exactly the base every resident
    /// loser on this path was re-coded against when it lost to that
    /// emitted head... and transitively to the output prefix (the
    /// published OVC tree-of-losers invariant). Returns how many matches
    /// between two live heads the codes decided without `play`.
    pub fn replay<M>(&mut self, leaf: usize, leaf_code: u64, play: &mut M) -> u64
    where
        M: FnMut(usize, usize, u64, u64) -> OvcMatch,
    {
        let mut contender = leaf;
        let mut ccode = leaf_code;
        let mut decided = 0;
        let mut node = (self.cap + leaf) / 2;
        while node >= 1 {
            let rcode = self.code[node];
            let (w, l, lc) =
                Self::decide(contender, self.tree[node], ccode, rcode, play, &mut decided);
            self.tree[node] = l;
            self.code[node] = lc;
            contender = w;
            ccode = ccode.min(rcode);
            node /= 2;
        }
        self.winner = contender;
        self.winner_code = ccode;
        decided
    }

    /// One match between inputs `a` and `b` holding codes `ca` and `cb`:
    /// `(winner, loser, loser_code)`. The winner keeps its code,
    /// `min(ca, cb)`. Unequal codes decide the match — counted in
    /// `decided` unless the loser is a fence — and equal ones are `play`'s
    /// to decide, except two fences (`b` "wins"; nothing depends on
    /// which). The winner is picked with a conditional move, not a
    /// branch: on random keys which side wins is a coin flip.
    #[inline]
    fn decide<M>(
        a: usize,
        b: usize,
        ca: u64,
        cb: u64,
        play: &mut M,
        decided: &mut u64,
    ) -> (usize, usize, u64)
    where
        M: FnMut(usize, usize, u64, u64) -> OvcMatch,
    {
        let mut a_wins = ca < cb;
        let mut loser_code = ca.max(cb);
        *decided += u64::from((ca != cb) & (loser_code != Self::FENCE));
        if ca == cb && ca != Self::FENCE {
            let m = play(a, b, ca, cb);
            a_wins = m.a_beats_b;
            loser_code = m.loser_code;
        }
        let winner = std::hint::select_unpredictable(a_wins, a, b);
        (winner, a ^ b ^ winner, loser_code)
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

    /// What one merge through [`OvcLoserTree`] did: the merged `(key,
    /// run)` pairs, the `play` calls, and the matches between two live
    /// heads that the codes decided without one.
    struct Merged {
        out: Vec<(u32, usize)>,
        plays: u64,
        decided: u64,
    }

    /// Merge u32 runs through [`OvcLoserTree`]. `coded`: with a one-word
    /// OVC — the code of key `x` relative to base `b` is 0 if `x == b`,
    /// else `(1 << 32) | x`; otherwise every live head is coded 0 (what
    /// the parent tree did: `play` on every match of two live heads).
    /// Asserts the tree's contract as it goes: `play` sees two live heads
    /// with tied codes and never a fence, every nonzero code handed to it
    /// carries its key's word (a stale code would be caught at once), and
    /// once every run is exhausted a fenced replay plays nothing.
    fn ovc_merge_u32(runs: &[Vec<u32>], coded: bool) -> Merged {
        const FENCE: u64 = OvcLoserTree::FENCE;
        let k = runs.len();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let code_of = |key: u32| -> u64 { (1 << 32) | u64::from(key) };
        let head_code = |run: usize, at: usize, base: Option<u32>| match runs[run].get(at) {
            None => FENCE,
            Some(_) if !coded => 0,
            Some(&next) if Some(next) == base => 0,
            Some(&next) => code_of(next),
        };
        let plays = std::cell::Cell::new(0u64);
        let play = |a: usize, b: usize, ca: u64, cb: u64, pos: &[usize]| -> OvcMatch {
            plays.set(plays.get() + 1);
            assert!(ca != FENCE && cb != FENCE, "play saw a fence: {a} vs {b}");
            let (Some(&ka), Some(&kb)) = (runs[a].get(pos[a]), runs[b].get(pos[b])) else {
                panic!("play saw an exhausted input: {a} vs {b}");
            };
            assert_eq!(ca, cb, "the tree decides unequal codes itself");
            if ca != 0 {
                assert_eq!(ca, code_of(ka), "stale code on input {a}");
            }
            if coded {
                assert_eq!(ka, kb, "equal same-base codes must mean equal keys");
            }
            // Stability: the lower run wins a tie. The loser's code
            // relative to an equal winner is 0, and it stays 0 uncoded.
            OvcMatch {
                a_beats_b: ka < kb || (ka == kb && a < b),
                loser_code: 0,
            }
        };
        let mut pos = vec![0usize; k];
        let (mut tree, mut decided) = {
            let pos_ref = &pos;
            let mut tree = OvcLoserTree::empty();
            let decided = tree.rebuild(
                k,
                |i| head_code(i, 0, None),
                |a, b, ca, cb| play(a, b, ca, cb, pos_ref),
            );
            (tree, decided)
        };
        let mut out = Vec::with_capacity(total);
        for _ in 0..total {
            let w = tree.winner();
            let emitted = runs[w][pos[w]];
            if coded {
                assert!(
                    tree.winner_code() == 0 || tree.winner_code() == code_of(emitted),
                    "winner's code does not match its key"
                );
            }
            out.push((emitted, w));
            pos[w] += 1;
            // The successor's code relative to the just-emitted row — what
            // a run file's stored OVC column provides for free.
            let leaf_code = head_code(w, pos[w], Some(emitted));
            let pos_ref = &pos;
            decided += tree.replay(w, leaf_code, &mut |a, b, ca, cb| {
                play(a, b, ca, cb, pos_ref)
            });
        }
        // Every input is a fence now: replaying any of them into the
        // all-fence tree decides nothing and consults nobody.
        let before = plays.get();
        for leaf in 0..k {
            let pos_ref = &pos;
            let fenced = tree.replay(leaf, FENCE, &mut |a, b, ca, cb| play(a, b, ca, cb, pos_ref));
            assert_eq!(fenced, 0, "a fence match counted as decided");
            assert_eq!(tree.winner_code(), FENCE);
        }
        assert_eq!(plays.get(), before, "play consulted on fences");
        Merged {
            out,
            plays: plays.get(),
            decided,
        }
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

    /// Merge `runs` coded and uncoded; both equal the stable merge, and
    /// the coded tree's code decisions plus its `play` calls are exactly
    /// the uncoded tree's `play` calls: the same matches, each counted
    /// once. Returns the coded merge.
    fn assert_same_matches(runs: &[Vec<u32>], what: &str) -> Merged {
        let coded = ovc_merge_u32(runs, true);
        let plain = ovc_merge_u32(runs, false);
        let expected = stable_reference(runs);
        assert_eq!(coded.out, expected, "{what}: coded");
        assert_eq!(plain.out, expected, "{what}: uncoded");
        assert_eq!(plain.decided, 0, "{what}: code-0 heads decided a match");
        assert_eq!(
            coded.decided + coded.plays,
            plain.plays,
            "{what}: fast path + play != matches of two live heads"
        );
        coded
    }

    /// Fan-ins the tree tests cover: one leaf, powers of two, and odd
    /// counts with virtual leaves.
    const FAN_INS: [usize; 7] = [1, 2, 3, 5, 8, 13, 17];

    #[test]
    fn ovc_tree_matches_stable_merge() {
        let mut state = 77u64;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32 % m
        };
        for k in FAN_INS {
            // All keys equal; heavy ties (mod 7) exercise the equal-key /
            // code-0 paths; a wide range exercises pure code decisions.
            for m in [1u32, 7, 1_000_000] {
                let runs: Vec<Vec<u32>> = (0..k)
                    .map(|r| {
                        let mut run: Vec<u32> = (0..(r * 17 + 5)).map(|_| next(m)).collect();
                        run.sort_unstable();
                        run
                    })
                    .collect();
                let coded = assert_same_matches(&runs, &format!("k={k} m={m}"));
                if k > 1 && m > 1 {
                    assert!(coded.decided > 0, "k={k} m={m}: no match decided on codes");
                }
                if m == 1 {
                    assert_eq!(coded.decided, 0, "k={k}: equal keys decided on codes");
                }
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
        let coded = assert_same_matches(&runs, "fixed");
        // The tree before fences sent this merge's matches of two live
        // heads to `play`: 10 of them.
        assert_eq!(coded.decided + coded.plays, 10);
        for k in FAN_INS {
            // Runs that empty at different times (some never hold a row),
            // over interleaved, disjoint and all-equal keys.
            let lens = |r: usize| (r * 7 + 3) % 11;
            let interleaved: Vec<Vec<u32>> = (0..k)
                .map(|r| (0..lens(r)).map(|i| (i * k + r) as u32).collect())
                .collect();
            let disjoint: Vec<Vec<u32>> = (0..k)
                .map(|r| (0..lens(r)).map(|i| (r * 100 + i) as u32).collect())
                .collect();
            let equal: Vec<Vec<u32>> = (0..k).map(|r| vec![42; lens(r)]).collect();
            // One long run against single rows.
            let lopsided: Vec<Vec<u32>> = (0..k)
                .map(|r| match r {
                    0 => (0..200).map(|i| i * 2).collect(),
                    r => vec![(r * 37) as u32 | 1],
                })
                .collect();
            for (name, runs) in [
                ("interleaved", interleaved),
                ("disjoint", disjoint),
                ("equal", equal),
                ("lopsided", lopsided),
            ] {
                assert_same_matches(&runs, &format!("{name} k={k}"));
            }
        }
    }

    #[test]
    fn only_u64_max_is_a_fence() {
        // Two live heads coded one below the fence: they tie, so `play`
        // decides, and either beats an exhausted third input.
        let plays = std::cell::Cell::new(0);
        let mut play = |a: usize, b: usize, ca: u64, cb: u64| {
            plays.set(plays.get() + 1);
            assert!(a < 2 && b < 2 && ca == u64::MAX - 1 && cb == ca);
            OvcMatch {
                a_beats_b: a > b,
                loser_code: ca,
            }
        };
        let codes = [u64::MAX - 1, u64::MAX - 1, u64::MAX];
        let mut tree = OvcLoserTree::empty();
        assert_eq!(tree.rebuild(3, |i| codes[i], &mut play), 0);
        assert_eq!((tree.winner(), plays.get()), (1, 1));
        // Input 1 runs out: input 0 beats the fences on codes alone, and
        // a match against a fence counts as decided on codes no more
        // than it counted as a `play` before.
        assert_eq!(tree.replay(1, u64::MAX, &mut play), 0);
        assert_eq!((tree.winner(), tree.winner_code()), (0, u64::MAX - 1));
        assert_eq!(plays.get(), 1);
    }

    #[test]
    fn ovc_tree_all_equal_keys_stay_stable() {
        let runs = vec![vec![3u32; 4], vec![3u32; 2], vec![3u32; 3]];
        let got = assert_same_matches(&runs, "all equal");
        let orders: Vec<usize> = got.out.iter().map(|&(_, r)| r).collect();
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
