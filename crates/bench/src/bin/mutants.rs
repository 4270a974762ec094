//! The seeded-bug corpus: every bug the sorter's tests are judged
//! against, checked in, and the runner that seeds them.
//!
//! ```text
//! mutants [--anchors] [<filter>…]
//! ```
//!
//! [`CORPUS`] holds one entry per bug: the file it lives in, an anchor
//! snippet that occurs in that file exactly once, the text that replaces
//! it, and the targets to run: a package, then `cargo test` arguments;
//! `clippy <package>` (`cargo clippy -p <package> --all-targets -- -D
//! warnings`, each lint that fires a catch); or `lint` (the worktree's
//! `rowsort-lint`, each rule that finds something a catch). The runner
//! checks out HEAD — plus the working tree's
//! changes to tracked files, so a change is judged before it is
//! committed — into a scratch `git worktree` under `target/mutants/`,
//! holds the unmutated tree to every target, then applies each entry
//! alone, runs its targets under a timeout ([`TIMEOUT_SECS`]) and
//! records every test that fails. It prints the entry × catching-tests
//! table, then each test with the entries it catches, marking the entries
//! no other test catches: those tests are load-bearing. Every entry builds into one target dir,
//! `target/mutants/target`; the worktree is removed on exit.
//!
//! `--anchors` checks only that every anchor occurs exactly once in the
//! checkout; it builds nothing. A filter keeps the entries whose name or
//! file contains it (`mutants crates/row/ crates/normkey/` runs the bugs
//! of two crates).
//!
//! Exit status: 0 when every entry is caught; 1 when one survives, an
//! anchor is missing or ambiguous, a mutant does not build, or the
//! unmutated tree fails a target; 2 on a usage or I/O error.

use rowsort_testkit::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The workspace root, wherever the runner is started from.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// How long one target's tests may run under a mutant: the slowest
/// target, the oracle, takes about 35 s in a debug build, and a mutant
/// that makes a test hang (a lost wake-up, a merge that never ends) is a
/// catch, not a stall.
const TIMEOUT_SECS: u64 = 300;

/// One seeded bug.
struct Mutant {
    /// What the bug is: the table's row.
    name: &'static str,
    /// Path from the workspace root.
    file: &'static str,
    /// Text that occurs in `file` exactly once.
    anchor: &'static str,
    /// What the anchor becomes.
    replacement: &'static str,
    /// `cargo test` runs (a package, then its arguments), `clippy
    /// <package>` runs or [`LINT`].
    targets: &'static [&'static str],
}

const CORE: &str = "rowsort-core --lib";
const MOVES: &str = "rowsort-core --test merge_moves_once";
const ORACLE: &str = "rowsort-bench --test oracle";
const NORMKEY: &str = "rowsort-normkey --lib --tests";
const ROW: &str = "rowsort-row --lib --tests";
const ALGOS: &str = "rowsort-algos --lib --tests";
const ENGINE: &str = "rowsort-engine --test engine_vs_reference";
const ZERO_ALLOC: &str = "rowsort-core --test zero_alloc";
const LINT: &str = "lint";
const CLIPPY_CORE: &str = "clippy rowsort-core";
const CLIPPY_ALGOS: &str = "clippy rowsort-algos";
const CLIPPY_NORMKEY: &str = "clippy rowsort-normkey";
const CLIPPY_ROW: &str = "clippy rowsort-row";

const NORMKEY_BUG: &[&str] = &[NORMKEY, CORE, ORACLE];
const ROW_BUG: &[&str] = &[ROW, CORE, ORACLE];
const KERNEL_BUG: &[&str] = &[ALGOS, CORE, MOVES, ORACLE];
const CORE_BUG: &[&str] = &[CORE, ORACLE];
const MERGE_BUG: &[&str] = &[CORE, MOVES, ORACLE];

/// The corpus. A change that moves seeded code re-seeds its entry; a
/// change that fears a new bug appends it.
const CORPUS: &[Mutant] = &[
    // ---- rowsort-normkey ----------------------------------------------
    Mutant {
        name: "the key goes on past the first truncated VARCHAR (the PR 10 mis-sort)",
        file: "crates/normkey/src/layout.rs",
        anchor: "columns.truncate(first_truncatable + 1);",
        replacement: "let _ = first_truncatable;",
        targets: NORMKEY_BUG,
    },
    Mutant {
        name: "continuation_marker returns 0",
        file: "crates/normkey/src/encoding.rs",
        anchor: "u8::try_from(len.min(prefix_len + 1)).unwrap_or(u8::MAX)",
        replacement: "u8::try_from(len.min(prefix_len + 1)).map_or(0, |_| 0)",
        targets: NORMKEY_BUG,
    },
    Mutant {
        name: "truncatable judged against 12 bytes, not the chosen prefix",
        file: "crates/normkey/src/layout.rs",
        anchor: "truncatable: max_len_stat > prefix_len,",
        replacement: "truncatable: max_len_stat > 12,",
        targets: NORMKEY_BUG,
    },
    Mutant {
        name: "a NULLS LAST range code equals the highest valid code",
        file: "crates/normkey/src/layout.rs",
        anchor: "null: if nulls_first { 0 } else { valid_codes },",
        replacement: "null: if nulls_first { 0 } else { valid_codes.saturating_sub(1) },",
        targets: NORMKEY_BUG,
    },
    Mutant {
        name: "DESC range and rank codes not flipped",
        file: "crates/normkey/src/layout.rs",
        anchor: "flip: if desc { u64::MAX } else { 0 },",
        replacement: "flip: 0,",
        targets: NORMKEY_BUG,
    },
    Mutant {
        name: "a range's code count wraps instead of falling back to plain",
        file: "crates/normkey/src/layout.rs",
        anchor: "(self.hi - self.lo).checked_add(1)?",
        replacement: "(self.hi - self.lo).wrapping_add(1)",
        targets: NORMKEY_BUG,
    },
    Mutant {
        name: "a DESC column decoded without its inversion",
        file: "crates/normkey/src/decode.rs",
        anchor: "let ord = be_u64(body) ^ flip;",
        replacement: "let ord = be_u64(body);",
        targets: NORMKEY_BUG,
    },
    Mutant {
        name: "a NULL-in-band code decoded as a value (`lo`, NULLS FIRST)",
        file: "crates/normkey/src/decode.rs",
        anchor: "let valid = !nulls || code != coder.null;",
        replacement: "let valid = true;",
        targets: NORMKEY_BUG,
    },
    Mutant {
        name: "INT16 ordinals without the sign flip",
        file: "crates/normkey/src/encoding.rs",
        anchor: "i16 => 0x8000,",
        replacement: "i16 => 0x0000,",
        targets: NORMKEY_BUG,
    },
    // ---- rowsort-row ----------------------------------------------------
    Mutant {
        name: "reorder_heap leaves the slot offset unrewritten (PR 39)",
        file: "crates/row/src/block.rs",
        anchor: "row[slot..slot + 4].copy_from_slice(&heap_base(at).to_le_bytes());",
        replacement: "",
        targets: ROW_BUG,
    },
    Mutant {
        name: "reorder_heap advances its cursor on a NULL row",
        file: "crates/row/src/block.rs",
        anchor: r#"            if row[null] != 0 {
                continue;"#,
        replacement: r#"            if row[null] != 0 {
                at += 1;
                continue;"#,
        targets: ROW_BUG,
    },
    Mutant {
        name: "the scatter writes a NULL row's value bytes",
        file: "crates/row/src/block.rs",
        anchor: r#"                if valid {
                    row[slot..slot + W]"#,
        replacement: r#"                if true {
                    row[slot..slot + W]"#,
        targets: ROW_BUG,
    },
    // ---- rowsort-algos ----------------------------------------------------
    Mutant {
        name: "the loser keeps min(ca, cb)",
        file: "crates/algos/src/kway.rs",
        anchor: "let mut loser_code = ca.max(cb);",
        replacement: "let mut loser_code = ca.min(cb);",
        targets: KERNEL_BUG,
    },
    Mutant {
        name: "the loser tree's select inverted",
        file: "crates/algos/src/kway.rs",
        anchor: "select_unpredictable(a_wins, a, b)",
        replacement: "select_unpredictable(a_wins, b, a)",
        targets: KERNEL_BUG,
    },
    Mutant {
        name: "replay's winner keeps max(ccode, rcode)",
        file: "crates/algos/src/kway.rs",
        anchor: "ccode = ccode.min(rcode);",
        replacement: "ccode = ccode.max(rcode);",
        targets: KERNEL_BUG,
    },
    Mutant {
        name: "FENCE = u64::MAX - 1",
        file: "crates/algos/src/kway.rs",
        anchor: "pub const FENCE: u64 = u64::MAX;",
        replacement: "pub const FENCE: u64 = u64::MAX - 1;",
        targets: KERNEL_BUG,
    },
    Mutant {
        name: "copy_row takes its second 8-byte word at n - 9",
        file: "crates/algos/src/rows.rs",
        anchor: "let (a, b) = (word::<8>(src, 0), word::<8>(src, n - 8));",
        replacement: "let (a, b) = (word::<8>(src, 0), word::<8>(src, n.saturating_sub(9)));",
        targets: KERNEL_BUG,
    },
    Mutant {
        name: "RowsMut::row without its debug_assert",
        file: "crates/algos/src/rows.rs",
        anchor: r#"    pub fn row(&self, i: usize) -> &[u8] {
        debug_assert!(i < self.len, "row {i} out of bounds ({})", self.len);"#,
        replacement: "    pub fn row(&self, i: usize) -> &[u8] {",
        targets: KERNEL_BUG,
    },
    // ---- rowsort-core: keys and run generation ------------------------------
    Mutant {
        name: "tied ranges without the row-id tie-break",
        file: "crates/core/src/keys.rs",
        anchor: "resolve(ra, rb).then(ra.cmp(&rb)) == Ordering::Less",
        replacement: "resolve(ra, rb) == Ordering::Less",
        targets: CORE_BUG,
    },
    Mutant {
        name: "the tied-range scan stops one entry early",
        file: "crates/core/src/keys.rs",
        anchor: "while hi < self.len && self.key(hi) == self.key(lo) {",
        replacement: "while hi + 1 < self.len && self.key(hi) == self.key(lo) {",
        targets: CORE_BUG,
    },
    Mutant {
        name: "KeyBlock::row_id read at key_width - 1",
        file: "crates/core/src/keys.rs",
        anchor: "let off = i * s + self.key_width();",
        replacement: "let off = (i * s + self.key_width()).saturating_sub(1);",
        targets: CORE_BUG,
    },
    Mutant {
        name: "dictionary ranks in first-seen order, not string order",
        file: "crates/core/src/dict.rs",
        anchor: "self.order.sort_unstable_by_key(|&id| keys[usize::from(id)]);",
        replacement: "",
        targets: CORE_BUG,
    },
    Mutant {
        name: "ROWSORT_THREADS=0 is taken as zero threads",
        file: "crates/core/src/pipeline.rs",
        anchor: "return n.max(1);",
        replacement: "return n;",
        targets: CORE_BUG,
    },
    Mutant {
        name: "a rank decoded through another sort's dictionary: the sorter's own \
               statistics, not the table's the sort planned from",
        file: "crates/core/src/sorter.rs",
        anchor: "rows: table.rank_rows(c),",
        replacement: "rows: plan.table(None).rank_rows(c),",
        targets: &[CORE, ENGINE, ORACLE],
    },
    Mutant {
        name: "a tie comparator that still reads the columns that left the row",
        file: "crates/core/src/run.rs",
        anchor: "let tie_cmp = FusedRowComparator::new(&layout, &OrderBy::new(ties.collect()));",
        replacement: "let tie_cmp = FusedRowComparator::new(&RowLayout::new(types), order);",
        targets: &[CORE, MOVES, ORACLE],
    },
    // ---- rowsort-core: merge codes and the kernel -------------------------
    Mutant {
        name: "a short-code mask that drops the key's last byte (the mask one byte too wide, \
               re-seeded where the coder serves 8-byte keys alone)",
        file: "crates/core/src/ovc.rs",
        anchor: "let key = key_window(keys, i * SHORT_KEY_BYTES);",
        replacement: "let key = key_window(keys, i * SHORT_KEY_BYTES) & key_mask(SHORT_KEY_BYTES - 1);",
        targets: MERGE_BUG,
    },
    Mutant {
        name: "the key-code mask one byte too wide",
        file: "crates/core/src/merge.rs",
        anchor: "let mask = ovc::key_mask(order.kw);",
        replacement: "let mask = ovc::key_mask(order.kw + 1);",
        targets: MERGE_BUG,
    },
    Mutant {
        name: "8-byte keys admitted as key codes",
        file: "crates/core/src/ovc.rs",
        anchor: "pub const KEY_CODE_BYTES: usize = 7;",
        replacement: "pub const KEY_CODE_BYTES: usize = 8;",
        targets: MERGE_BUG,
    },
    Mutant {
        name: "a key-code tie re-coded by compare_update (PR 40)",
        file: "crates/core/src/merge.rs",
        anchor: "(Ordering::Equal, ca)",
        replacement: "(Ordering::Equal, ovc::compare_update(a.key(), ca, b.key(), cb, \
                      ovc::word_count(self.kw)).loser_code)",
        targets: MERGE_BUG,
    },
    Mutant {
        name: "the uncoded merge skips the tie comparator",
        file: "crates/core/src/merge.rs",
        anchor: "Ordering::Equal if self.tie_possible => {",
        replacement: "Ordering::Equal if self.tie_possible && CODES == MergeCodes::Ovc as u8 => {",
        targets: MERGE_BUG,
    },
    Mutant {
        name: "matches decided on codes not counted as compares",
        file: "crates/core/src/merge.rs",
        anchor: "stats.cmps += decided;",
        replacement: "",
        targets: MERGE_BUG,
    },
    // ---- rowsort-core: run files and the spill phase ----------------------
    Mutant {
        name: "RunCursor::advance without its seg_at > self.end bound",
        file: "crates/core/src/external.rs",
        anchor: "if seg_at > self.end {",
        replacement: "if seg_at > usize::MAX - 1 {",
        targets: CORE_BUG,
    },
    Mutant {
        name: "RunCursor::advance without its segment-length bound",
        file: "crates/core/src/external.rs",
        anchor: "if next > self.end {",
        replacement: "if next > usize::MAX - 1 {",
        targets: CORE_BUG,
    },
    Mutant {
        name: "RunCursor::advance without its VARCHAR slot check",
        file: "crates/core/src/external.rs",
        anchor: "if off.saturating_add(len) > seg_len {",
        replacement: "if off.saturating_add(len) > usize::MAX - 1 {",
        targets: CORE_BUG,
    },
    Mutant {
        name: "encode_run puts one record fewer in a string-free block",
        file: "crates/core/src/external.rs",
        anchor: "let rows = (room / fixed).clamp(1, left);",
        replacement: "let rows = (room / fixed).saturating_sub(1).clamp(1, left);",
        targets: CORE_BUG,
    },
    Mutant {
        name: "encode_run puts one record more in a string-free block",
        file: "crates/core/src/external.rs",
        anchor: "let rows = (room / fixed).clamp(1, left);",
        replacement: "let rows = (room / fixed + 1).clamp(1, left);",
        targets: CORE_BUG,
    },
    Mutant {
        name: "the spill phase builds on every worker",
        file: "crates/core/src/external.rs",
        anchor: "const BUILDERS: usize = SPILL_WORKERS;",
        replacement: "const BUILDERS: usize = usize::MAX;",
        targets: CORE_BUG,
    },
    // ---- rowsort-engine ---------------------------------------------------
    Mutant {
        name: "a table registered again keeps its old statistics",
        file: "crates/engine/src/catalog.rs",
        anchor: r#"        let stats = TableStats::new(&table.data);
        let name = table.name.to_lowercase();"#,
        replacement: r#"        let name = table.name.to_lowercase();
        let stats = match self.tables.remove(&name) {
            Some(old) => old.stats,
            None => TableStats::new(&table.data),
        };"#,
        targets: &[ENGINE],
    },
    Mutant {
        name: "a table's statistics lent through a Filter",
        file: "crates/engine/src/exec.rs",
        anchor: "(LogicalPlan::Scan { table }, Cow::Borrowed(_)) => catalog.stats(table),",
        replacement: "(LogicalPlan::Scan { table }, _) => catalog.stats(table),\n        \
                      (LogicalPlan::Filter { input, .. }, _) => table_stats(input, relation, catalog),",
        targets: &[ENGINE],
    },
    // ---- lint rules and the checks that hold them (DESIGN.md §9) ----------
    // R003: an allocation in a loop a warm sort runs. The counted warm
    // sorts of `zero_alloc` see it; no stock lint does.
    Mutant {
        name: "R003: the key column list copied per key column in the planner (`to_vec` in a loop)",
        file: "crates/core/src/run.rs",
        anchor: "    for key in keys {\n        let (column, cache) = (input.column(key.column), cached(key.column));",
        replacement: "    for key in keys {\n        std::hint::black_box(keys.to_vec());\n        \
                      let (column, cache) = (input.column(key.column), cached(key.column));",
        targets: &[LINT, CLIPPY_CORE, ZERO_ALLOC],
    },
    Mutant {
        name: "R003: a box per merged row (`Box::new` in the merge loop)",
        file: "crates/core/src/merge.rs",
        anchor: "    for _ in 0..rows {\n        let w = tree.winner();",
        replacement: "    for _ in 0..rows {\n        let w = *std::hint::black_box(Box::new(tree.winner()));",
        targets: &[LINT, CLIPPY_CORE, ZERO_ALLOC],
    },
    Mutant {
        name: "R003: a vector per row in LSD radix's counting sweep (`Vec::new` in a loop)",
        file: "crates/algos/src/radix.rs",
        anchor: "            let key = &src[at..at + fuse];\n",
        replacement: "            let key = &src[at..at + fuse];\n            let mut seen = Vec::new();\n            \
                      seen.extend_from_slice(key);\n            std::hint::black_box(seen);\n",
        targets: &[LINT, CLIPPY_ALGOS, ZERO_ALLOC],
    },
    Mutant {
        name: "R003: a string formatted per inverted key byte (`format!` in a loop)",
        file: "crates/normkey/src/encoding.rs",
        anchor: "    for b in bytes {\n        *b = !*b;",
        replacement: "    for b in bytes {\n        std::hint::black_box(format!(\"{b}\"));\n        *b = !*b;",
        targets: &[LINT, CLIPPY_NORMKEY, ZERO_ALLOC],
    },
    Mutant {
        name: "R003: the layout's types collected per column of the scatter (`collect` in a loop)",
        file: "crates/row/src/block.rs",
        anchor: "        for slot in 0..types.len() {\n",
        replacement: "        for slot in 0..types.len() {\n            \
                      let seen: Vec<_> = types.iter().collect();\n            std::hint::black_box(seen);\n",
        targets: &[LINT, CLIPPY_ROW, ZERO_ALLOC],
    },
    // R010's forms: a literal subscript, and the five panic macros and
    // methods the four crates' `lib.rs` deny.
    Mutant {
        name: "R010: `cols[0]` in the columnar tuple strategy, short on an empty column list",
        file: "crates/core/src/strategy.rs",
        anchor: "-> Vec<u32> {\n    let n = cols.first().map_or(0, Vec::len);\n    let mut idxs: Vec<u32> = (0..n as u32).collect();\n    \
                 cols.iter().for_each(|col| probe.buffer(col));\n    probe.buffer(&idxs);\n    let mut is_less",
        replacement: "-> Vec<u32> {\n    let n = cols[0].len();\n    let mut idxs: Vec<u32> = (0..n as u32).collect();\n    \
                      cols.iter().for_each(|col| probe.buffer(col));\n    probe.buffer(&idxs);\n    let mut is_less",
        targets: &[LINT, CLIPPY_CORE, CORE, ORACLE],
    },
    Mutant {
        name: "R010: `unwrap` of a VARCHAR range's last offset in the scatter",
        file: "crates/row/src/block.rs",
        anchor: "let last = offsets.last().copied().unwrap_or_default();",
        replacement: "let last = offsets.last().copied().unwrap();",
        targets: &[LINT, CLIPPY_ROW, ROW],
    },
    Mutant {
        name: "R010: `expect` of a dictionary heap's first offset",
        file: "crates/core/src/dict.rs",
        anchor: "let base = offsets.first().copied().unwrap_or(0);",
        replacement: "let base = offsets.first().copied().expect(\"a string range has an offset\");",
        targets: &[LINT, CLIPPY_CORE, CORE],
    },
    Mutant {
        name: "R010: `panic!` on a run-file block shorter than its framing",
        file: "crates/core/src/external.rs",
        anchor: "return Err(self.corrupt(format!(\"block {b} is shorter than its framing\")));",
        replacement: "panic!(\"block {b} is shorter than its framing\");",
        targets: &[LINT, CLIPPY_CORE, CORE],
    },
    Mutant {
        name: "R010: `unreachable!` where a plain key column's bytes are missing in decode",
        file: "crates/normkey/src/decode.rs",
        anchor: "let Some((&byte, body)) = key.split_first() else {\n                        put(i, None);\n                        continue;",
        replacement: "let Some((&byte, body)) = key.split_first() else {\n                        \
                      unreachable!(\"a plain key column holds its bytes\");",
        targets: &[LINT, CLIPPY_NORMKEY, NORMKEY],
    },
    // R011: a Relaxed ordering outside the counter files; only the lint
    // sees it, in both spellings.
    Mutant {
        name: "R011: the run loop's claim ticket taken with `Ordering::Relaxed`",
        file: "crates/core/src/sorter.rs",
        anchor: "let i = next.fetch_add(1, AtomicOrdering::SeqCst);",
        replacement: "let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);",
        targets: &[LINT, CLIPPY_CORE, CORE],
    },
    Mutant {
        name: "R011: the planner's ticket taken with an aliased `AtomicOrdering::Relaxed`",
        file: "crates/core/src/run.rs",
        anchor: "let plan = table.plans.fetch_add(1, AtomicOrdering::SeqCst) + 1;",
        replacement: "let plan = table.plans.fetch_add(1, AtomicOrdering::Relaxed) + 1;",
        targets: &[LINT, CLIPPY_CORE, CORE],
    },
    // R012, a rule no more: a discarded spill result, each form a stock
    // lint's, in the crates and their integration tests alike.
    Mutant {
        name: "R012: a run file's flush result discarded with `let _ =`",
        file: "crates/core/src/external.rs",
        anchor: "        w.flush()\n            .map_err(|e| SpillError::io(SpillOp::Flush, path, &e))?;",
        replacement: "        let _ = w.flush();",
        targets: &[LINT, CLIPPY_CORE, CORE],
    },
    Mutant {
        name: "R012: a run file's header check dropped as a bare statement",
        file: "crates/core/src/external.rs",
        anchor: "check_header(&self.buf[..HEADER_BYTES], self.has_ovc, self.run.path())?;",
        replacement: "check_header(&self.buf[..HEADER_BYTES], self.has_ovc, self.run.path());",
        targets: &[LINT, CLIPPY_CORE, CORE],
    },
    Mutant {
        name: "R012: a closed block's write error dropped with `.ok()`",
        file: "crates/core/src/external.rs",
        anchor: "index.close_block(&mut buf[..end], out)?;",
        replacement: "index.close_block(&mut buf[..end], out).ok();",
        targets: &[LINT, CLIPPY_CORE, CORE],
    },
    Mutant {
        name: "R012: an integration test discards a `Result` with `let _ =`",
        file: "crates/core/tests/zero_alloc.rs",
        anchor: "chunk.push_row(&row).unwrap();",
        replacement: "let _ = chunk.push_row(&row);",
        targets: &[LINT, CLIPPY_CORE],
    },
    // R013: a SAFETY comment that argues about another pointer.
    Mutant {
        name: "R013: a SAFETY comment that names `j` and `data` but not the pointer `base`",
        file: "crates/algos/src/rows.rs",
        anchor: "// SAFETY: as for `a`: `j < len`, so offsetting `base` by\n        // `j * width` stays inside `data`.",
        replacement: "// SAFETY: as for `a`: `j < len`, so the offset `j * width`\n        // stays inside `data`.",
        targets: &[LINT, CLIPPY_ALGOS, ALGOS],
    },
];

/// How one entry fared: the tests that failed under it, each as
/// `<binary>::<test>`.
enum Verdict {
    Caught(BTreeSet<String>),
    Survived,
    /// The mutant does not build: the entry is wrong, not the tests.
    NoBuild(String),
}

/// Run `git` in `dir`; its stdout, trimmed.
fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run git: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("git {} failed: {}", args.join(" "), err.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Every entry whose anchor does not occur exactly once under `root`.
fn stale_anchors(root: &Path, corpus: &[&Mutant]) -> Result<Vec<String>, String> {
    let mut stale = Vec::new();
    for m in corpus {
        let path = root.join(m.file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        match text.matches(m.anchor).count() {
            1 => {}
            0 => stale.push(format!("{}: anchor missing from {}", m.name, m.file)),
            n => stale.push(format!("{}: anchor occurs {n} times in {}", m.name, m.file)),
        }
    }
    Ok(stale)
}

/// A scratch worktree of HEAD and the working tree's tracked changes,
/// removed when dropped.
struct Worktree {
    root: PathBuf,
    path: PathBuf,
}

impl Worktree {
    fn new(root: &Path, path: PathBuf) -> Result<Worktree, String> {
        if path.exists() {
            // Left by a run that was killed.
            Worktree::remove(root, &path);
        }
        // `stash create` commits the working tree's tracked changes
        // without touching any ref; it prints nothing when there are none.
        let stash = git(root, &["stash", "create"])?;
        let rev = if stash.is_empty() { "HEAD" } else { &stash };
        let at = path.to_string_lossy();
        git(root, &["worktree", "add", "--detach", "--quiet", &at, rev])?;
        Ok(Worktree {
            root: root.to_owned(),
            path,
        })
    }

    fn remove(root: &Path, path: &Path) {
        let at = path.to_string_lossy();
        if let Err(e) = git(root, &["worktree", "remove", "--force", &at]) {
            eprintln!("mutants: {e}");
        }
        if let Err(e) = git(root, &["worktree", "prune"]) {
            eprintln!("mutants: {e}");
        }
    }
}

impl Drop for Worktree {
    fn drop(&mut self) {
        Worktree::remove(&self.root, &self.path);
    }
}

/// Runs test targets in a worktree, all into one target dir.
struct Runner {
    tree: PathBuf,
    target_dir: PathBuf,
}

/// What one target's run left: the tests that failed, and whether the
/// build did.
enum TargetRun {
    Ran(BTreeSet<String>),
    NoBuild(String),
}

impl Runner {
    /// `cargo <command> --offline <args>` in the worktree, run by
    /// `wrapper` (a program and its arguments, or nothing). The runner's
    /// own `RUSTFLAGS` are not passed on: a mutant may leave an unused
    /// variable, and a warning is not a test's catch (clippy targets deny
    /// warnings on their own command line).
    fn cargo(&self, wrapper: &[&str], command: &str, args: &[&str]) -> Command {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
        let mut argv = wrapper.to_vec();
        argv.extend([cargo.as_str(), command, "--offline"]);
        argv.extend(args);
        let mut cmd = Command::new(argv[0]);
        cmd.args(&argv[1..])
            .current_dir(&self.tree)
            .env("CARGO_TARGET_DIR", &self.target_dir)
            .env_remove("RUSTFLAGS");
        cmd
    }

    fn run(&self, target: &str) -> Result<TargetRun, String> {
        match target.strip_prefix("clippy ") {
            Some(package) => self.clippy(package),
            None if target == LINT => self.lint(),
            None => self.test(target),
        }
    }

    /// `cargo clippy -p <package> --all-targets -- -D warnings`: each
    /// lint that fires is a catch, as `clippy -p <package>: <lint>`.
    fn clippy(&self, package: &str) -> Result<TargetRun, String> {
        let args = ["-p", package, "--all-targets", "--message-format=json"];
        let out = self
            .cargo(
                &[],
                "clippy",
                &[&args[..], &["--", "-D", "warnings"]].concat(),
            )
            .stderr(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run cargo clippy: {e}"))?;
        let mut fired = BTreeSet::new();
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let Some(diagnostic) = Json::parse(line)
                .ok()
                .and_then(|m| m.get("message").cloned())
            else {
                continue;
            };
            if diagnostic.get("level").and_then(Json::as_str) != Some("error") {
                continue;
            }
            let code = diagnostic.get("code").and_then(|c| c.get("code"));
            if let Some(code) = code.and_then(Json::as_str) {
                fired.insert(format!("clippy -p {package}: {code}"));
            }
        }
        if !out.status.success() && fired.is_empty() {
            fired.insert(format!("clippy -p {package} (exit {})", out.status));
        }
        Ok(TargetRun::Ran(fired))
    }

    /// The worktree's `rowsort-lint` over the worktree: each rule that
    /// finds something is a catch, as `rowsort-lint: <rule>`.
    fn lint(&self) -> Result<TargetRun, String> {
        let args = [
            "-q",
            "-p",
            "lint",
            "--bin",
            "rowsort-lint",
            "--",
            "--root",
            ".",
        ];
        let out = self
            .cargo(&[], "run", &args)
            .output()
            .map_err(|e| format!("cannot run rowsort-lint: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let rules = stdout
            .lines()
            .filter_map(|l| l.strip_prefix("error[")?.split_once(']'));
        let mut fired: BTreeSet<String> = rules
            .map(|(rule, _)| format!("rowsort-lint: {rule}"))
            .collect();
        if !out.status.success() && fired.is_empty() {
            let err = String::from_utf8_lossy(&out.stderr);
            let first = err.lines().next().unwrap_or("");
            fired.insert(format!("rowsort-lint (exit {}): {first}", out.status));
        }
        Ok(TargetRun::Ran(fired))
    }

    /// `cargo test -p <target>` under [`TIMEOUT_SECS`]: each test that
    /// fails is a catch.
    fn test(&self, target: &str) -> Result<TargetRun, String> {
        let package: Vec<&str> = std::iter::once("-p")
            .chain(target.split_whitespace())
            .collect();
        let built = self
            .cargo(
                &[],
                "test",
                &[&package[..], &["--no-run", "--quiet"]].concat(),
            )
            .stdout(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !built.status.success() {
            let err = String::from_utf8_lossy(&built.stderr);
            let first = err.lines().find(|l| l.starts_with("error")).unwrap_or("");
            return Ok(TargetRun::NoBuild(format!("{target}: {first}")));
        }
        // `timeout` signals its whole process group, the test binaries
        // cargo started included.
        let secs = TIMEOUT_SECS.to_string();
        let timeout = ["timeout", "--kill-after=10", &secs];
        let args = [&package[..], &["--no-fail-fast"]].concat();
        let mut cmd = self.cargo(&timeout, "test", &args);
        // One pipe for both streams keeps cargo's `Running …` lines
        // (stderr) in order with the tests' results (stdout).
        let (mut reader, writer) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
        let writer2 = writer.try_clone().map_err(|e| format!("pipe: {e}"))?;
        cmd.stdout(writer).stderr(writer2);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot run timeout: {e}"))?;
        drop(cmd);
        let mut output = String::new();
        std::io::Read::read_to_string(&mut reader, &mut output)
            .map_err(|e| format!("reading cargo's output: {e}"))?;
        let status = child
            .wait()
            .map_err(|e| format!("waiting for cargo: {e}"))?;
        let timed_out = matches!(status.code(), Some(124 | 137));
        let mut failed = failing_tests(&output, timed_out);
        if !status.success() && failed.is_empty() {
            failed.insert(format!("{target} (exit {status})"));
        }
        Ok(TargetRun::Ran(failed))
    }

    /// Apply `m` alone, run its targets, put the file back.
    fn judge(&self, m: &Mutant) -> Result<Verdict, String> {
        let path = self.tree.join(m.file);
        let original = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mutated = original.replacen(m.anchor, m.replacement, 1);
        std::fs::write(&path, mutated)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let runs: Result<Vec<_>, _> = m.targets.iter().map(|t| self.run(t)).collect();
        std::fs::write(&path, original)
            .map_err(|e| format!("cannot restore {}: {e}", path.display()))?;
        let mut caught = BTreeSet::new();
        for run in runs? {
            match run {
                TargetRun::Ran(failed) => caught.extend(failed),
                TargetRun::NoBuild(why) => return Ok(Verdict::NoBuild(why)),
            }
        }
        Ok(if caught.is_empty() {
            Verdict::Survived
        } else {
            Verdict::Caught(caught)
        })
    }
}

/// The tests `cargo test` output names as failed, each as
/// `<binary>::<test>`; a binary that printed no result line crashed, or
/// was killed when `timed_out`.
fn failing_tests(output: &str, timed_out: bool) -> BTreeSet<String> {
    let mut failed = BTreeSet::new();
    let mut binary: Option<String> = None;
    let unfinished = |binary: &mut Option<String>, failed: &mut BTreeSet<String>| {
        if let Some(b) = binary.take() {
            let why = if timed_out { "timed out" } else { "crashed" };
            failed.insert(format!("{b} ({why})"));
        }
    };
    for line in output.lines().map(str::trim) {
        if let Some(rest) = line.strip_prefix("Running ") {
            unfinished(&mut binary, &mut failed);
            binary = Some(binary_label(rest));
        } else if let Some(name) = line
            .strip_prefix("test ")
            .and_then(|l| l.strip_suffix(" ... FAILED"))
        {
            let b = binary.as_deref().unwrap_or("?");
            let name = name.trim_end_matches(" - should panic");
            failed.insert(format!("{b}::{name}"));
        } else if line.starts_with("test result:") {
            binary = None;
        }
    }
    unfinished(&mut binary, &mut failed);
    failed
}

/// `core` for `unittests src/lib.rs (…/deps/rowsort_core-0123abcd)`,
/// `oracle` for `tests/oracle.rs (…/deps/oracle-4567)`.
fn binary_label(running: &str) -> String {
    let path = running
        .rsplit_once('(')
        .map_or(running, |(_, p)| p.trim_end_matches(')'));
    let file = path.rsplit('/').next().unwrap_or(path);
    let stem = file.rsplit_once('-').map_or(file, |(s, _)| s);
    stem.strip_prefix("rowsort_").unwrap_or(stem).to_owned()
}

fn print_table(results: &[(&Mutant, Verdict)]) {
    println!("\nmutants: entry × catching tests");
    let mut by_test: BTreeMap<&str, Vec<(usize, bool)>> = BTreeMap::new();
    for (i, (m, verdict)) in results.iter().enumerate() {
        println!("[{:>2}] {}  ({})", i + 1, m.name, m.file);
        match verdict {
            Verdict::Caught(tests) => {
                println!("     caught by {}", tests.len());
                for t in tests {
                    println!("       {t}");
                    by_test
                        .entry(t)
                        .or_default()
                        .push((i + 1, tests.len() == 1));
                }
            }
            Verdict::Survived => println!("     SURVIVED: no target fails"),
            Verdict::NoBuild(why) => println!("     DOES NOT BUILD: {why}"),
        }
    }
    println!("\nmutants: test × entries it catches (* = no other test catches it)");
    for (test, entries) in &by_test {
        let list: Vec<String> = entries
            .iter()
            .map(|&(i, alone)| format!("{i}{}", if alone { "*" } else { "" }))
            .collect();
        println!("  {test}: {}", list.join(" "));
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mutants: {e}");
            ExitCode::from(2)
        }
    }
}

/// Whether every selected entry was caught.
fn run() -> Result<bool, String> {
    let mut anchors_only = false;
    let mut filters = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--anchors" => anchors_only = true,
            flag if flag.starts_with('-') => {
                return Err(format!(
                    "unknown flag {flag}; usage: mutants [--anchors] [<filter>…]"
                ));
            }
            _ => filters.push(arg),
        }
    }
    let corpus: Vec<&Mutant> = CORPUS
        .iter()
        .filter(|m| {
            filters.is_empty()
                || filters
                    .iter()
                    .any(|f| m.name.contains(f.as_str()) || m.file.contains(f.as_str()))
        })
        .collect();
    if corpus.is_empty() {
        return Err("no entry matches the filters".to_owned());
    }
    let root = std::fs::canonicalize(ROOT).map_err(|e| format!("workspace root {ROOT}: {e}"))?;
    let stale = stale_anchors(&root, &corpus)?;
    for s in &stale {
        println!("STALE {s}");
    }
    if anchors_only {
        println!("mutants: {} anchors, {} stale", corpus.len(), stale.len());
        return Ok(stale.is_empty());
    }
    if !stale.is_empty() {
        return Ok(false);
    }

    let scratch = root.join("target/mutants");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let worktree = Worktree::new(&root, scratch.join("tree"))?;
    let runner = Runner {
        tree: worktree.path.clone(),
        target_dir: scratch.join("target"),
    };
    // The unmutated tree passes every target, or no catch means anything.
    let targets: BTreeSet<&str> = corpus
        .iter()
        .flat_map(|m| m.targets.iter().copied())
        .collect();
    for target in &targets {
        let started = Instant::now();
        match runner.run(target)? {
            TargetRun::Ran(failed) if failed.is_empty() => {}
            TargetRun::Ran(failed) => {
                let failed: Vec<_> = failed.into_iter().collect();
                println!("the unmutated tree fails {target}: {}", failed.join(", "));
                return Ok(false);
            }
            TargetRun::NoBuild(why) => {
                println!("the unmutated tree does not build: {why}");
                return Ok(false);
            }
        }
        eprintln!(
            "mutants: unmutated {target}: pass ({} s)",
            started.elapsed().as_secs()
        );
    }

    let mut results = Vec::new();
    for (i, m) in corpus.iter().enumerate() {
        let started = Instant::now();
        let verdict = runner.judge(m)?;
        let what = match &verdict {
            Verdict::Caught(tests) => format!("caught by {}", tests.len()),
            Verdict::Survived => "SURVIVED".to_owned(),
            Verdict::NoBuild(_) => "DOES NOT BUILD".to_owned(),
        };
        let secs = started.elapsed().as_secs();
        eprintln!(
            "mutants: [{}/{}] {}: {what} ({secs} s)",
            i + 1,
            corpus.len(),
            m.name
        );
        results.push((*m, verdict));
    }
    drop(worktree);
    print_table(&results);
    let caught = results
        .iter()
        .filter(|(_, v)| matches!(v, Verdict::Caught(_)))
        .count();
    println!(
        "\nmutants: {} entries, {caught} caught, {} not",
        results.len(),
        results.len() - caught
    );
    Ok(caught == results.len())
}
