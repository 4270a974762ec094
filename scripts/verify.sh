#!/usr/bin/env bash
# Tier-1 verification, hermetic: builds and tests the whole workspace with
# the network disabled, denies compiler warnings, checks the path-only
# dependency closure and the formatting, and runs clippy and the in-tree
# static analyzer (rowsort-lint).
#
# Usage: scripts/verify.sh   (from anywhere; it cds to the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:+$RUSTFLAGS }-D warnings"

# --- 1. Build, offline, warnings denied ------------------------------------
echo "== cargo build --release --offline =="
cargo build --release --workspace --offline

# --- 2. Static analysis ----------------------------------------------------
# 2a. Dependency closure: every dependency of the workspace and of
# benchmark/ is a local path (`source` null) with no version requirement
# (`req` "*"), so nothing can fall back to a registry or a git checkout.
# `--no-deps` reads the manifests only; it resolves nothing.
echo "== dependency closure =="
for manifest in Cargo.toml benchmark/Cargo.toml; do
    deps=$(cargo metadata --no-deps --offline --format-version 1 --manifest-path "$manifest" \
        | jq -r '.packages[] | .name as $pkg | .dependencies[]
                 | "\($pkg) -> \(.name) source=\(.source) req=\(.req)"')
    if [ -z "$deps" ]; then
        echo "verify: $manifest lists no dependencies; the closure check read nothing" >&2
        exit 1
    fi
    if bad=$(grep -v ' source=null req=\*$' <<<"$deps"); then
        echo "verify: $manifest has a dependency that is not a bare path:" >&2
        echo "$bad" >&2
        exit 1
    fi
done

# 2b. Formatting: every file of the workspace is as rustfmt writes it.
echo "== cargo fmt --check =="
cargo fmt --all --check

# 2c. clippy, with the lint set of the root Cargo.toml's
# [workspace.lints] tables: every `unsafe` block carries a SAFETY comment
# and one unsafe operation (undocumented_unsafe_blocks,
# multiple_unsafe_ops_per_block), `unsafe` and `process::exit` appear only
# where an `#[expect(…, reason = "…")]` names them (rustc's unsafe_code,
# clippy::exit), no `#[allow]` lacks a reason, and no crate or test
# discards a `#[must_use]` value — a spill error above all
# (let_underscore_must_use, unused_result_ok; a bare `…;` is rustc's
# unused_must_use, an error under -D warnings). The lib.rs of
# rowsort-algos, -core, -normkey and -row deny unwrap_used, expect_used,
# panic, unreachable, todo and unimplemented outside tests (clippy.toml
# exempts tests); rowsort-normkey's denies a bare `as` cast
# (as_conversions).
echo "== cargo clippy =="
cargo clippy --workspace --all-targets --offline -- -D warnings
# benchmark/ is a workspace of its own, outside those tables: its
# allocator's `unsafe` blocks get the same three checks by name. This
# build rewrites benchmark/Cargo.lock, as every build of benchmark/ does.
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- \
    -D clippy::undocumented_unsafe_blocks -D clippy::multiple_unsafe_ops_per_block -D clippy::exit

# 2d. rowsort-lint keeps what neither a stock lint nor a test holds, as
# two rules over each .rs file's tokens: no `Relaxed` atomic ordering
# outside the counter files (R011), and a SAFETY comment names every
# identifier its block's pointer operations use (R013). Any finding fails
# the gate. What it no longer checks is held elsewhere, each by a corpus
# entry that proves it (DESIGN.md §9): allocations in a warm sort's loops
# by zero_alloc*.rs and bench_gate's allocs, panic sites by the clippy
# denies above, short slices by the tests that reach them.
echo "== rowsort-lint =="
cargo run --release --offline -q -p lint --bin rowsort-lint

# The analyzer that guards six `#[expect(unsafe_code)]` sites outside
# testkit::alloc (three functions of RowsMut, two statements and an
# `unsafe impl Send` in the worker pool) and the workspace's atomics is
# budgeted the way its findings are. Raise the constant in the PR that
# adds a rule, with the corpus entry only that rule catches.
LINT_SRC_LINE_BUDGET=1402
lint_src_lines=$(cat crates/lint/src/*.rs | wc -l)
if [ "$lint_src_lines" -gt "$LINT_SRC_LINE_BUDGET" ]; then
    echo "verify: crates/lint/src/*.rs holds $lint_src_lines lines, budget $LINT_SRC_LINE_BUDGET" >&2
    exit 1
fi

# The analyzer's own tests (lexer exact locations, the rules' tables and
# scopes, the four crates' panic denies and the workspace's discard
# lints, the self-fuzz smoke) run here, before the workspace-wide suite,
# so an analyzer regression fails fast with a focused report.
echo "== cargo test -p lint =="
cargo test -q -p lint --offline

# 2e. The seeded-bug corpus (crates/bench/src/bin/mutants.rs, DESIGN.md
# §8.6): every entry's anchor occurs exactly once in its file, so a change
# that moves seeded code re-seeds the entry in the same change. It builds
# nothing beyond step 1's release build. The corpus itself takes about
# half an hour in a debug build; it is run by hand, for the crates a change
# touches (`cargo run -p rowsort-bench --bin mutants -- crates/core/`).
echo "== mutants --anchors =="
cargo run --release --offline -q -p rowsort-bench --bin mutants -- --anchors

# --- 3a. The differential oracle ---------------------------------------------
# One generator over schema × values × NULLs × duplicates × VARCHAR shapes
# × ORDER BY × options, every entry point (pipeline, external, engine under
# each system profile and spilling), four checks: against the reference
# sort, bit-identity inside an entry point, typed-or-right under faults,
# the vectors a sort merges into == its OVC-off and spilled twins'
# (DESIGN.md §8). It runs inside step 3 too; the named step makes an
# oracle failure print its minimal input and its `TESTKIT_SEED=… cargo
# test <name>` replay line on its own, ahead of the rest of the suite.
echo "== differential oracle =="
cargo test -q -p rowsort-bench --offline --test oracle

# --- 3. Test ---------------------------------------------------------------
echo "== cargo test -q --offline =="
cargo test -q --workspace --offline

# --- 3b. Benchmark package --------------------------------------------------
# rowbench (benchmark/) is a workspace of its own that reaches crates/*
# only through benchmark/src/adapter.rs; building and testing it here makes
# a crates/* signature change that breaks the adapter fail locally.
echo "== cargo test benchmark/ =="
cargo test --offline --manifest-path benchmark/Cargo.toml

# --- 4. Benches compile ----------------------------------------------------
echo "== cargo build --benches --offline =="
cargo build --benches --workspace --offline

# --- 5. Traced sort smoke --------------------------------------------------
# Runs two pipeline sorts (one merging, one on the tie path) + an
# external sort with ROWSORT_TRACE=1 and validates every emitted JSON line
# against the documented trace schema (DESIGN.md §7.5) using testkit's
# JSON parser.
# Fails the build on schema drift. The trace file is kept under
# target/perf/ and uploaded as a CI artifact.
echo "== traced sort smoke =="
mkdir -p target/perf
trace_jsonl="$PWD/target/perf/trace_smoke.jsonl"
cargo run --release --offline -q -p rowsort-bench --bin trace_smoke -- "$trace_jsonl"

# --- 5b. Merge counter gates -------------------------------------------------
# Both sorters are one sorter (core::sorter, DESIGN.md §11): one run loop,
# one range planner, one merge driver, over resident or encoded runs.
# The driver's in-memory merge is one range-partitioned k-way pass at any
# thread count (merge_rounds == 1, bytes_moved exact and equal across
# thread counts, merge_tasks == ranges, a warm pool never missed), and the
# OVC-off sort does the same work on the same tree: equal counters, no
# code-resolved compare. That its rows are bit-identical to the OVC-off
# sort's, and that both sorters make the same runs, ranges and compares,
# is check 2 of the oracle (step 3a). The run loop claims run i whole:
# run file i holds the same bytes at 1, 2, 3 and 8 threads, with and
# without codes, and the rows merged from them are the same. The spill
# merge reads every run file once: bytes read at the SpillIo handles ==
# bytes written at one merge thread, at most two blocks per run and
# splitter more above it, rows the pipeline's at every thread count. The
# driver merges straight into the output vectors: the most bytes a warm
# sort holds at once stays under what it held when it built a merged row
# run first, by that run's row area; the external sorter's holds no
# run-generation buffer under its merge, and at 4 and 8 threads no more
# than its 2-thread peak plus a range's cursors per further worker (peak
# live bytes from testkit's counting allocator). All four run inside step
# 3 too; the named step makes a regression in a merge's or a run file's
# shape fail on its own line.
echo "== merge counter gates =="
cargo test -q -p rowsort-core --offline --test merge_moves_once
cargo test -q -p rowsort-core --offline --lib run_files_are_byte_identical_across_thread_counts
cargo test -q -p rowsort-core --offline --test spill_reads_once
cargo test -q -p rowsort-core --offline --test peak_heap

# --- 6. Bench counter gate ---------------------------------------------------
# The inputs of the pipeline and spill_merge benches, sorted once each on
# a warm sorter with every option pinned, and every deterministic counter
# of that sort (plus, on one thread, its system allocations), and the
# simulated-CPU counts of Tables II/III and Figure 10 (the `sim/` ids),
# compared with the checked-in BENCH_counters.json for exact equality. No clock is
# read: a difference means the change altered how much work an algorithm
# does. If that was the point, say so and re-record with
# `bench_gate --write`; if not, it is a regression. The printed table is
# kept under target/perf/ and uploaded as a CI artifact.
echo "== bench counter gate =="
cargo run --release --offline -q -p rowsort-bench --bin bench_gate \
    | tee target/perf/bench_counters.txt

# --- 7. Spill fault-injection stress ----------------------------------------
# 50 seeded iterations of the oracle's third check (DESIGN.md §8.5): the
# stress loop is step 3a's generator with a fault schedule on every case —
# relations sorted through the external sorter under injected write errors
# / ENOSPC / corruption, held to the reference sort. Deterministic
# (everything derives from the seed) and offline (the fault filesystem is
# in-memory). Fails the build on any oracle mismatch or leaked run file;
# the JSON report is uploaded as a CI artifact.
echo "== spill stress =="
cargo run --release --offline -q -p rowsort-bench --bin stress -- \
    --iters 50 --seed 0xR0WS0RT --report "$PWD/target/perf/stress_report.json"

echo "verify: OK"
