//! Sorting algorithms for relational data, built from scratch.
//!
//! The paper's methodology (§III) is to hold the *algorithm* fixed while
//! varying data format, comparison strategy, and engine style — so this
//! crate provides each algorithm in two shapes:
//!
//! * **typed** sorts over `&mut [T]` with a caller-supplied `is_less`
//!   (used for columnar index sorting and for "compiled-engine" kernels
//!   where Rust monomorphization plays the role of query compilation), and
//! * **row** sorts over buffers of fixed-width byte rows
//!   ([`rows::RowsMut`]), which physically move whole rows with `memcpy`,
//!   exactly as an NSM sort operator does.
//!
//! Algorithms:
//!
//! * [`insertion`] — insertion sort (small-range base case),
//! * [`heapsort`] — bottom-up heapsort (introsort/pdqsort fallback),
//! * [`introsort`] — Musser's introspective sort, standing in for C++
//!   `std::sort`,
//! * [`mergesort`] — stable top-down merge sort with an auxiliary buffer,
//!   standing in for C++ `std::stable_sort`,
//! * [`pdqsort`] — pattern-defeating quicksort (Peters), with
//!   BlockQuickSort-style branchless partitioning for typed slices,
//! * [`radix`] — LSD and MSD radix sorts over normalized-key rows, with the
//!   paper's "single-bucket skip" optimization,
//! * [`kway`] — loser-tree k-way merge, the one merge shape of the
//!   pipeline and the external sorter (with or without offset-value
//!   codes),
//! * [`probe`] — the hook introsort, insertion sort and heapsort (typed and
//!   row), `pdqsort_rows` and the radix sorts report their loads, stores
//!   and data-dependent branches to; [`NoProbe`] records nothing and
//!   compiles away.

// Non-test code of this crate panics only where a site says why it may:
// each `unwrap`, `expect` or panicking macro carries an
// `#[expect(clippy::…, reason = "…")]` (clippy.toml exempts tests).
// Literal subscripts are rowsort-lint's R010.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod heapsort;
pub mod insertion;
pub mod introsort;
pub mod kway;
pub mod mergesort;
pub mod pdqsort;
pub mod probe;
pub mod radix;
pub mod rows;

pub use probe::{NoProbe, Probe};
pub use rows::RowsMut;
