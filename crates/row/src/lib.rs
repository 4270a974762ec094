//! NSM (N-ary Storage Model) row format.
//!
//! Sorting is inherently a row-wise operation: both of its dominant costs —
//! comparing tuples and moving tuples — touch whole rows. The paper shows
//! that even engines with columnar (DSM) execution win by converting the
//! sort operator's input to a row format, sorting, and converting back
//! (its Figure 1). This crate provides that row format:
//!
//! * [`RowLayout`] — computes fixed-width, 8-byte-aligned row shapes from a
//!   column schema (variable-length values live out-of-row in a string heap),
//! * [`RowBlock`] — a buffer of such rows plus its heap, and
//!   [`reorder_rows`], the payload reorder that moves them,
//! * [`scatter`]/[`gather()`] — the DSM→NSM and NSM→DSM conversions, performed
//!   one vector at a time to amortize interpretation overhead,
//! * [`ChunkBuilder`] — the NSM→DSM loop itself: exactly pre-sized columns
//!   filled a batch of rows at a time, by any number of threads at once.

// Non-test code of this crate panics only where a site says why it may:
// each `unwrap`, `expect` or panicking macro carries an
// `#[expect(clippy::…, reason = "…")]` (clippy.toml exempts tests).
// A subscript panics only on a short slice: the tests that reach each
// site hold it (DESIGN.md §9).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod block;
pub mod convert;
pub mod gather;
pub mod layout;

pub use block::{heap_offset, reorder_heap, reorder_rows, RowBlock, HEAP_OVERFLOW};
pub use convert::{gather, scatter};
pub use gather::{
    ChunkBuilder, ChunkPiece, ColumnFrom, PieceTail, RankedStrings, BAD_RANK, BAD_STRING_SLOT,
    BATCH_ROWS,
};
pub use layout::{RowAlignment, RowLayout};
