//! The relational sort operator, in every variant the paper studies.
//!
//! * [`comparator`] — static (monomorphized, "compiled-engine") and
//!   dynamic (per-column dispatch, "interpreted-engine") tuple comparators,
//! * [`strategy`] — the §IV/§V design-space points over u32 key columns:
//!   DSM vs NSM × tuple-at-a-time vs subsort × static vs dynamic
//!   comparator × introsort vs merge sort, plus the §VI normalized-key
//!   pdqsort and radix strategies,
//! * [`keys`] — normalized-key blocks with row-id suffixes and VARCHAR
//!   tie resolution,
//! * `sorter` (crate-private) — the one sorter (Figure 11) behind both
//!   public ones: the prologue that plans the key, one loop that claims
//!   runs whole in index order, one range planner and one merge driver,
//!   generic over where a finished run lives (DESIGN.md §11),
//! * [`pipeline`] — the in-memory sort: that sorter with resident runs,
//! * `run` (crate-private) — the one run generator: vectors → rows +
//!   normalized keys → thread-local radix sort (the comparator only inside
//!   key-equal ranges) → a pooled `SortedRun` with its offset-value code
//!   column; and the key plan, VARCHAR prefixes sized from a sample of the
//!   strings, read from and kept in a [`TableStats`],
//! * `dict` (crate-private) — order-preserving dictionaries: a VARCHAR key
//!   column of few distinct strings is coded by their ranks,
//! * `merge` (crate-private) — the one k-way merge kernel: a tree of
//!   losers over `RunSource`s (in-memory run, spill cursor) emitting into
//!   a `VectorSink`, straight into the output vectors, OVC as a const
//!   parameter (DESIGN.md §11.4),
//! * [`systems`] — the five §VII system profiles (DuckDB-, ClickHouse-,
//!   MonetDB-, HyPer-, Umbra-like sort configurations) behind one trait,
//! * [`external`] — out-of-core sorting: the same sorter with runs
//!   encoded into run files (the §IX "graceful degradation" future work,
//!   implemented),
//! * [`spill`] — the storage surface behind the external sorter: the
//!   [`SpillIo`](spill::SpillIo) trait (std::fs default, fault-injecting
//!   test backend) and the typed [`SpillError`](spill::SpillError)
//!   taxonomy (DESIGN.md §8),
//! * [`model`] — the §II run-generation vs merge comparison-count model,
//! * [`ovc`] — offset-value coding over normalized keys: most merge
//!   comparisons resolve on one `u64` compare, codes maintained as a
//!   by-product of each comparison (DESIGN.md §10),
//! * [`pool`] — the size-classed buffer pool that makes steady-state
//!   sorts allocation-free (DESIGN.md §6),
//! * [`metrics`] — the lock-free counter registry, phase timers, and
//!   per-sort profiles behind `EXPLAIN ANALYZE` and `ROWSORT_TRACE`
//!   (DESIGN.md §7),
//! * [`workers`] — the persistent worker pool that runs every parallel
//!   phase without per-phase thread spawns,
//! * [`resources`] — a buffer pool and a worker crew that many sorters
//!   share: an engine's one set for all its queries (DESIGN.md §6).

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

pub mod comparator;
mod dict;
pub mod external;
pub mod keys;
mod merge;
pub mod metrics;
pub mod model;
pub mod ovc;
pub mod pipeline;
pub mod pool;
pub mod resources;
mod run;
mod sorter;
pub mod spill;
pub mod strategy;
pub mod systems;
#[cfg(test)]
pub(crate) mod testutil;
pub mod workers;

pub use external::{ExternalSortOptions, ExternalSorter};
pub use keys::{KeyBlock, KeySortAlgo, KeySortStats, KeyStat, RankStat, VarcharStat, PREFIX_CAP};
pub use metrics::{Counter, CounterRegistry, Metrics, Phase, SortProfile};
pub use pipeline::{default_threads, SortOptions, SortPipeline, SortedRows};
pub use pool::BufferPool;
pub use resources::SortResources;
pub use run::TableStats;
pub use spill::{SpillError, SpillIo, SpillOp, StdFs};
pub use systems::{sort_with_system, sort_with_system_profiled, SystemProfile};
pub use workers::WorkerPool;
