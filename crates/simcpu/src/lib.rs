//! A small CPU simulator: set-associative L1-D cache plus a branch
//! predictor, fed by the real sort kernels through their probe.
//!
//! The paper measures `L1-dcache-load-misses` and `branch-misses` with
//! Linux `perf` on a bare-metal Xeon (its Tables II/III and Figure 10).
//! Hardware counters are unavailable in a container — and absolute counts
//! are machine-specific anyway — so this crate reproduces the *relative*
//! behaviour with a simulation:
//!
//! * [`CacheSim`] — set-associative, LRU, write-allocate L1-D model
//!   (default 32 KiB / 64-byte lines / 8-way, the paper's Xeon L1),
//! * [`BranchPredictor`] — gshare-style 2-bit saturating-counter predictor,
//! * [`SimCpu`] — both together behind `rowsort-algos`' `Probe` trait,
//!   with a virtual address allocator ([`SimCpu::alloc`]) that lays out
//!   every buffer a kernel announces. The `rowsort-algos` kernels and the
//!   `core::strategy` entries that Figures 2–9 time take it in place of
//!   their default no-op probe.
//!
//! Only *data-dependent* branches (comparison outcomes) are reported;
//! loop control predicts near-perfectly on real hardware and would only
//! add a constant, pattern-independent offset to every experiment.

pub mod branch;
pub mod cache;
pub mod cpu;

pub use branch::BranchPredictor;
pub use cache::{CacheConfig, CacheSim};
pub use cpu::{Counters, SimCpu};
