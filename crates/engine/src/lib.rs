//! A small vectorized query engine around the `rowsort` sort operator.
//!
//! The paper's end-to-end benchmarks (§VII) run SQL like
//!
//! ```sql
//! SELECT count(*) FROM (
//!     SELECT cs_item_sk FROM catalog_sales
//!     ORDER BY cs_warehouse_sk, cs_ship_mode_sk
//!     OFFSET 1
//! ) t;
//! ```
//!
//! chosen so the result set is tiny (no serialization cost), the aggregate
//! forces full payload collection, and the `OFFSET 1` stops the optimizer
//! from discarding the subquery's ORDER BY. This crate provides enough
//! engine to run exactly that class of queries:
//!
//! * [`catalog`] — named tables over [`rowsort_vector::DataChunk`] storage,
//! * [`sql`] — a tokenizer + recursive-descent parser for
//!   `SELECT`/`FROM`/`WHERE`/`ORDER BY`/`LIMIT`/`OFFSET`/`COUNT(*)`,
//! * [`plan`] — a logical plan with the optimizer rule the paper's
//!   methodology section fights (redundant-sort elimination); `ORDER BY
//!   … LIMIT` is a `Limit` over the `Sort`,
//! * [`exec`] — physical operators that hand each other one whole
//!   relation, lent by the catalog or owned by the node that built it; the
//!   sort operator delegates to a configurable
//!   [`rowsort_core::SystemProfile`],
//! * [`csv`] — CSV import/export, so real `dsdgen` output can replace the
//!   synthetic TPC-DS tables,
//! * [`Engine`] — `register_table` + `query(sql)`, with one buffer pool
//!   and one worker crew that every query's sorts borrow.

pub mod catalog;
pub mod csv;
pub mod exec;
pub mod plan;
pub mod reference;
pub mod sql;

pub use catalog::{Catalog, Table};
pub use exec::{ExecOptions, NodeStats, SpillExecOptions};
pub use plan::LogicalPlan;

use rowsort_core::spill::SpillError;
use rowsort_core::SortResources;
use rowsort_vector::DataChunk;
use std::sync::Mutex;

/// Errors surfaced to engine users.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// SQL text failed to parse.
    Parse(String),
    /// The query references an unknown table.
    UnknownTable(String),
    /// The query references an unknown column.
    UnknownColumn(String),
    /// A semantically invalid query (e.g. comparing incompatible types).
    Invalid(String),
    /// An executor invariant did not hold (a bug, not a user error):
    /// surfaced as an error instead of a panic so callers keep control.
    Internal(String),
    /// Spill I/O or run-file verification failed during an external sort.
    /// Carries the typed [`SpillError`] so callers can see which run file
    /// failed doing what.
    Spill(SpillError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Parse(m) => write!(f, "parse error: {m}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            EngineError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            EngineError::Invalid(m) => write!(f, "invalid query: {m}"),
            EngineError::Internal(m) => write!(f, "internal error: {m}"),
            EngineError::Spill(e) => write!(f, "spill error: {e}"),
        }
    }
}

impl From<SpillError> for EngineError {
    fn from(e: SpillError) -> EngineError {
        EngineError::Spill(e)
    }
}

impl std::error::Error for EngineError {}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;

/// The query engine: a catalog, execution options, and the buffer pool
/// and worker crew its queries' sorts borrow (DESIGN.md §6).
pub struct Engine {
    catalog: Catalog,
    options: ExecOptions,
    /// One pool and one crew for every query. The crew is spawned by the
    /// first phase that needs two workers, and replaced by the first query
    /// after [`ExecOptions::threads`] changes.
    resources: Mutex<SortResources>,
}

impl Engine {
    /// An engine with default options: DuckDB-like sort on
    /// [`rowsort_core::default_threads`] threads.
    pub fn new() -> Engine {
        Engine::with_options(ExecOptions::default())
    }

    /// An engine with explicit execution options.
    pub fn with_options(options: ExecOptions) -> Engine {
        let resources = Mutex::new(SortResources::new(options.threads));
        Engine {
            catalog: Catalog::new(),
            options,
            resources,
        }
    }

    /// Register (or replace) a table.
    pub fn register_table(&mut self, table: Table) {
        self.catalog.register(table);
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Execution options (mutable, e.g. to switch system profiles).
    pub fn options_mut(&mut self) -> &mut ExecOptions {
        &mut self.options
    }

    /// Parse, plan, optimize, and execute a SQL statement, returning the
    /// full result relation.
    ///
    /// `EXPLAIN <query>` returns the optimized plan tree (one VARCHAR row
    /// per line) without executing; `EXPLAIN ANALYZE <query>` executes the
    /// query and returns the tree annotated with per-operator row counts,
    /// wall-clock timings, and — for Sort operators running the full
    /// pipeline — per-phase sort-time attribution.
    pub fn query(&self, sql_text: &str) -> Result<DataChunk> {
        let (mode, ast) = sql::parse_statement(sql_text)?;
        let plan = plan::build(&ast, &self.catalog)?;
        let plan = plan::optimize(plan);
        match mode {
            sql::ExplainMode::None => self.execute(&plan),
            sql::ExplainMode::Plan => text_chunk(&plan.explain()),
            sql::ExplainMode::Analyze => {
                let (_, stats) = self.execute_profiled(&plan)?;
                text_chunk(&exec::render_analyze(&stats))
            }
        }
    }

    /// As [`Engine::query`], but skip the optimizer — used to demonstrate
    /// the redundant-sort elimination the paper's benchmark query defeats.
    pub fn query_unoptimized(&self, sql_text: &str) -> Result<DataChunk> {
        let ast = sql::parse(sql_text)?;
        let plan = plan::build(&ast, &self.catalog)?;
        self.execute(&plan)
    }

    /// As [`Engine::query`] for a plain query, also returning the
    /// per-operator stats `EXPLAIN ANALYZE` renders — each Sort node's
    /// own profile among them.
    pub fn query_profiled(&self, sql_text: &str) -> Result<(DataChunk, Vec<NodeStats>)> {
        let plan = plan::optimize(plan::build(&sql::parse(sql_text)?, &self.catalog)?);
        self.execute_profiled(&plan)
    }

    fn execute_profiled(&self, plan: &LogicalPlan) -> Result<(DataChunk, Vec<NodeStats>)> {
        exec::execute_profiled(plan, &self.catalog, &self.options, &self.resources())
    }

    fn execute(&self, plan: &LogicalPlan) -> Result<DataChunk> {
        exec::execute_on(plan, &self.catalog, &self.options, &self.resources())
    }

    /// The engine's resource set, its crew sized for the current
    /// [`ExecOptions::threads`].
    fn resources(&self) -> SortResources {
        let mut set = self.resources.lock().unwrap_or_else(|e| e.into_inner());
        *set = set.with_threads(self.options.threads);
        set.clone()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// A one-VARCHAR-column relation holding `text`, one row per line — the
/// result shape of `EXPLAIN` statements.
fn text_chunk(text: &str) -> Result<DataChunk> {
    rowsort_vector::DataChunk::from_columns(vec![rowsort_vector::Vector::from_strings(
        text.lines(),
    )])
    .map_err(|e| EngineError::Internal(e.to_string()))
}
