//! The one file that calls into `crates/*`.
//!
//! Every measured call the benchmark makes into the program under test is
//! a function here, one per span, so a refactor of `crates/*` has exactly
//! one file to keep compiling (README.md lists the signatures as
//! load-bearing). The other files see the program only through these
//! functions and the plain data types re-exported below.

pub use rowsort_core::spill::{SpillIo, StdFs};
pub use rowsort_core::{ExternalSorter, KeySortAlgo, SortPipeline, SortedRows};
pub use rowsort_testkit::hash::XxHash64;
pub use rowsort_testkit::json::Json;
pub use rowsort_testkit::Rng;
pub use rowsort_vector::{
    DataChunk, LogicalType, NullOrder, OrderBy, OrderByColumn, SortOrder, SortSpec, Value, Vector,
};

use rowsort_core::comparator::FusedRowComparator;
use rowsort_core::{ExternalSortOptions, KeyBlock, SortOptions};
use rowsort_datagen::tpcds;
use rowsort_engine::{exec, plan, sql, Engine, ExecOptions, LogicalPlan, SpillExecOptions, Table};
use rowsort_row::{RowBlock, RowLayout};
use std::path::PathBuf;
use std::sync::Arc;

/// Where and when the engine's sorts spill.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Rows a sort holds in memory before it spills a run.
    pub memory_limit_rows: usize,
    /// Directory for run files.
    pub dir: PathBuf,
}

/// A parsed statement (`sql::parse_statement`'s query half).
pub struct Statement(sql::Query);

/// An engine plus the execution options it was given, kept so the staged
/// `exec` call runs under exactly the options `query` uses.
pub struct Session {
    engine: Engine,
    options: ExecOptions,
}

impl Session {
    /// An engine pinned to `threads` sort threads, spilling per `spill`.
    pub fn new(threads: usize, spill: Option<&SpillConfig>) -> Session {
        let mut engine = Engine::new();
        let options = engine.options_mut();
        options.threads = threads;
        options.spill = spill.map(|s| SpillExecOptions {
            memory_limit_rows: s.memory_limit_rows,
            spill_dir: Some(s.dir.clone()),
        });
        let options = options.clone();
        Session { engine, options }
    }

    /// `Engine::register_table`.
    pub fn register(&mut self, name: &str, columns: Vec<String>, data: DataChunk) {
        self.engine.register_table(Table::new(name, columns, data));
    }

    /// `Engine::query`: SQL text in, full result relation out.
    pub fn query(&self, sql_text: &str) -> Result<DataChunk, String> {
        self.engine.query(sql_text).map_err(|e| e.to_string())
    }

    /// `sql::parse_statement`.
    pub fn parse(&self, sql_text: &str) -> Result<Statement, String> {
        let (_, query) = sql::parse_statement(sql_text).map_err(|e| e.to_string())?;
        Ok(Statement(query))
    }

    /// `plan::build` + `plan::optimize`.
    pub fn plan(&self, statement: &Statement) -> Result<LogicalPlan, String> {
        let built = plan::build(&statement.0, self.engine.catalog()).map_err(|e| e.to_string())?;
        Ok(plan::optimize(built))
    }

    /// `exec::execute`.
    pub fn exec(&self, plan: &LogicalPlan) -> Result<DataChunk, String> {
        exec::execute(plan, self.engine.catalog(), &self.options).map_err(|e| e.to_string())
    }

    /// The relation and ORDER BY of the plan's Sort node, when it sorts a
    /// base table directly (possibly under a projection) — what the
    /// replay feeds the sort layers.
    pub fn sort_input(&self, plan: &LogicalPlan) -> Option<(&DataChunk, OrderBy)> {
        match plan {
            LogicalPlan::Project { input, .. } => self.sort_input(input),
            LogicalPlan::Sort { input, order } => match input.as_ref() {
                LogicalPlan::Scan { table } => {
                    let table = self.engine.catalog().get(table)?;
                    Some((&table.data, order.clone()))
                }
                _ => None,
            },
            _ => None,
        }
    }
}

/// Rows per thread-local run of an in-memory sort (`SortOptions::run_rows`).
pub fn default_run_rows() -> usize {
    SortOptions::default().run_rows
}

/// `SortPipeline::new`, configured as the engine's Sort node configures it
/// apart from the explicit run size.
pub fn pipeline_new(
    types: Vec<LogicalType>,
    order: &OrderBy,
    threads: usize,
    run_rows: usize,
) -> SortPipeline {
    let options = SortOptions {
        threads,
        run_rows,
        ..SortOptions::default()
    };
    SortPipeline::new(types, order.clone(), options)
}

/// `SortPipeline::sort_rows`.
pub fn pipeline_sort_rows<'p>(pipeline: &'p SortPipeline, input: &DataChunk) -> SortedRows<'p> {
    pipeline.sort_rows(input)
}

/// `SortedRows::to_chunk` — Figure 11's last stage.
pub fn sorted_to_chunk(sorted: &SortedRows<'_>) -> DataChunk {
    sorted.to_chunk()
}

/// `SortPipeline::last_profile().to_json()`.
pub fn pipeline_profile(pipeline: &SortPipeline) -> Json {
    pipeline.last_profile().to_json()
}

/// `ExternalSorter::with_spill_io`, configured as the engine's Sort node
/// configures it.
pub fn external_new(
    types: Vec<LogicalType>,
    order: &OrderBy,
    spill: &SpillConfig,
    merge_threads: usize,
    io: Arc<dyn SpillIo>,
) -> ExternalSorter {
    let options = ExternalSortOptions {
        memory_limit_rows: spill.memory_limit_rows,
        spill_dir: Some(spill.dir.clone()),
        merge_threads,
        ..ExternalSortOptions::default()
    };
    ExternalSorter::with_spill_io(types, order.clone(), options, io)
}

/// `ExternalSorter::sort`.
pub fn external_sort(sorter: &ExternalSorter, input: &DataChunk) -> Result<DataChunk, String> {
    sorter.sort(input).map_err(|e| e.to_string())
}

/// `ExternalSorter::last_profile().to_json()`.
pub fn external_profile(sorter: &ExternalSorter) -> Json {
    sorter.last_profile().to_json()
}

/// Bytes per payload row of a relation with columns `types`
/// (`RowLayout::new(..).width()`).
pub fn row_width(types: &[LogicalType]) -> usize {
    RowLayout::new(types).width()
}

/// The stages of run generation, driven one call at a time over reused
/// buffers the way `SortPipeline::make_run` drives them over pooled ones.
pub struct Stages {
    staging: RowBlock,
    payload: RowBlock,
    keys: KeyBlock,
    tie_cmp: FusedRowComparator,
    radix_scratch: Vec<u8>,
}

impl Stages {
    /// Plan the stages for sorting `input` by `order` in slices of at most
    /// `slice_rows` rows.
    pub fn new(input: &DataChunk, order: &OrderBy, slice_rows: usize) -> Stages {
        let types = input.types();
        let layout = Arc::new(RowLayout::new(&types));
        let max_len = |c: usize| input.column(c).as_strings().map_or(0, |s| s.max_len());
        Stages {
            staging: RowBlock::with_capacity(Arc::clone(&layout), slice_rows),
            payload: RowBlock::with_capacity(Arc::clone(&layout), slice_rows),
            keys: KeyBlock::new(&types, order, max_len),
            tie_cmp: FusedRowComparator::new(&layout, order),
            radix_scratch: Vec::new(),
        }
    }

    /// Bytes per normalized key.
    pub fn key_width(&self) -> usize {
        self.keys.key_width()
    }

    /// Bytes per key entry (key + row id).
    pub fn key_stride(&self) -> usize {
        self.keys.stride()
    }

    /// `RowBlock::append_chunk_range`: vectors to rows.
    pub fn scatter(&mut self, input: &DataChunk, lo: usize, hi: usize) {
        self.staging.clear();
        self.staging.append_chunk_range(input, lo, hi);
    }

    /// `KeyBlock::append_chunk_range`: key columns to normalized keys.
    pub fn encode(&mut self, input: &DataChunk, lo: usize, hi: usize) {
        self.keys.reset();
        self.keys.append_chunk_range(input, lo, hi);
    }

    /// `KeyBlock::sort_with_scratch` with a `FusedRowComparator` resolver.
    pub fn run_sort(&mut self) -> KeySortAlgo {
        let (staging, tie_cmp) = (&self.staging, &self.tie_cmp);
        self.keys
            .sort_with_scratch(&mut self.radix_scratch, |a, b| {
                tie_cmp.compare(
                    staging.row(a as usize),
                    staging.heap(),
                    staging.row(b as usize),
                    staging.heap(),
                )
            })
    }

    /// `RowBlock::assign_reordered` along `KeyBlock::order_iter`.
    pub fn reorder(&mut self) {
        self.payload
            .assign_reordered(&self.staging, self.keys.order_iter());
    }

    /// `RowBlock::to_chunk`: rows back to vectors.
    pub fn gather(&self) -> DataChunk {
        self.payload.to_chunk()
    }
}

/// `DataChunk::append` of a chunk stream into one relation, as the Sort
/// node materializes its input.
pub fn materialize(types: &[LogicalType], chunks: &[DataChunk]) -> Result<DataChunk, String> {
    let mut all = DataChunk::new(types);
    for chunk in chunks {
        all.append(chunk).map_err(|e| e.to_string())?;
    }
    Ok(all)
}

/// `DataChunk::split_into_vectors`.
pub fn split(chunk: &DataChunk) -> Vec<DataChunk> {
    chunk.split_into_vectors()
}

/// `tpcds::customer`: column names and rows.
pub fn gen_customer(rows: usize, seed: u64) -> (Vec<String>, DataChunk) {
    named(tpcds::customer(rows, seed))
}

/// `tpcds::catalog_sales` with scale factor 10's key domains.
pub fn gen_catalog_sales(rows: usize, seed: u64) -> (Vec<String>, DataChunk) {
    named(tpcds::catalog_sales(rows, 10.0, seed))
}

fn named(table: tpcds::NamedTable) -> (Vec<String>, DataChunk) {
    let names = table.columns.into_iter().map(|(name, _)| name).collect();
    (names, table.data)
}
