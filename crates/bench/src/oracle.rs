//! The one differential oracle (DESIGN.md §8): one case generator, one
//! reference sort, one sorted-permutation check, over every entry point.
//!
//! The paper's argument rests on one invariant — the byte order of a
//! normalized key is the `ORDER BY` order (§V) — and everything after it
//! only moves bytes that are already right. So one [`Case`] (relation ×
//! `ORDER BY` × [`Options`]) is driven through every [`Entry`] and held
//! to four checks:
//!
//! 1. [`check_reference`] — against a stable `compare_rows` sort: in
//!    order, the same multiset, and the exact sequence when the order is
//!    total or the entry point is a stable sort ([`Entry::is_stable`]);
//! 2. [`check_bit_identity`] — inside an entry point nothing observable
//!    depends on threads, OVC, a warm pool, or (external) merge threads,
//!    and at one run size both sorters make the same runs, key ranges
//!    and merge comparisons;
//! 3. [`check_faults`] — under an injected fault schedule, `Ok` means
//!    check 1 and `Err` means typed, counted and not recorded as a sort;
//!    no run file leaks either way;
//! 4. [`check_twins_agree`] — the vectors a merge gathers straight into
//!    are, bit for bit, those of the same merge on whole keys (OVC off)
//!    and of the same merge out of run files, at every thread count.
//!
//! [`check_key_order`] states the invariant itself on `KeyBlock` bytes.
//! `tests/oracle.rs` runs all of it as `testkit::prop` properties (one
//! shrinker, one `TESTKIT_SEED` replay line); the `stress` binary is
//! check 3 over N seeds.

use rowsort_core::external::{ExternalSortOptions, ExternalSorter};
use rowsort_core::pipeline::{SortOptions, SortPipeline};
use rowsort_core::{Counter, KeyBlock, SpillError, SystemProfile, PREFIX_CAP};
use rowsort_engine::{Engine, ExecOptions, SpillExecOptions, Table};
use rowsort_row::{ChunkBuilder, RowBlock, RowLayout};
use rowsort_testkit::faultfs::{FaultFs, FaultSchedule};
use rowsort_testkit::prop::{Gen, PropResult};
use rowsort_testkit::Rng;
use rowsort_vector::{
    DataChunk, LogicalType, NullOrder, OrderBy, OrderByColumn, SortOrder, SortSpec, Value,
    VectorData,
};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// What every sorter of a case is configured from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// `SortOptions::threads` and the engine's `ExecOptions::threads`.
    pub threads: usize,
    /// `SortOptions::run_rows`.
    pub run_rows: usize,
    /// Offset-value coding, both sorters.
    pub ovc: bool,
    /// `ExternalSortOptions::memory_limit_rows` and the engine's spill budget.
    pub memory_limit_rows: usize,
    /// `ExternalSortOptions::merge_threads`.
    pub merge_threads: usize,
    /// Seed of the [`FaultSchedule::generate`] schedule [`check_faults`]
    /// injects; `None` is the fault-free filesystem.
    pub faults: Option<u64>,
}

/// One differential case.
#[derive(Clone)]
pub struct Case {
    pub types: Vec<LogicalType>,
    pub rows: Vec<Vec<Value>>,
    pub order: OrderBy,
    pub options: Options,
}

impl Case {
    pub fn chunk(&self) -> DataChunk {
        let mut chunk = DataChunk::new(&self.types);
        for row in &self.rows {
            chunk.push_row(row).expect("row matches schema");
        }
        chunk
    }

    /// The reference sort: boxed rows, the reference comparator, stable.
    pub fn reference(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| self.order.compare_rows(a, b));
        rows
    }

    /// The `ORDER BY` list as SQL over columns `c0, c1, …`.
    fn order_sql(&self) -> String {
        let item = |k: &OrderByColumn| {
            let dir = match k.spec.order {
                SortOrder::Ascending => "ASC",
                SortOrder::Descending => "DESC",
            };
            let nulls = match k.spec.nulls {
                NullOrder::NullsFirst => "FIRST",
                NullOrder::NullsLast => "LAST",
            };
            format!("c{} {dir} NULLS {nulls}", k.column)
        };
        self.order
            .keys
            .iter()
            .map(item)
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Compact, because the runner prints the original input next to the
/// minimal one: the first rows only, one per line.
impl fmt::Debug for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Case {{")?;
        writeln!(f, "  types: {:?}", self.types)?;
        writeln!(f, "  ORDER BY {}", self.order_sql())?;
        writeln!(f, "  {:?}", self.options)?;
        writeln!(f, "  {} rows:", self.rows.len())?;
        for row in self.rows.iter().take(12) {
            writeln!(f, "    {row:?}")?;
        }
        if self.rows.len() > 12 {
            writeln!(f, "    … {} more", self.rows.len() - 12)?;
        }
        write!(f, "}}")
    }
}

// ---------------------------------------------------------------------------
// The generator

/// One non-NULL value of `ty`. Integers and floats: an extreme or a
/// neighbour of zero one time in three, else any bit pattern — every value
/// `compare_rows` totally orders, NaNs and both zeros included. VARCHAR: a
/// stem of `stem` `x`s ([`STEMS`]) and up to `tail` more chars with NUL
/// and multi-byte UTF-8 among them, 27 bytes at most after the stem — or,
/// for a tail of [`SIBLINGS`], exactly two of `a` / `b`.
fn draw_value(ty: LogicalType, (stem, tail): (usize, u64), rng: &mut Rng) -> Value {
    macro_rules! int {
        ($variant:ident, $t:ty) => {{
            let edges = [<$t>::MIN, <$t>::MAX, 0, 1, <$t>::MAX - 1, <$t>::MIN + 1];
            Value::$variant(if rng.chance(0.33) {
                *rng.pick(&edges)
            } else {
                rng.next_u64() as $t
            })
        }};
    }
    macro_rules! float {
        ($variant:ident, $t:ident, $bits:expr) => {{
            let edges = [0.0, -0.0, $t::INFINITY, $t::NEG_INFINITY, $t::NAN, -$t::NAN];
            let more = [$t::MIN_POSITIVE, $t::MAX, $t::MIN, 1.5, -1.5];
            Value::$variant(match rng.below(3) {
                0 => *rng.pick(&edges),
                1 => *rng.pick(&more),
                _ => $t::from_bits($bits),
            })
        }};
    }
    match ty {
        LogicalType::Boolean => Value::Boolean(rng.chance(0.5)),
        LogicalType::Int8 => int!(Int8, i8),
        LogicalType::Int16 => int!(Int16, i16),
        LogicalType::Int32 => int!(Int32, i32),
        LogicalType::Int64 => int!(Int64, i64),
        LogicalType::UInt8 => int!(UInt8, u8),
        LogicalType::UInt16 => int!(UInt16, u16),
        LogicalType::UInt32 => int!(UInt32, u32),
        LogicalType::UInt64 => int!(UInt64, u64),
        LogicalType::Float32 => float!(Float32, f32, rng.next_u32()),
        LogicalType::Float64 => float!(Float64, f64, rng.next_u64()),
        LogicalType::Date => int!(Date, i32),
        LogicalType::Timestamp => int!(Timestamp, i64),
        LogicalType::Varchar => {
            let mut s = "x".repeat(stem);
            if tail == SIBLINGS {
                s.extend([*rng.pick(&['a', 'b']), *rng.pick(&['a', 'b'])]);
            } else {
                for _ in 0..rng.below(tail + 1) {
                    s.push(*rng.pick(&['\0', 'a', 'b', 'x', 'é', '錆']));
                }
            }
            Value::Varchar(s)
        }
    }
}

/// Stems a VARCHAR column's values share: none, or one that straddles a
/// key prefix — the 12 bytes of the paper's rule, which is also where the
/// sorters' planner starts looking for collisions, and [`PREFIX_CAP`],
/// where it stops. A column on a stem beyond the cap holds strings no
/// planned prefix separates, so truncation ties are generated whatever
/// the estimator picks.
const STEMS: [usize; 10] = [
    0,
    0,
    0,
    11,
    12,
    13,
    PREFIX_CAP - 1,
    PREFIX_CAP,
    PREFIX_CAP + 1,
    PREFIX_CAP + 8,
];

/// The VARCHAR tail shape whose four values all have the longest length
/// and differ from a sibling in their last byte only: on a stem of 11–13
/// the planner's prefix reaches the whole string, a column that is exact
/// beyond 12 bytes.
const SIBLINGS: u64 = 2;

/// A run size that cuts `n` rows into one, a few or a few dozen runs.
fn run_size(n: usize, rng: &mut Rng) -> usize {
    let runs = *rng.pick(&[1, 2, 3, 7, 16, 40]);
    (n / runs + rng.below(3) as usize).max(1)
}

/// The one case generator. `faults` decides whether every case carries a
/// fault-schedule seed (check 3, `stress`) or none (checks 1 and 2).
#[derive(Debug, Clone, Copy)]
pub struct CaseGen {
    pub faults: bool,
}

impl Gen for CaseGen {
    type Value = Case;

    fn generate(&self, rng: &mut Rng) -> Case {
        // Rows: none, a handful, a few runs' worth, or past the 2048-row
        // vector boundary.
        let n = match rng.below(10) {
            0 => rng.below(3),
            1..=5 => rng.range_inclusive(3, 64),
            6..=8 => rng.range_inclusive(65, 700),
            _ => rng.range_inclusive(1_500, 4_500),
        } as usize;
        let null_share = *rng.pick(&[0.0, 0.05, 0.3]);
        let ncols = rng.range_inclusive(1usize, 4);
        let mut types = Vec::new();
        let mut rows = vec![Vec::new(); n];
        for _ in 0..ncols {
            // VARCHAR is where keys can tie; it gets three draws in ten.
            let ty = if rng.chance(0.3) {
                LogicalType::Varchar
            } else {
                *rng.pick(&LogicalType::ALL)
            };
            let shape = (*rng.pick(&STEMS), *rng.pick(&[SIBLINGS, 3, 9]));
            // Duplicates: one value, a handful, or the type's full domain.
            let pool: Vec<Value> = (0..*rng.pick(&[1, 5, 0]))
                .map(|_| draw_value(ty, shape, rng))
                .collect();
            for row in &mut rows {
                row.push(if rng.chance(null_share) {
                    Value::Null
                } else if pool.is_empty() {
                    draw_value(ty, shape, rng)
                } else {
                    rng.pick(&pool).clone()
                });
            }
            types.push(ty);
        }
        let key = |column: usize, rng: &mut Rng| OrderByColumn {
            column,
            spec: SortSpec::new(
                *rng.pick(&[SortOrder::Ascending, SortOrder::Descending]),
                *rng.pick(&[NullOrder::NullsFirst, NullOrder::NullsLast]),
            ),
        };
        let mut columns: Vec<usize> = (0..ncols).collect();
        rng.shuffle(&mut columns);
        columns.truncate(rng.range_inclusive(1, ncols));
        let mut keys: Vec<OrderByColumn> = columns.into_iter().map(|c| key(c, rng)).collect();
        // Half the cases end in a unique id key: the order is total and
        // the output sequence exact.
        if rng.chance(0.5) {
            types.push(LogicalType::UInt32);
            for (id, row) in rows.iter_mut().enumerate() {
                row.push(Value::UInt32(id as u32));
            }
            keys.push(key(ncols, rng));
        }
        Case {
            types,
            rows,
            order: OrderBy::new(keys),
            options: Options {
                threads: rng.range_inclusive(1, 4),
                run_rows: run_size(n, rng),
                ovc: rng.chance(0.5),
                memory_limit_rows: run_size(n, rng),
                merge_threads: rng.range_inclusive(1, 4),
                faults: self.faults.then(|| rng.next_u64()),
            },
        }
    }

    /// Smaller cases, most aggressive first: without a block of rows
    /// (halves, then quarters, … single rows once the case is small),
    /// without a column, with a simpler option.
    fn shrink(&self, case: &Case) -> Vec<Case> {
        let mut out = Vec::new();
        let n = case.rows.len();
        let mut block = n + 1;
        while block > 1 && (n <= 64 || out.len() < 16) {
            block = block.div_ceil(2);
            for start in (0..n).step_by(block) {
                let mut smaller = case.clone();
                smaller.rows.drain(start..(start + block).min(n));
                out.push(smaller);
            }
        }
        for c in 0..case.types.len() {
            let keys = case.order.keys.iter().filter(|k| k.column != c);
            let keys: Vec<OrderByColumn> = keys
                .map(|k| OrderByColumn {
                    column: k.column - usize::from(k.column > c),
                    spec: k.spec,
                })
                .collect();
            if !keys.is_empty() {
                let mut smaller = case.clone();
                smaller.types.remove(c);
                smaller.rows.iter_mut().for_each(|row| drop(row.remove(c)));
                smaller.order = OrderBy::new(keys);
                out.push(smaller);
            }
        }
        let mut simpler = [case.options; 5];
        simpler[0].faults = None;
        simpler[1].threads = 1;
        simpler[2].merge_threads = 1;
        simpler[3].run_rows = n.max(1);
        simpler[4].memory_limit_rows = n.max(1);
        for options in simpler.into_iter().filter(|s| *s != case.options) {
            out.push(Case {
                options,
                ..case.clone()
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Entry points

/// Every way rows get sorted in this workspace.
#[derive(Debug, Clone, Copy)]
pub enum Entry {
    /// `SortPipeline::sort`.
    Pipeline,
    /// `ExternalSorter::sort` over a fault-free [`FaultFs`].
    External,
    /// `Engine::query` on the case's SQL, sorting as this system profile.
    Engine(SystemProfile),
    /// `Engine::query` under `ExecOptions::spill`.
    EngineSpill,
}

impl Entry {
    /// Whether rows that compare equal on every `ORDER BY` column must
    /// come out in input order. Both sorters are stable — radix run sorts,
    /// key-equal ranges ordered by row id last, merges that prefer the
    /// earlier run — and so is everything built on them. The four emulated
    /// systems are not, and are held to the multiset only: they sort
    /// indices or row pointers with pdqsort under a tuple comparator that
    /// has no tie-break, as the systems they stand for do.
    pub fn is_stable(self) -> bool {
        match self {
            Entry::Pipeline | Entry::External | Entry::EngineSpill => true,
            Entry::Engine(profile) => profile == SystemProfile::RowsortDb,
        }
    }
}

fn pipeline(case: &Case, threads: usize, run_rows: usize, ovc: bool) -> SortPipeline {
    let options = SortOptions {
        threads,
        run_rows,
        ovc,
    };
    SortPipeline::new(case.types.clone(), case.order.clone(), options)
}

fn no_faults() -> FaultFs {
    FaultFs::new(FaultSchedule::none())
}

fn external(
    case: &Case,
    memory_limit_rows: usize,
    merge_threads: usize,
    ovc: bool,
    fs: FaultFs,
) -> ExternalSorter {
    let options = ExternalSortOptions {
        memory_limit_rows,
        spill_dir: None,
        max_write_retries: 3,
        retry_backoff: Duration::from_micros(5),
        ovc,
        merge_threads,
    };
    ExternalSorter::with_spill_io(
        case.types.clone(),
        case.order.clone(),
        options,
        Arc::new(fs),
    )
}

/// `chunk` (the case's rows) sorted through `entry` under the case's options.
fn sort_through(case: &Case, chunk: &DataChunk, entry: Entry) -> Result<DataChunk, String> {
    let o = case.options;
    let engine = |profile, spill| {
        let mut engine = Engine::with_options(ExecOptions {
            profile,
            threads: o.threads,
            spill,
        });
        let names = (0..case.types.len()).map(|c| format!("c{c}")).collect();
        engine.register_table(Table::new("t", names, chunk.clone()));
        let sql = format!("SELECT * FROM t ORDER BY {}", case.order_sql());
        engine.query(&sql).map_err(|e| format!("{sql}: {e}"))
    };
    match entry {
        Entry::Pipeline => Ok(pipeline(case, o.threads, o.run_rows, o.ovc).sort(chunk)),
        Entry::External => {
            let sorter = external(
                case,
                o.memory_limit_rows,
                o.merge_threads,
                o.ovc,
                no_faults(),
            );
            sorter.sort(chunk).map_err(|e| e.to_string())
        }
        Entry::Engine(profile) => engine(profile, None),
        Entry::EngineSpill => engine(
            SystemProfile::RowsortDb,
            Some(SpillExecOptions {
                memory_limit_rows: o.memory_limit_rows,
                spill_dir: None,
            }),
        ),
    }
}

// ---------------------------------------------------------------------------
// The checks

/// Rows rendered for comparison: `Value`'s `Debug`, a float with its bits
/// (`NaN != NaN`, and the order tells NaN payloads and the two zeros apart).
fn canon(rows: &[Vec<Value>]) -> Vec<String> {
    let cell = |v: &Value| match v {
        Value::Float32(f) => format!("{f:?}#{:x}", f.to_bits()),
        Value::Float64(f) => format!("{f:?}#{:x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    let line = |row: &Vec<Value>| row.iter().map(cell).collect::<Vec<_>>().join(", ");
    rows.iter().map(line).collect()
}

/// The one sorted-permutation check: `got` is in order under the case's
/// `ORDER BY` and holds the rows of `want` (the reference sort) — in the
/// reference's exact sequence when the sort is `stable` or no two rows
/// compare equal.
fn check_rows(
    case: &Case,
    got: &DataChunk,
    want: &[Vec<Value>],
    stable: bool,
    what: &str,
) -> PropResult {
    let got = got.to_rows();
    let cmp = |w: &[Vec<Value>]| case.order.compare_rows(&w[0], &w[1]);
    if let Some(i) = got.windows(2).position(|w| cmp(w) == Ordering::Greater) {
        let (a, b) = (&got[i], &got[i + 1]);
        return Err(format!("{what}: out of order at row {i}: {a:?} then {b:?}"));
    }
    let exact = stable || want.windows(2).all(|w| cmp(w) != Ordering::Equal);
    let (mut got, mut want) = (canon(&got), canon(want));
    if !exact {
        got.sort();
        want.sort();
    }
    if got == want {
        Ok(())
    } else if exact {
        Err(format!("{what}: not the reference's row sequence"))
    } else {
        Err(format!("{what}: not the input's multiset of rows"))
    }
}

/// Check 1: every entry of `entries` against the reference sort.
pub fn check_reference(case: &Case, entries: &[Entry]) -> PropResult {
    let (chunk, want) = (case.chunk(), case.reference());
    for &entry in entries {
        let got = sort_through(case, &chunk, entry)?;
        check_rows(case, &got, &want, entry.is_stable(), &format!("{entry:?}"))?;
    }
    Ok(())
}

/// What the two sorters must agree on to be one sorter: the same runs
/// (`RunsGenerated`, `RadixPasses`), the same merge work (`MergeCmps`) and
/// the same key ranges (`MergeMaxRangeRows`).
const SORTER_WORK: [Counter; 4] = [
    Counter::RunsGenerated,
    Counter::RadixPasses,
    Counter::MergeCmps,
    Counter::MergeMaxRangeRows,
];

/// [`SORTER_WORK`] of one sort by the pipeline and one by the external
/// sorter, each on `threads` threads with runs of `run_rows` rows.
pub fn sorter_counters(case: &Case, run_rows: usize, threads: usize, ovc: bool) -> [[u64; 4]; 2] {
    let chunk = case.chunk();
    let of = |m: rowsort_core::Metrics| SORTER_WORK.map(|c| m.counter(c));
    let in_memory = pipeline(case, threads, run_rows, ovc);
    drop(in_memory.sort(&chunk));
    let spilling = external(case, run_rows, threads, ovc, no_faults());
    let spilled = spilling.sort(&chunk);
    assert!(spilled.is_ok(), "no fault was injected: {spilled:?}");
    [of(in_memory.metrics()), of(spilling.metrics())]
}

/// Check 2: bit-identity inside an entry point, at both of the case's run
/// sizes. Pipeline vectors are equal ([`same_vectors`]) across threads ×
/// `ovc` × a warmed pool; external rows are equal across merge threads ×
/// `ovc` and equal to the pipeline's; and the two sorters are one sorter:
/// at one thread and at the case's thread count, a sort of two or more
/// runs generates the same runs, cuts the same key ranges and makes the
/// same merge comparisons in either.
pub fn check_bit_identity(case: &Case) -> PropResult {
    let chunk = case.chunk();
    let o = case.options;
    let configs = |threads| [(1, true), (1, false), (threads, true), (threads, false)];
    for run_rows in [o.run_rows, o.memory_limit_rows] {
        let mut first: Option<DataChunk> = None;
        for (threads, ovc) in configs(o.threads) {
            let sorter = pipeline(case, threads, run_rows, ovc);
            for pool in ["cold", "warm"] {
                let sorted = sorter.sort(&chunk);
                if !same_vectors(first.get_or_insert_with(|| sorted.clone()), &sorted) {
                    return Err(format!(
                        "pipeline vectors at run_rows={run_rows} threads={threads} \
                         ovc={ovc} ({pool} pool) differ from one thread's with ovc on"
                    ));
                }
            }
        }
        let rows = first.map_or(Vec::new(), |sorted| canon(&sorted.to_rows()));
        for (threads, ovc) in configs(o.merge_threads) {
            let sorted = external(case, run_rows, threads, ovc, no_faults()).sort(&chunk);
            if canon(&sorted.map_err(|e| e.to_string())?.to_rows()) != rows {
                return Err(format!(
                    "external rows at budget={run_rows} merge_threads={threads} ovc={ovc} \
                     differ from the pipeline's at the same run size"
                ));
            }
        }
        let runs = case.rows.len().div_ceil(run_rows) as u64;
        for threads in [1, o.threads] {
            let [in_memory, spilling] = sorter_counters(case, run_rows, threads, o.ovc);
            // One thread merges in one range, where two runs always meet.
            let merged = threads > 1 || (runs > 1) == (in_memory[2] > 0);
            if (runs > 1 && in_memory != spilling) || in_memory[0] != runs || !merged {
                return Err(format!(
                    "[runs_generated, radix_passes, merge_cmps, merge_max_range_rows] at \
                     run_rows={run_rows} threads={threads} ovc={}: pipeline {in_memory:?}, \
                     external {spilling:?}, expected {runs} runs",
                    o.ovc
                ));
            }
        }
    }
    Ok(())
}

/// Whether two chunks hold the same vectors bit for bit: types, validity
/// masks in their one canonical form, and every value slot — a NULL's
/// placeholder included, floats by their bits (`NaN != NaN`).
fn same_vectors(a: &DataChunk, b: &DataChunk) -> bool {
    let same = |(x, y): (&rowsort_vector::Vector, &rowsort_vector::Vector)| {
        x.validity() == y.validity()
            && match (x.data(), y.data()) {
                (VectorData::Float32(x), VectorData::Float32(y)) => x
                    .iter()
                    .map(|f| f.to_bits())
                    .eq(y.iter().map(|f| f.to_bits())),
                (VectorData::Float64(x), VectorData::Float64(y)) => x
                    .iter()
                    .map(|f| f.to_bits())
                    .eq(y.iter().map(|f| f.to_bits())),
                (x, y) => x == y,
            }
    };
    a.column_count() == b.column_count() && a.columns().iter().zip(b.columns()).all(same)
}

/// Thread counts [`check_twins_agree`] holds the twins to: one range, an
/// even and an odd split, and more workers than most cases have ranges.
const TWIN_THREADS: [usize; 4] = [1, 2, 3, 8];

/// Check 4: `SortPipeline::sort` merges straight into vectors; what it
/// returns is, bit for bit, what the `ovc: false` sort — the same merge on
/// whole keys — returns, at each of [`TWIN_THREADS`]; and the external
/// sorter, gathering out of run files at as many merge threads, returns
/// the same vectors again.
pub fn check_twins_agree(case: &Case) -> PropResult {
    let chunk = case.chunk();
    let run_rows = case.options.run_rows;
    let mut first: Option<DataChunk> = None;
    for threads in TWIN_THREADS {
        let vectors = pipeline(case, threads, run_rows, true).sort(&chunk);
        let plain = pipeline(case, threads, run_rows, false).sort(&chunk);
        let spilled = external(case, run_rows, threads, true, no_faults()).sort(&chunk);
        let twins = [
            ("the ovc-off sort", plain),
            ("the spilled sort", spilled.map_err(|e| e.to_string())?),
        ];
        for (what, twin) in &twins {
            if !same_vectors(&vectors, twin) {
                return Err(format!(
                    "sort() at run_rows={run_rows} threads={threads} differs from {what}"
                ));
            }
        }
        if !same_vectors(&vectors, first.get_or_insert_with(|| vectors.clone())) {
            return Err(format!(
                "sort() at run_rows={run_rows} threads={threads} differs from one thread's"
            ));
        }
    }
    Ok(())
}

/// The NSM → DSM kernel on bytes no sort produces: a `from_raw_parts`
/// block whose heap is not UTF-8 string by string. Whole, in any order,
/// and cut into pieces anywhere — a piece falls back on its own — every
/// string reads as its own lossy conversion, the way [`RowBlock::value`]
/// reads it.
pub fn check_lossy_block() -> PropResult {
    let layout = std::sync::Arc::new(RowLayout::new(&[LogicalType::Varchar, LogicalType::Int16]));
    // "ab", a lone 0xFF, "é" cut between two strings (valid as a whole,
    // not string by string), an empty string, and NULLs over garbage slots.
    let heap = [b'a', b'b', 0xFF, b'x', 0xC3, 0xA9, b'y', b'z'];
    let slots = [
        Some((0, 2)),
        None,
        Some((2, 1)),
        Some((3, 2)),
        Some((5, 2)),
        Some((8, 0)),
        None,
        Some((7, 1)),
    ];
    let width = layout.width();
    let mut data = vec![0u8; slots.len() * 30 * width];
    for (i, row) in data.chunks_exact_mut(width).enumerate() {
        let (off, len) = slots[i % slots.len()].unwrap_or((0xDEAD_BEEF, u32::MAX));
        row[layout.null_offset(0)] = u8::from(slots[i % slots.len()].is_none());
        row[layout.offset(0)..][..4].copy_from_slice(&u32::to_le_bytes(off));
        row[layout.offset(0) + 4..][..4].copy_from_slice(&u32::to_le_bytes(len));
        row[layout.offset(1)..][..2].copy_from_slice(&(i as i16).to_le_bytes());
    }
    let block = RowBlock::from_raw_parts(layout.clone(), data, heap.to_vec());
    let n = block.len();
    let want: Vec<Vec<Value>> = (0..n)
        .map(|r| vec![block.value(r, 0), block.value(r, 1)])
        .collect();
    if block.to_chunk().to_rows() != want {
        return Err("to_chunk is not the per-string lossy read".into());
    }
    let reversed: Vec<u32> = (0..n as u32).rev().collect();
    let mut backwards = block.gather(&reversed).to_rows();
    backwards.reverse();
    if backwards != want {
        return Err("gather(reversed) is not the per-string lossy read".into());
    }
    for cut in 0..=n {
        let mut builder = ChunkBuilder::new(layout.types(), n);
        let pieces = builder.pieces(&layout, [cut, n - cut], |_| 0);
        let mut tails = Vec::new();
        let mut at = 0;
        for mut piece in pieces {
            let bytes = &block.data()[at * width..][..piece.rows() * width];
            piece.push_rows(bytes, block.heap())?;
            at += piece.rows();
            tails.push(piece.finish());
        }
        let joined = builder.finish(tails);
        if !same_vectors(&joined, &block.to_chunk()) {
            return Err(format!(
                "pieces of {cut} and {} rows differ from the whole",
                n - cut
            ));
        }
    }
    Ok(())
}

/// What [`check_faults`] saw.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The typed error the sort failed with; `None` if it survived
    /// injection and matched the reference.
    pub error: Option<SpillError>,
    /// Faults from the schedule that actually fired.
    pub faults_fired: u64,
    /// Run files left behind because injected faults blocked deletion
    /// (must equal the sorter's `spill_cleanup_failed` counter).
    pub leaked_files: u64,
    /// Whether the sorter degraded to in-memory runs (ENOSPC ladder).
    pub degraded: bool,
    /// Invariant violations (empty on a clean case).
    pub violations: Vec<String>,
}

/// Check 3: the external sorter over a [`FaultFs`] injecting the case's
/// fault schedule. Faults the sorter absorbed (retried writes, ENOSPC
/// degradation, double deletes) must be invisible in an `Ok` result; an
/// `Err` must be typed, name its file and agree with the metrics; a live
/// file is legitimate only if deleting it failed, and is counted.
pub fn check_faults(case: &Case) -> FaultReport {
    let (chunk, o) = (case.chunk(), case.options);
    // Rough sizing: the schedule only needs its offsets to land inside the
    // files and bytes the sort will produce.
    let files = case.rows.len() / o.memory_limit_rows + 2;
    let bytes = (case.rows.len() as u64 + 1) * (16 * case.types.len() as u64 + 16);
    let schedule = match o.faults {
        Some(seed) => FaultSchedule::generate(&mut Rng::seed_from_u64(seed), files, bytes),
        None => FaultSchedule::none(),
    };
    let fs = FaultFs::new(schedule);
    let sorter = external(
        case,
        o.memory_limit_rows,
        o.merge_threads,
        o.ovc,
        fs.clone(),
    );
    let result = sorter.sort(&chunk);
    let metrics = sorter.metrics();
    let mut violations = Vec::new();
    let mut check = |ok: bool, message: &str| {
        if !ok {
            violations.push(message.to_owned());
        }
    };
    let error = match &result {
        Ok(sorted) => {
            let stable = Entry::External.is_stable();
            let checked = check_rows(case, sorted, &case.reference(), stable, "under faults");
            if let Err(message) = checked {
                check(false, &message);
            }
            check(
                chunk.is_empty() || metrics.counter(Counter::SortCalls) == 1,
                "surviving sort not recorded in metrics",
            );
            // Absorbed faults are invisible down to the order within ties:
            // run `i` holds the same rows whatever the disk did, in memory
            // or in a file.
            let clean = external(case, o.memory_limit_rows, 1, o.ovc, no_faults());
            let same = |c: DataChunk| canon(&c.to_rows()) == canon(&sorted.to_rows());
            check(
                clean.sort(&chunk).is_ok_and(same),
                "rows differ from a fault-free one-threaded sort's",
            );
            None
        }
        Err(err) => {
            check(
                !err.path().is_empty(),
                "spill error does not name the failing file",
            );
            check(
                metrics.counter(Counter::SortCalls) == 0,
                "failed sort recorded as completed",
            );
            check(
                matches!(err, SpillError::Io { .. })
                    || metrics.counter(Counter::SpillChecksumFailed) >= 1,
                "corruption error without a checksum-failure count",
            );
            Some(err.clone())
        }
    };
    let leaked = fs.live_files().len() as u64;
    let counted = metrics.counter(Counter::SpillCleanupFailed);
    check(
        leaked == counted,
        &format!("leaked {leaked} run files but counted {counted} cleanup failures"),
    );
    FaultReport {
        error,
        faults_fired: fs.stats().faults_fired(),
        leaked_files: leaked,
        degraded: metrics.counter(Counter::SpillMemFallbackRuns) > 0,
        violations,
    }
}

/// Composite-key order isomorphism (§V): the `KeyBlock` keys of any two
/// rows compare bytewise the way `compare_rows` compares the rows on the
/// encoded key columns — the `ORDER BY` up to and including its first
/// truncated VARCHAR. Byte-equal keys imply equal values on every column
/// before that one, and `tie_possible()` exactly when the rows may still
/// differ (some string of the last encoded column outgrows its prefix).
/// Checked on neighbours in key-byte order, which by transitivity is every
/// pair — under the layout the sorters plan for the case
/// ([`KeyBlock::planned`]: prefixes sized from the strings) and under the
/// paper's 12-byte rule ([`KeyBlock::new`]).
pub fn check_key_order(case: &Case) -> PropResult {
    let chunk = case.chunk();
    let longest = |c: usize| chunk.column(c).as_strings().map_or(0, |s| s.max_len());
    key_order_holds(case, &chunk, KeyBlock::planned(&chunk, &case.order))?;
    key_order_holds(
        case,
        &chunk,
        KeyBlock::new(&case.types, &case.order, longest),
    )
}

fn key_order_holds(case: &Case, chunk: &DataChunk, mut block: KeyBlock) -> PropResult {
    block.append_chunk(chunk);
    let encoded = block.layout().column_count();
    // A layout that calls an exact key ambiguous is a plan that sends rows
    // to the comparator for nothing, and drops later columns from the key.
    let last = block
        .layout()
        .columns()
        .last()
        .zip(case.order.keys.get(encoded - 1));
    let outgrown = last.is_some_and(|(col, key)| {
        let strings = chunk.column(key.column).as_strings();
        strings.is_some_and(|s| s.max_len() > col.prefix_len)
    });
    if block.tie_possible() != outgrown {
        return Err(format!(
            "tie_possible={} but the last encoded column's strings {} its prefix: {:?}",
            block.tie_possible(),
            if outgrown { "outgrow" } else { "fit" },
            block.layout().columns().last()
        ));
    }
    let exact = encoded - usize::from(block.tie_possible());
    let keys = &case.order.keys;
    let encoded = OrderBy::new(keys[..encoded].to_vec());
    let exact = OrderBy::new(keys[..exact].to_vec());

    let mut by_key: Vec<usize> = (0..case.rows.len()).collect();
    by_key.sort_by(|&i, &j| block.key(i).cmp(block.key(j)));
    for pair in by_key.windows(2) {
        let (a, b) = (&case.rows[pair[0]], &case.rows[pair[1]]);
        let ok = match block.key(pair[0]).cmp(block.key(pair[1])) {
            Ordering::Equal => {
                exact.compare_rows(a, b) == Ordering::Equal
                    && (block.tie_possible() || case.order.compare_rows(a, b) == Ordering::Equal)
            }
            bytes => encoded.compare_rows(a, b) == bytes,
        };
        if !ok {
            return Err(format!(
                "key bytes {:02x?} and {:02x?} (tie_possible={}) do not order {a:?} and {b:?} \
                 the way compare_rows does",
                block.key(pair[0]),
                block.key(pair[1]),
                block.tie_possible()
            ));
        }
    }
    Ok(())
}

/// The plan is a function of the input alone: at every `threads` ×
/// `run_rows` × `ovc` the pipeline, and at every budget × `merge_threads`
/// × `ovc` the external sorter, report the key width and VARCHAR prefix of
/// [`KeyBlock::planned`] for the case's rows in their profiles.
pub fn check_plan_is_input_wide(case: &Case) -> PropResult {
    let chunk = case.chunk();
    if chunk.is_empty() {
        return Ok(()); // an empty input records no sort
    }
    let o = case.options;
    let planned = KeyBlock::planned(&chunk, &case.order);
    let varchars = planned.layout().columns().iter();
    let varchars = varchars.filter(|c| c.ty == LogicalType::Varchar);
    let prefix = varchars.map(|c| c.prefix_len).max().unwrap_or(0);
    let want = (planned.key_width() as u32, prefix as u32);
    let of = |p: rowsort_core::SortProfile| (p.key_width, p.varchar_prefix);
    for run_rows in [o.run_rows, o.memory_limit_rows] {
        for (threads, merge_threads) in [(1, 1), (o.threads, o.merge_threads)] {
            for ovc in [true, false] {
                let sorter = pipeline(case, threads, run_rows, ovc);
                drop(sorter.sort(&chunk));
                let got = of(sorter.last_profile());
                if got != want {
                    return Err(format!(
                        "pipeline at run_rows={run_rows} threads={threads} ovc={ovc} planned \
                         (key_width, prefix) {got:?}, KeyBlock::planned {want:?}"
                    ));
                }
                let sorter = external(case, run_rows, merge_threads, ovc, no_faults());
                sorter.sort(&chunk).map_err(|e| e.to_string())?;
                let got = of(sorter.last_profile());
                if got != want {
                    return Err(format!(
                        "external at budget={run_rows} merge_threads={merge_threads} ovc={ovc} \
                         planned (key_width, prefix) {got:?}, KeyBlock::planned {want:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Named fixed inputs

/// A fixed case: `ORDER BY` the `keys` columns ascending, four threads,
/// runs of `run_rows` rows in both sorters.
fn fixed(types: &[LogicalType], rows: Vec<Vec<Value>>, keys: &[usize], run_rows: usize) -> Case {
    Case {
        types: types.to_vec(),
        rows,
        order: OrderBy::new(keys.iter().map(|&c| OrderByColumn::asc(c)).collect()),
        options: Options {
            threads: 4,
            run_rows,
            ovc: true,
            memory_limit_rows: run_rows,
            merge_threads: 4,
            faults: None,
        },
    }
}

/// An integer key cannot tie on equal bytes, whatever the payload holds:
/// the same 13-valued keys with and without a VARCHAR payload column, for
/// [`sorter_counters`] to show equal `MergeCmps` on.
pub fn int_key_with_and_without_payload() -> [Case; 2] {
    let mut rng = Rng::seed_from_u64(44);
    let payload = |i: usize| match i % 5 {
        0 => Value::Null,
        _ => Value::from(format!("payload-{i}")),
    };
    let rows: Vec<Vec<Value>> = (0..2_000)
        .map(|i| vec![Value::Int32(rng.below(13) as i32), payload(i)])
        .collect();
    let bare = rows.iter().map(|row| row[..1].to_vec()).collect();
    [
        fixed(&[LogicalType::Int32, LogicalType::Varchar], rows, &[0], 150),
        fixed(&[LogicalType::Int32], bare, &[0], 150),
    ]
}

/// A VARCHAR key whose strings outgrow 12 bytes and never share their
/// first 12: the planner's sample holds no collision, so it must plan the
/// paper's layout, byte for byte what [`KeyBlock::new`] plans — and every
/// counter of the sort stays what it was before prefixes were sized from
/// data.
pub fn no_twelve_byte_collision() -> Case {
    let rows = (0..3_000u32).map(|i| {
        let distinct = i * 7_919 % 1_000_003; // prime modulus: no two alike
        let name = Value::from(format!("{distinct:012}_and_a_tail_{}", i % 7));
        vec![name, Value::Int32((i % 11) as i32)]
    });
    let types = [LogicalType::Varchar, LogicalType::Int32];
    fixed(&types, rows.collect(), &[0, 1], 400)
}

/// 1 800 rows of nullable names and numbers, for a run size above it.
fn lone_run() -> Vec<Vec<Value>> {
    let row = |i: i32| {
        let name = match i % 9 {
            0 => Value::Null,
            _ => Value::from(format!("name-{}", i * 37 % 400)),
        };
        vec![name, Value::Int32(i % 13)]
    };
    (0..1_800).map(row).collect()
}

/// Inputs that earned a name, for the same entry points and checks.
pub fn named_cases() -> Vec<(&'static str, Case)> {
    let types = [LogicalType::Varchar, LogicalType::Int32];
    // `ORDER BY s, n`: both strings encode the same 12-byte prefix, and
    // n's key bytes used to decide the pair backwards (fixed in PR 10).
    let roadmap_pair = vec![
        vec![Value::from("x".repeat(44)), Value::Int32(44)],
        vec![Value::from("x".repeat(12)), Value::Int32(72)],
    ];
    // Every splitter collapses to one byte string: one range gets all rows.
    let all_null = (0..3_000).map(|i| vec![Value::Null, Value::Int32(i)]);
    let [with_payload, _] = int_key_with_and_without_payload();
    // Two key values, the lower on rows 0..1037: every splitter is one of
    // them, so the four key ranges are empty or begin at row 0 or 1037 —
    // inside a validity word, with NULL payloads on both sides of it.
    let nullable = |i: u32, v: Value| if i % 3 == 0 { Value::Null } else { v };
    let two_keys = (0..3_000u32).map(|i| {
        let text = Value::from(format!("payload-{i}"));
        let key = Value::Int32(i32::from(i >= 1_037));
        vec![
            key,
            nullable(i, Value::Int64(i.into())),
            nullable(i + 1, text),
        ]
    });
    let two_key_types = [LogicalType::Int32, LogicalType::Int64, LogicalType::Varchar];
    // VARCHAR columns whose pieces hold no bytes at all: every row NULL,
    // every row the empty string.
    let hollow = (0..2_000).map(|i| vec![Value::Int32(i * 7 % 500), Value::Null, Value::from("")]);
    let hollow_types = [
        LogicalType::Int32,
        LogicalType::Varchar,
        LogicalType::Varchar,
    ];
    // Three VARCHAR columns, so a record's strings go to three buffers,
    // NULLs and empties at different strides in each.
    let text = |i: u32, stride: u32, tag: &str| match i % stride {
        0 => Value::Null,
        1 => Value::from(""),
        _ => Value::from(format!("{tag}{}é", i % 211)),
    };
    let three_strings = (0..2_500u32).map(|i| {
        vec![
            text(i, 5, "a"),
            text(i, 7, "bb"),
            text(i, 11, "ccc"),
            Value::UInt32(i),
        ]
    });
    let string_types = [
        LogicalType::Varchar,
        LogicalType::Varchar,
        LogicalType::Varchar,
        LogicalType::UInt32,
    ];
    vec![
        ("ROADMAP pair", fixed(&types, roadmap_pair, &[0, 1], 1)),
        (
            "all-NULL keys",
            fixed(&types, all_null.collect(), &[0], 300),
        ),
        ("integer key, VARCHAR payload", with_payload),
        ("no 12-byte collision", no_twelve_byte_collision()),
        (
            "a range boundary inside a validity word, and empty ranges",
            fixed(&two_key_types, two_keys.collect(), &[0], 400),
        ),
        (
            "all-NULL and all-empty VARCHAR columns",
            fixed(&hollow_types, hollow.collect(), &[0], 300),
        ),
        (
            "three VARCHAR columns",
            fixed(&string_types, three_strings.collect(), &[1, 3], 350),
        ),
        // One run: nothing merges, the run drains into the vectors.
        ("a lone run", fixed(&types, lone_run(), &[0, 1], 5_000)),
    ]
}
