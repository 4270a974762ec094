//! Named tables over in-memory columnar storage, each with the key
//! statistics its sorts take (DESIGN.md §6, "A table's statistics").

use rowsort_core::TableStats;
use rowsort_vector::{DataChunk, LogicalType};
use std::collections::HashMap;

/// A registered table: name, named schema, and fully materialized data.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name as referenced in SQL.
    pub name: String,
    /// Column names, in schema order.
    pub column_names: Vec<String>,
    /// The rows.
    pub data: DataChunk,
}

impl Table {
    /// Build a table, checking the name list matches the data arity.
    pub fn new(name: impl Into<String>, column_names: Vec<String>, data: DataChunk) -> Table {
        assert_eq!(
            column_names.len(),
            data.column_count(),
            "column name count must match data arity"
        );
        Table {
            name: name.into(),
            column_names,
            data,
        }
    }

    /// Index of a column by name (case-insensitive, like SQL).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.column_names
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Column types in schema order.
    pub fn types(&self) -> Vec<LogicalType> {
        self.data.types()
    }
}

/// The table registry.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Registered>,
}

/// A table, and the key statistics the sorts of its rows took.
#[derive(Debug)]
struct Registered {
    table: Table,
    stats: TableStats,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register (or replace) a table under its lower-cased name, with
    /// empty key statistics: the first sort that keys on a column takes
    /// its statistics, and a replaced table's go with it.
    pub fn register(&mut self, table: Table) {
        let stats = TableStats::new(&table.data);
        let name = table.name.to_lowercase();
        self.tables.insert(name, Registered { table, stats });
    }

    /// Look up a table (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_lowercase()).map(|r| &r.table)
    }

    /// The key statistics of a table's rows (case-insensitive), for a sort
    /// of those rows as they lie and nothing else.
    pub fn stats(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(&name.to_lowercase()).map(|r| &r.stats)
    }

    /// Names of all registered tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables
            .values()
            .map(|r| r.table.name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowsort_vector::Vector;

    fn sample() -> Table {
        let data = DataChunk::from_columns(vec![Vector::from_i32s(vec![1, 2])]).unwrap();
        Table::new("T1", vec!["a".into()], data)
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.register(sample());
        assert!(c.get("t1").is_some());
        assert!(c.get("T1").is_some());
        assert!(c.get("nope").is_none());
        assert_eq!(c.table_names(), vec!["T1"]);
    }

    #[test]
    fn column_index_case_insensitive() {
        let t = sample();
        assert_eq!(t.column_index("A"), Some(0));
        assert_eq!(t.column_index("b"), None);
    }

    #[test]
    #[should_panic(expected = "match data arity")]
    fn arity_mismatch_panics() {
        let data = DataChunk::from_columns(vec![Vector::from_i32s(vec![1])]).unwrap();
        let _ = Table::new("bad", vec!["a".into(), "b".into()], data);
    }
}
