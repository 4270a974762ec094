//! Batches of equal-length vectors.

use crate::types::LogicalType;
use crate::value::Value;
use crate::vector::Vector;
use crate::{Result, VectorError};

/// The standard vector (batch) size, matching DuckDB's default of 2048 rows.
///
/// Vectorized engines pick a batch size large enough to amortize
/// interpretation overhead and small enough that a batch of a few columns
/// stays cache-resident — the paper leans on both properties when arguing
/// that DSM→NSM conversion can be done "one block of vectors at a time".
pub const VECTOR_SIZE: usize = 2048;

/// A batch of columns with one shared length — what flows between operators
/// in a vectorized engine.
#[derive(Debug, Clone, PartialEq)]
pub struct DataChunk {
    columns: Vec<Vector>,
    len: usize,
}

impl DataChunk {
    /// An empty chunk with the given column types.
    pub fn new(types: &[LogicalType]) -> DataChunk {
        DataChunk {
            columns: types.iter().map(|&t| Vector::new(t)).collect(),
            len: 0,
        }
    }

    /// Assemble a chunk from pre-built columns; all must share one length.
    pub fn from_columns(columns: Vec<Vector>) -> Result<DataChunk> {
        let len = columns.first().map_or(0, Vector::len);
        for c in &columns {
            if c.len() != len {
                return Err(VectorError::LengthMismatch {
                    expected: len,
                    got: c.len(),
                });
            }
        }
        Ok(DataChunk { columns, len })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Borrow column `i`.
    pub fn column(&self, i: usize) -> &Vector {
        &self.columns[i]
    }

    /// Borrow all columns.
    pub fn columns(&self) -> &[Vector] {
        &self.columns
    }

    /// The logical types of all columns, in order.
    pub fn types(&self) -> Vec<LogicalType> {
        self.columns.iter().map(Vector::logical_type).collect()
    }

    /// Append one row of boxed values (one per column).
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity {} != column count {}",
            row.len(),
            self.columns.len()
        );
        for (col, val) in self.columns.iter_mut().zip(row) {
            col.push(val)?;
        }
        self.len += 1;
        Ok(())
    }

    /// Read row `idx` as boxed values.
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    /// Gather rows by index into a new chunk.
    pub fn take(&self, indices: &[usize]) -> DataChunk {
        DataChunk {
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            len: indices.len(),
        }
    }

    /// Take the chunk apart into its columns.
    pub fn into_columns(self) -> Vec<Vector> {
        self.columns
    }

    /// Append all rows of another chunk with the same schema. On a type
    /// mismatch nothing is appended: `self` is left as it was.
    pub fn append(&mut self, other: &DataChunk) -> Result<()> {
        assert_eq!(
            self.column_count(),
            other.column_count(),
            "appending chunk with different arity"
        );
        // Every column's type before any column's rows: an error half-way
        // would leave the earlier columns longer than `len`.
        for (a, b) in self.columns.iter().zip(other.columns.iter()) {
            if a.logical_type() != b.logical_type() {
                return Err(VectorError::TypeMismatch {
                    expected: a.logical_type(),
                    got: b.logical_type().name().to_owned(),
                });
            }
        }
        for (a, b) in self.columns.iter_mut().zip(other.columns.iter()) {
            a.append(b)?;
        }
        self.len += other.len;
        Ok(())
    }

    /// Split a large chunk into [`VECTOR_SIZE`]-row chunks (the last may be
    /// shorter). A chunk already within the limit is returned as one piece.
    pub fn split_into_vectors(&self) -> Vec<DataChunk> {
        if self.len <= VECTOR_SIZE {
            return vec![self.clone()];
        }
        let mut out = Vec::with_capacity(self.len.div_ceil(VECTOR_SIZE));
        let mut start = 0;
        while start < self.len {
            let end = (start + VECTOR_SIZE).min(self.len);
            out.push(self.slice(start, end));
            start = end;
        }
        out
    }

    /// Materialize every row as boxed values — the test-suite ground truth
    /// representation.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Copy out rows `start..end` as a new chunk (typed path, no boxed
    /// values) — what `LIMIT`/`OFFSET` and [`DataChunk::split_into_vectors`]
    /// cut a relation with.
    pub fn slice(&self, start: usize, end: usize) -> DataChunk {
        DataChunk {
            columns: self.columns.iter().map(|c| c.slice(start, end)).collect(),
            len: end - start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataChunk {
        let mut c = DataChunk::new(&[LogicalType::UInt32, LogicalType::Varchar]);
        c.push_row(&[Value::UInt32(2), Value::from("b")]).unwrap();
        c.push_row(&[Value::UInt32(1), Value::from("a")]).unwrap();
        c.push_row(&[Value::Null, Value::from("n")]).unwrap();
        c
    }

    #[test]
    fn push_and_read_rows() {
        let c = sample();
        assert_eq!(c.len(), 3);
        assert_eq!(c.column_count(), 2);
        assert_eq!(c.row(0), vec![Value::UInt32(2), Value::from("b")]);
        assert_eq!(c.row(2), vec![Value::Null, Value::from("n")]);
        assert_eq!(c.types(), vec![LogicalType::UInt32, LogicalType::Varchar]);
    }

    #[test]
    fn from_columns_checks_lengths() {
        let a = Vector::from_u32s(vec![1, 2]);
        let b = Vector::from_u32s(vec![1]);
        assert!(matches!(
            DataChunk::from_columns(vec![a, b]),
            Err(VectorError::LengthMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn from_columns_happy_path() {
        let a = Vector::from_u32s(vec![1, 2]);
        let b = Vector::from_strings(["x", "y"]);
        let c = DataChunk::from_columns(vec![a, b]).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn take_reorders_rows() {
        let c = sample();
        let g = c.take(&[1, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.row(0), vec![Value::UInt32(1), Value::from("a")]);
        assert_eq!(g.row(1), vec![Value::UInt32(2), Value::from("b")]);
    }

    #[test]
    fn append_concatenates() {
        let mut a = sample();
        let b = sample();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a.row(3), b.row(0));
    }

    #[test]
    fn failed_append_leaves_chunk_untouched() {
        let mut a = sample();
        let before = a.clone();
        // Column 0 matches, column 1 does not: nothing may be appended.
        let b = DataChunk::from_columns(vec![
            Vector::from_u32s(vec![7, 8]),
            Vector::from_i32s(vec![7, 8]),
        ])
        .unwrap();
        assert!(matches!(
            a.append(&b),
            Err(VectorError::TypeMismatch {
                expected: LogicalType::Varchar,
                ..
            })
        ));
        assert_eq!(a, before);
        assert_eq!(a.to_rows(), before.to_rows());
    }

    #[test]
    fn into_columns_returns_the_columns() {
        let c = sample();
        let columns = c.clone().into_columns();
        assert_eq!(columns.as_slice(), c.columns());
    }

    #[test]
    fn split_into_vectors_keeps_strings_and_nulls() {
        let n = VECTOR_SIZE + 70;
        let values: Vec<Value> = (0..n)
            .map(|i| match i % 9 {
                4 => Value::Null,
                _ => Value::from(format!("row-{i}")),
            })
            .collect();
        let c = DataChunk::from_columns(vec![
            Vector::from_values(LogicalType::Varchar, &values).unwrap()
        ])
        .unwrap();
        let parts = c.split_into_vectors();
        assert_eq!(parts.len(), 2);
        let mut back = DataChunk::new(&c.types());
        for p in &parts {
            back.append(p).unwrap();
        }
        assert_eq!(back, c);
    }

    #[test]
    fn split_into_vectors_respects_vector_size() {
        let n = VECTOR_SIZE * 2 + 100;
        let vals: Vec<u32> = (0..n as u32).collect();
        let c = DataChunk::from_columns(vec![Vector::from_u32s(vals)]).unwrap();
        let parts = c.split_into_vectors();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), VECTOR_SIZE);
        assert_eq!(parts[1].len(), VECTOR_SIZE);
        assert_eq!(parts[2].len(), 100);
        assert_eq!(parts[2].row(99), vec![Value::UInt32(n as u32 - 1)]);
    }

    #[test]
    fn split_small_chunk_is_identity() {
        let c = sample();
        let parts = c.split_into_vectors();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], c);
    }

    #[test]
    fn empty_chunk() {
        let c = DataChunk::new(&[LogicalType::Int32]);
        assert!(c.is_empty());
        assert_eq!(c.to_rows(), Vec::<Vec<Value>>::new());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut c = DataChunk::new(&[LogicalType::Int32]);
        let _ = c.push_row(&[Value::Int32(1), Value::Int32(2)]);
    }
}
