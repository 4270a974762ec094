//! The result oracle. It runs outside every timed span.
//!
//! A result is correct when it has the table's row count, every adjacent
//! pair of rows is in the statement's ORDER BY order (direction and NULL
//! placement, comparing `Value`s), and the order-independent sum of its
//! row hashes equals the input table's. Results in between two full
//! checks are compared by [`fingerprint`] with a fully checked one.

use crate::adapter::{DataChunk, OrderBy, Value, XxHash64};
use std::cmp::Ordering;

fn hash_row(row: &[Value]) -> u64 {
    let mut hasher = XxHash64::with_seed(0);
    for value in row {
        match value {
            Value::Null => hasher.write(&[0]),
            Value::Varchar(s) => {
                hasher.write(&[1]);
                hasher.write(&(s.len() as u64).to_le_bytes());
                hasher.write(s.as_bytes());
            }
            other => match other.as_i64() {
                Some(i) => {
                    hasher.write(&[2]);
                    hasher.write(&i.to_le_bytes());
                }
                // Floats, booleans and u64s beyond i64: none in the
                // workloads' tables, hashed by their rendering.
                None => {
                    hasher.write(&[3]);
                    hasher.write(format!("{other:?}").as_bytes());
                }
            },
        }
    }
    hasher.finish()
}

/// What a correct result of one workload looks like.
pub struct Oracle {
    rows: usize,
    hash_sum: u64,
    order: OrderBy,
}

impl Oracle {
    /// The oracle for sorting `table` by `order`, every column kept.
    pub fn new(table: &DataChunk, order: OrderBy) -> Oracle {
        Oracle {
            rows: table.len(),
            hash_sum: hash_sum(table),
            order,
        }
    }

    /// Check `result` in full.
    pub fn verify(&self, result: &DataChunk) -> Result<(), String> {
        if result.len() != self.rows {
            return Err(format!("{} rows, expected {}", result.len(), self.rows));
        }
        let mut previous: Option<Vec<Value>> = None;
        let mut sum = 0u64;
        for i in 0..result.len() {
            let row = result.row(i);
            if let Some(previous) = &previous {
                if self.order.compare_rows(previous, &row) == Ordering::Greater {
                    return Err(format!("rows {} and {i} are out of order", i - 1));
                }
            }
            sum = sum.wrapping_add(hash_row(&row));
            previous = Some(row);
        }
        if sum != self.hash_sum {
            return Err("row-hash sum differs from the input table's".to_owned());
        }
        Ok(())
    }
}

fn hash_sum(chunk: &DataChunk) -> u64 {
    (0..chunk.len()).fold(0u64, |sum, i| sum.wrapping_add(hash_row(&chunk.row(i))))
}

/// Length plus a hash of the first, middle and last row: cheap enough to
/// check on every query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    len: usize,
    hash: u64,
}

/// The fingerprint of `chunk`.
pub fn fingerprint(chunk: &DataChunk) -> Fingerprint {
    let len = chunk.len();
    let hash = if len == 0 {
        0
    } else {
        [0, len / 2, len - 1].iter().fold(0u64, |hash, &i| {
            hash.rotate_left(21) ^ hash_row(&chunk.row(i))
        })
    };
    Fingerprint { len, hash }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{OrderByColumn, Vector};

    fn chunk(keys: Vec<u32>) -> DataChunk {
        let payload = keys.iter().map(|k| format!("row {k}")).collect::<Vec<_>>();
        DataChunk::from_columns(vec![Vector::from_u32s(keys), Vector::from_strings(payload)])
            .expect("two columns of one length")
    }

    #[test]
    fn accepts_the_sorted_table_and_rejects_a_swap_and_a_duplicate() {
        let table = chunk(vec![5, 3, 9, 1, 7]);
        let oracle = Oracle::new(&table, OrderBy::new(vec![OrderByColumn::asc(0)]));
        let sorted = chunk(vec![1, 3, 5, 7, 9]);
        assert_eq!(oracle.verify(&sorted), Ok(()));
        assert_eq!(
            fingerprint(&sorted),
            fingerprint(&chunk(vec![1, 3, 5, 7, 9]))
        );

        // Two rows swapped: every row is there, the order is not.
        let swapped = chunk(vec![1, 5, 3, 7, 9]);
        let err = oracle.verify(&swapped).expect_err("swap must fail");
        assert!(err.contains("out of order"), "{err}");
        assert_ne!(
            fingerprint(&sorted),
            fingerprint(&chunk(vec![1, 3, 4, 7, 9]))
        );

        // One row duplicated over another: count and order hold, the
        // rows are not the table's.
        let duplicated = chunk(vec![1, 3, 3, 7, 9]);
        let err = oracle.verify(&duplicated).expect_err("duplicate must fail");
        assert!(err.contains("row-hash sum"), "{err}");

        let short = chunk(vec![1, 3, 5, 7]);
        assert!(oracle.verify(&short).is_err());
    }
}
