//! A single column of values (DSM storage).

use crate::strings::StringVec;
use crate::types::LogicalType;
use crate::validity::Validity;
use crate::value::Value;
use crate::{Result, VectorError};

/// Typed storage backing one [`Vector`].
#[derive(Debug, Clone, PartialEq)]
pub enum VectorData {
    /// BOOLEAN storage.
    Boolean(Vec<bool>),
    /// TINYINT storage.
    Int8(Vec<i8>),
    /// SMALLINT storage.
    Int16(Vec<i16>),
    /// INTEGER storage.
    Int32(Vec<i32>),
    /// BIGINT storage.
    Int64(Vec<i64>),
    /// UTINYINT storage.
    UInt8(Vec<u8>),
    /// USMALLINT storage.
    UInt16(Vec<u16>),
    /// UINTEGER storage.
    UInt32(Vec<u32>),
    /// UBIGINT storage.
    UInt64(Vec<u64>),
    /// REAL storage.
    Float32(Vec<f32>),
    /// DOUBLE storage.
    Float64(Vec<f64>),
    /// DATE storage (days since epoch).
    Date(Vec<i32>),
    /// TIMESTAMP storage (microseconds since epoch).
    Timestamp(Vec<i64>),
    /// VARCHAR storage.
    Varchar(StringVec),
}

impl VectorData {
    /// Empty storage for the given type.
    pub fn new(ty: LogicalType) -> VectorData {
        match ty {
            LogicalType::Boolean => VectorData::Boolean(Vec::new()),
            LogicalType::Int8 => VectorData::Int8(Vec::new()),
            LogicalType::Int16 => VectorData::Int16(Vec::new()),
            LogicalType::Int32 => VectorData::Int32(Vec::new()),
            LogicalType::Int64 => VectorData::Int64(Vec::new()),
            LogicalType::UInt8 => VectorData::UInt8(Vec::new()),
            LogicalType::UInt16 => VectorData::UInt16(Vec::new()),
            LogicalType::UInt32 => VectorData::UInt32(Vec::new()),
            LogicalType::UInt64 => VectorData::UInt64(Vec::new()),
            LogicalType::Float32 => VectorData::Float32(Vec::new()),
            LogicalType::Float64 => VectorData::Float64(Vec::new()),
            LogicalType::Date => VectorData::Date(Vec::new()),
            LogicalType::Timestamp => VectorData::Timestamp(Vec::new()),
            LogicalType::Varchar => VectorData::Varchar(StringVec::new()),
        }
    }

    /// The logical type of this storage.
    pub fn logical_type(&self) -> LogicalType {
        match self {
            VectorData::Boolean(_) => LogicalType::Boolean,
            VectorData::Int8(_) => LogicalType::Int8,
            VectorData::Int16(_) => LogicalType::Int16,
            VectorData::Int32(_) => LogicalType::Int32,
            VectorData::Int64(_) => LogicalType::Int64,
            VectorData::UInt8(_) => LogicalType::UInt8,
            VectorData::UInt16(_) => LogicalType::UInt16,
            VectorData::UInt32(_) => LogicalType::UInt32,
            VectorData::UInt64(_) => LogicalType::UInt64,
            VectorData::Float32(_) => LogicalType::Float32,
            VectorData::Float64(_) => LogicalType::Float64,
            VectorData::Date(_) => LogicalType::Date,
            VectorData::Timestamp(_) => LogicalType::Timestamp,
            VectorData::Varchar(_) => LogicalType::Varchar,
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            VectorData::Boolean(v) => v.len(),
            VectorData::Int8(v) => v.len(),
            VectorData::Int16(v) => v.len(),
            VectorData::Int32(v) => v.len(),
            VectorData::Int64(v) => v.len(),
            VectorData::UInt8(v) => v.len(),
            VectorData::UInt16(v) => v.len(),
            VectorData::UInt32(v) => v.len(),
            VectorData::UInt64(v) => v.len(),
            VectorData::Float32(v) => v.len(),
            VectorData::Float64(v) => v.len(),
            VectorData::Date(v) => v.len(),
            VectorData::Timestamp(v) => v.len(),
            VectorData::Varchar(v) => v.len(),
        }
    }

    /// `true` iff no rows stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One column of nullable values: typed storage plus a validity mask.
///
/// This is the unit a vectorized engine processes at a time. The storage for
/// NULL rows is an arbitrary placeholder (zero / empty string); consumers
/// must consult [`Vector::is_valid`].
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    data: VectorData,
    validity: Validity,
}

macro_rules! typed_accessors {
    ($getter:ident, $variant:ident, $rust:ty, $from:ident) => {
        /// Borrow the typed storage, or `None` if the vector has a different type.
        pub fn $getter(&self) -> Option<&[$rust]> {
            match &self.data {
                VectorData::$variant(v) => Some(v),
                _ => None,
            }
        }

        /// Build an all-valid vector from raw values.
        pub fn $from(values: Vec<$rust>) -> Vector {
            let validity = Validity::new_valid(values.len());
            Vector {
                data: VectorData::$variant(values),
                validity,
            }
        }
    };
}

impl Vector {
    /// An empty vector of the given type.
    pub fn new(ty: LogicalType) -> Vector {
        Vector {
            data: VectorData::new(ty),
            validity: Validity::new_valid(0),
        }
    }

    /// Assemble a vector from typed storage and the validity mask over it;
    /// the two must cover the same number of rows.
    pub fn from_parts(data: VectorData, validity: Validity) -> Result<Vector> {
        if validity.len() != data.len() {
            return Err(VectorError::LengthMismatch {
                expected: data.len(),
                got: validity.len(),
            });
        }
        Ok(Vector { data, validity })
    }

    /// Build a vector from boxed values; every value must be NULL or match `ty`.
    pub fn from_values(ty: LogicalType, values: &[Value]) -> Result<Vector> {
        let mut v = Vector::new(ty);
        for val in values {
            v.push(val)?;
        }
        Ok(v)
    }

    typed_accessors!(as_bools, Boolean, bool, from_bools);
    typed_accessors!(as_i8s, Int8, i8, from_i8s);
    typed_accessors!(as_i16s, Int16, i16, from_i16s);
    typed_accessors!(as_i32s, Int32, i32, from_i32s);
    typed_accessors!(as_i64s, Int64, i64, from_i64s);
    typed_accessors!(as_u8s, UInt8, u8, from_u8s);
    typed_accessors!(as_u16s, UInt16, u16, from_u16s);
    typed_accessors!(as_u32s, UInt32, u32, from_u32s);
    typed_accessors!(as_u64s, UInt64, u64, from_u64s);
    typed_accessors!(as_f32s, Float32, f32, from_f32s);
    typed_accessors!(as_f64s, Float64, f64, from_f64s);

    /// Borrow the string storage, or `None` for non-VARCHAR vectors.
    pub fn as_strings(&self) -> Option<&StringVec> {
        match &self.data {
            VectorData::Varchar(v) => Some(v),
            _ => None,
        }
    }

    /// Build an all-valid VARCHAR vector.
    pub fn from_strings<S: AsRef<str>>(values: impl IntoIterator<Item = S>) -> Vector {
        let sv: StringVec = values.into_iter().collect();
        let validity = Validity::new_valid(sv.len());
        Vector {
            data: VectorData::Varchar(sv),
            validity,
        }
    }

    /// Build a DATE vector (days since epoch).
    pub fn from_dates(values: Vec<i32>) -> Vector {
        let validity = Validity::new_valid(values.len());
        Vector {
            data: VectorData::Date(values),
            validity,
        }
    }

    /// Build a TIMESTAMP vector (microseconds since epoch).
    pub fn from_timestamps(values: Vec<i64>) -> Vector {
        let validity = Validity::new_valid(values.len());
        Vector {
            data: VectorData::Timestamp(values),
            validity,
        }
    }

    /// The logical type.
    pub fn logical_type(&self) -> LogicalType {
        self.data.logical_type()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff the vector holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether row `idx` is non-NULL.
    pub fn is_valid(&self, idx: usize) -> bool {
        self.validity.is_valid(idx)
    }

    /// The validity mask.
    pub fn validity(&self) -> &Validity {
        &self.validity
    }

    /// The typed storage.
    pub fn data(&self) -> &VectorData {
        &self.data
    }

    /// Mark row `idx` NULL (storage keeps its placeholder value).
    pub fn set_null(&mut self, idx: usize) {
        self.validity.set_invalid(idx);
    }

    /// Append a boxed value. NULL appends a placeholder and clears validity.
    pub fn push(&mut self, value: &Value) -> Result<()> {
        if value.is_null() {
            self.push_placeholder();
            self.validity.push(false);
            return Ok(());
        }
        let ty = self.logical_type();
        let type_err = || VectorError::TypeMismatch {
            expected: ty,
            got: format!("{value:?}"),
        };
        match (&mut self.data, value) {
            (VectorData::Boolean(v), Value::Boolean(x)) => v.push(*x),
            (VectorData::Int8(v), Value::Int8(x)) => v.push(*x),
            (VectorData::Int16(v), Value::Int16(x)) => v.push(*x),
            (VectorData::Int32(v), Value::Int32(x)) => v.push(*x),
            (VectorData::Int64(v), Value::Int64(x)) => v.push(*x),
            (VectorData::UInt8(v), Value::UInt8(x)) => v.push(*x),
            (VectorData::UInt16(v), Value::UInt16(x)) => v.push(*x),
            (VectorData::UInt32(v), Value::UInt32(x)) => v.push(*x),
            (VectorData::UInt64(v), Value::UInt64(x)) => v.push(*x),
            (VectorData::Float32(v), Value::Float32(x)) => v.push(*x),
            (VectorData::Float64(v), Value::Float64(x)) => v.push(*x),
            (VectorData::Date(v), Value::Date(x)) => v.push(*x),
            (VectorData::Timestamp(v), Value::Timestamp(x)) => v.push(*x),
            (VectorData::Varchar(v), Value::Varchar(x)) => v.push(x),
            _ => return Err(type_err()),
        }
        self.validity.push(true);
        Ok(())
    }

    fn push_placeholder(&mut self) {
        match &mut self.data {
            VectorData::Boolean(v) => v.push(false),
            VectorData::Int8(v) => v.push(0),
            VectorData::Int16(v) => v.push(0),
            VectorData::Int32(v) => v.push(0),
            VectorData::Int64(v) => v.push(0),
            VectorData::UInt8(v) => v.push(0),
            VectorData::UInt16(v) => v.push(0),
            VectorData::UInt32(v) => v.push(0),
            VectorData::UInt64(v) => v.push(0),
            VectorData::Float32(v) => v.push(0.0),
            VectorData::Float64(v) => v.push(0.0),
            VectorData::Date(v) => v.push(0),
            VectorData::Timestamp(v) => v.push(0),
            VectorData::Varchar(v) => v.push(""),
        }
    }

    /// Read row `idx` as a boxed [`Value`] (NULL-aware).
    pub fn get(&self, idx: usize) -> Value {
        if !self.validity.is_valid(idx) {
            return Value::Null;
        }
        match &self.data {
            VectorData::Boolean(v) => Value::Boolean(v[idx]),
            VectorData::Int8(v) => Value::Int8(v[idx]),
            VectorData::Int16(v) => Value::Int16(v[idx]),
            VectorData::Int32(v) => Value::Int32(v[idx]),
            VectorData::Int64(v) => Value::Int64(v[idx]),
            VectorData::UInt8(v) => Value::UInt8(v[idx]),
            VectorData::UInt16(v) => Value::UInt16(v[idx]),
            VectorData::UInt32(v) => Value::UInt32(v[idx]),
            VectorData::UInt64(v) => Value::UInt64(v[idx]),
            VectorData::Float32(v) => Value::Float32(v[idx]),
            VectorData::Float64(v) => Value::Float64(v[idx]),
            VectorData::Date(v) => Value::Date(v[idx]),
            VectorData::Timestamp(v) => Value::Timestamp(v[idx]),
            VectorData::Varchar(v) => Value::Varchar(v.get(idx).to_owned()),
        }
    }

    /// Gather rows by index into a new vector (the columnar "payload fetch"
    /// step after an index sort). Runs on the typed fast path.
    ///
    /// # Panics
    /// If any index is out of bounds.
    pub fn take(&self, indices: &[usize]) -> Vector {
        macro_rules! take_fixed {
            ($v:expr, $variant:ident) => {
                VectorData::$variant(indices.iter().map(|&i| $v[i]).collect())
            };
        }
        let data = match &self.data {
            VectorData::Boolean(v) => take_fixed!(v, Boolean),
            VectorData::Int8(v) => take_fixed!(v, Int8),
            VectorData::Int16(v) => take_fixed!(v, Int16),
            VectorData::Int32(v) => take_fixed!(v, Int32),
            VectorData::Int64(v) => take_fixed!(v, Int64),
            VectorData::UInt8(v) => take_fixed!(v, UInt8),
            VectorData::UInt16(v) => take_fixed!(v, UInt16),
            VectorData::UInt32(v) => take_fixed!(v, UInt32),
            VectorData::UInt64(v) => take_fixed!(v, UInt64),
            VectorData::Float32(v) => take_fixed!(v, Float32),
            VectorData::Float64(v) => take_fixed!(v, Float64),
            VectorData::Date(v) => take_fixed!(v, Date),
            VectorData::Timestamp(v) => take_fixed!(v, Timestamp),
            VectorData::Varchar(v) => {
                let mut out = crate::strings::StringVec::with_capacity(indices.len(), 8);
                for &i in indices {
                    out.push(v.get(i));
                }
                VectorData::Varchar(out)
            }
        };
        let mut validity = Validity::new_valid(indices.len());
        if !self.validity.all_valid() {
            for (dst, &src) in indices.iter().enumerate() {
                if !self.validity.is_valid(src) {
                    validity.set_invalid(dst);
                }
            }
        }
        Vector { data, validity }
    }

    /// Append all rows of `other` (must have the same type). Runs on the
    /// typed fast path (bulk extends, no boxed values).
    pub fn append(&mut self, other: &Vector) -> Result<()> {
        if other.logical_type() != self.logical_type() {
            return Err(VectorError::TypeMismatch {
                expected: self.logical_type(),
                got: other.logical_type().name().to_owned(),
            });
        }
        match (&mut self.data, other.data()) {
            (VectorData::Boolean(a), VectorData::Boolean(b)) => a.extend_from_slice(b),
            (VectorData::Int8(a), VectorData::Int8(b)) => a.extend_from_slice(b),
            (VectorData::Int16(a), VectorData::Int16(b)) => a.extend_from_slice(b),
            (VectorData::Int32(a), VectorData::Int32(b)) => a.extend_from_slice(b),
            (VectorData::Int64(a), VectorData::Int64(b)) => a.extend_from_slice(b),
            (VectorData::UInt8(a), VectorData::UInt8(b)) => a.extend_from_slice(b),
            (VectorData::UInt16(a), VectorData::UInt16(b)) => a.extend_from_slice(b),
            (VectorData::UInt32(a), VectorData::UInt32(b)) => a.extend_from_slice(b),
            (VectorData::UInt64(a), VectorData::UInt64(b)) => a.extend_from_slice(b),
            (VectorData::Float32(a), VectorData::Float32(b)) => a.extend_from_slice(b),
            (VectorData::Float64(a), VectorData::Float64(b)) => a.extend_from_slice(b),
            (VectorData::Date(a), VectorData::Date(b)) => a.extend_from_slice(b),
            (VectorData::Timestamp(a), VectorData::Timestamp(b)) => a.extend_from_slice(b),
            (VectorData::Varchar(a), VectorData::Varchar(b)) => a.extend_from_range(b, 0, b.len()),
            _ => unreachable!("types checked above"),
        }
        self.validity
            .extend_from_range(&other.validity, 0, other.len());
        Ok(())
    }

    /// Iterate rows as boxed values.
    pub fn iter_values(&self) -> impl ExactSizeIterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Copy out rows `start..end` as a new vector — a typed `memcpy` per
    /// buffer (values, string bytes, validity words), not a per-value loop.
    pub fn slice(&self, start: usize, end: usize) -> Vector {
        let validity = self.validity.slice(start, end);
        let data = match &self.data {
            VectorData::Boolean(v) => VectorData::Boolean(v[start..end].to_vec()),
            VectorData::Int8(v) => VectorData::Int8(v[start..end].to_vec()),
            VectorData::Int16(v) => VectorData::Int16(v[start..end].to_vec()),
            VectorData::Int32(v) => VectorData::Int32(v[start..end].to_vec()),
            VectorData::Int64(v) => VectorData::Int64(v[start..end].to_vec()),
            VectorData::UInt8(v) => VectorData::UInt8(v[start..end].to_vec()),
            VectorData::UInt16(v) => VectorData::UInt16(v[start..end].to_vec()),
            VectorData::UInt32(v) => VectorData::UInt32(v[start..end].to_vec()),
            VectorData::UInt64(v) => VectorData::UInt64(v[start..end].to_vec()),
            VectorData::Float32(v) => VectorData::Float32(v[start..end].to_vec()),
            VectorData::Float64(v) => VectorData::Float64(v[start..end].to_vec()),
            VectorData::Date(v) => VectorData::Date(v[start..end].to_vec()),
            VectorData::Timestamp(v) => VectorData::Timestamp(v[start..end].to_vec()),
            VectorData::Varchar(v) => {
                let mut out = StringVec::with_capacity(end - start, 0);
                out.extend_from_range(v, start, end);
                VectorData::Varchar(out)
            }
        };
        Vector { data, validity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_read_u32() {
        let v = Vector::from_u32s(vec![3, 1, 2]);
        assert_eq!(v.logical_type(), LogicalType::UInt32);
        assert_eq!(v.len(), 3);
        assert_eq!(v.get(1), Value::UInt32(1));
        assert_eq!(v.as_u32s(), Some(&[3u32, 1, 2][..]));
        assert_eq!(v.as_i32s(), None);
    }

    #[test]
    fn push_values_and_nulls() {
        let mut v = Vector::new(LogicalType::Int32);
        v.push(&Value::Int32(5)).unwrap();
        v.push(&Value::Null).unwrap();
        v.push(&Value::Int32(-7)).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.get(0), Value::Int32(5));
        assert_eq!(v.get(1), Value::Null);
        assert_eq!(v.get(2), Value::Int32(-7));
        assert!(!v.is_valid(1));
        assert_eq!(v.validity().count_invalid(), 1);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut v = Vector::new(LogicalType::Int32);
        let err = v.push(&Value::Int64(1)).unwrap_err();
        assert!(matches!(err, VectorError::TypeMismatch { .. }));
        assert_eq!(v.len(), 0, "failed push must not grow the vector");
    }

    #[test]
    fn varchar_vector() {
        let v = Vector::from_strings(["b", "a", "c"]);
        assert_eq!(v.logical_type(), LogicalType::Varchar);
        assert_eq!(v.get(0), Value::from("b"));
        assert_eq!(v.as_strings().unwrap().get(2), "c");
    }

    #[test]
    fn from_values_mixed_nulls() {
        let vals = vec![Value::UInt32(1), Value::Null, Value::UInt32(3)];
        let v = Vector::from_values(LogicalType::UInt32, &vals).unwrap();
        assert_eq!(v.get(1), Value::Null);
        assert_eq!(v.get(2), Value::UInt32(3));
    }

    #[test]
    fn take_gathers_with_nulls() {
        let mut v = Vector::new(LogicalType::Int64);
        for val in [Value::Int64(10), Value::Null, Value::Int64(30)] {
            v.push(&val).unwrap();
        }
        let g = v.take(&[2, 1, 0, 2]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.get(0), Value::Int64(30));
        assert_eq!(g.get(1), Value::Null);
        assert_eq!(g.get(2), Value::Int64(10));
        assert_eq!(g.get(3), Value::Int64(30));
    }

    #[test]
    fn append_same_type() {
        let mut a = Vector::from_i32s(vec![1, 2]);
        let b = Vector::from_i32s(vec![3]);
        a.append(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(2), Value::Int32(3));
    }

    #[test]
    fn append_type_mismatch() {
        let mut a = Vector::from_i32s(vec![1]);
        let b = Vector::from_i64s(vec![2]);
        assert!(a.append(&b).is_err());
    }

    #[test]
    fn set_null_after_build() {
        let mut v = Vector::from_f64s(vec![1.0, 2.0]);
        v.set_null(0);
        assert_eq!(v.get(0), Value::Null);
        assert_eq!(v.get(1), Value::Float64(2.0));
    }

    #[test]
    fn iter_values() {
        let v = Vector::from_u8s(vec![9, 8]);
        let all: Vec<Value> = v.iter_values().collect();
        assert_eq!(all, vec![Value::UInt8(9), Value::UInt8(8)]);
    }

    #[test]
    fn date_and_timestamp_vectors() {
        let d = Vector::from_dates(vec![-1, 0, 1]);
        assert_eq!(d.logical_type(), LogicalType::Date);
        assert_eq!(d.get(0), Value::Date(-1));
        let t = Vector::from_timestamps(vec![1_000_000]);
        assert_eq!(t.logical_type(), LogicalType::Timestamp);
        assert_eq!(t.get(0), Value::Timestamp(1_000_000));
    }

    #[test]
    fn every_type_constructs_empty() {
        for ty in LogicalType::ALL {
            let v = Vector::new(ty);
            assert_eq!(v.logical_type(), ty);
            assert!(v.is_empty());
        }
    }

    #[test]
    fn slice_copies_range_with_validity() {
        let mut v = Vector::new(LogicalType::Int32);
        for val in [
            Value::Int32(1),
            Value::Null,
            Value::Int32(3),
            Value::Int32(4),
        ] {
            v.push(&val).unwrap();
        }
        let s = v.slice(1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), Value::Null);
        assert_eq!(s.get(1), Value::Int32(3));
        let empty = v.slice(2, 2);
        assert!(empty.is_empty());
    }

    #[test]
    fn slice_strings() {
        let v = Vector::from_strings(["a", "bb", "ccc"]);
        let s = v.slice(1, 3);
        assert_eq!(s.get(0), Value::from("bb"));
        assert_eq!(s.get(1), Value::from("ccc"));
    }

    #[test]
    fn take_preserves_nulls_on_fast_path() {
        let mut v = Vector::new(LogicalType::Float64);
        for val in [Value::Float64(1.0), Value::Null, Value::Float64(3.0)] {
            v.push(&val).unwrap();
        }
        let t = v.take(&[1, 0, 1, 2]);
        assert_eq!(t.get(0), Value::Null);
        assert_eq!(t.get(1), Value::Float64(1.0));
        assert_eq!(t.get(2), Value::Null);
        assert_eq!(t.get(3), Value::Float64(3.0));
    }

    #[test]
    fn append_bulk_with_nulls() {
        let mut a = Vector::from_i32s(vec![1]);
        let mut b = Vector::new(LogicalType::Int32);
        for val in [Value::Null, Value::Int32(9)] {
            b.push(&val).unwrap();
        }
        a.append(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(1), Value::Null);
        assert_eq!(a.get(2), Value::Int32(9));
    }

    /// 200 rows, every fifth NULL: enough to straddle three validity words.
    fn nullable_strings() -> (Vector, Vec<Value>) {
        let values: Vec<Value> = (0..200)
            .map(|i| match i % 5 {
                0 => Value::Null,
                _ => Value::from(format!("s{i}é")),
            })
            .collect();
        let v = Vector::from_values(LogicalType::Varchar, &values).unwrap();
        (v, values)
    }

    #[test]
    fn slice_null_carrying_ranges_off_word_boundaries() {
        let (v, values) = nullable_strings();
        for (start, end) in [(1, 63), (63, 65), (7, 131), (64, 200), (190, 190)] {
            let s = v.slice(start, end);
            assert_eq!(s.iter_values().collect::<Vec<_>>(), values[start..end]);
            // Same representation as a vector built value by value.
            let built = Vector::from_values(LogicalType::Varchar, &values[start..end]).unwrap();
            assert_eq!(s, built, "slice {start}..{end}");
        }
    }

    #[test]
    fn append_null_carrying_ranges_off_word_boundaries() {
        let (v, values) = nullable_strings();
        for (prefix, start, end) in [(1, 3, 70), (63, 1, 2), (65, 60, 200), (0, 5, 133)] {
            let mut got = v.slice(0, prefix);
            got.append(&v.slice(start, end)).unwrap();
            let mut expected = values[..prefix].to_vec();
            expected.extend_from_slice(&values[start..end]);
            let built = Vector::from_values(LogicalType::Varchar, &expected).unwrap();
            assert_eq!(got, built, "append {prefix} + {start}..{end}");
        }
        // Fixed-width values take the same validity path.
        let ints: Vec<Value> = (0..150)
            .map(|i| {
                if i % 7 == 3 {
                    Value::Null
                } else {
                    Value::Int32(i)
                }
            })
            .collect();
        let whole = Vector::from_values(LogicalType::Int32, &ints).unwrap();
        let mut got = whole.slice(0, 37);
        got.append(&whole.slice(37, 150)).unwrap();
        assert_eq!(got, whole);
    }

    #[test]
    fn from_parts_checks_lengths() {
        let data = VectorData::Int32(vec![1, 2, 3]);
        assert!(Vector::from_parts(data.clone(), Validity::new_valid(2)).is_err());
        let v = Vector::from_parts(data, Validity::new_valid(3)).unwrap();
        assert_eq!(v, Vector::from_i32s(vec![1, 2, 3]));
    }

    #[test]
    fn append_strings_bulk() {
        let mut a = Vector::from_strings(["x"]);
        let b = Vector::from_strings(["y", "z"]);
        a.append(&b).unwrap();
        assert_eq!(a.get(2), Value::from("z"));
    }
}
