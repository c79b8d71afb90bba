//! Runtime values, data types and the calendar date type.

use crate::error::{EngineError, Result};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Text,
    /// Calendar date.
    Date,
}

impl DataType {
    /// True for `Int` and `Float`.
    pub(crate) fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Bool => "BOOL",
            DataType::Text => "TEXT",
            DataType::Date => "DATE",
        };
        write!(f, "{s}")
    }
}

/// A proleptic-Gregorian calendar date.
///
/// Stored as year/month/day with validation; ordering compares the ordinal
/// day number so dates sort chronologically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

impl Date {
    /// Creates a date, validating month and day ranges (leap years
    /// included).
    pub fn new(year: i32, month: u8, day: u8) -> Result<Date> {
        if !(1..=12).contains(&month) {
            return Err(EngineError::Evaluation(format!("bad month {month}")));
        }
        if day == 0 || day > days_in_month(year, month) {
            return Err(EngineError::Evaluation(format!(
                "bad day {day} for {year}-{month:02}"
            )));
        }
        Ok(Date { year, month, day })
    }

    /// Days since 0000-03-01 (an arbitrary epoch); used only for ordering
    /// and distance, so the epoch choice is invisible to callers.
    pub(crate) fn ordinal(&self) -> i64 {
        // Standard civil-from-days inverse (Howard Hinnant's algorithm).
        let y = i64::from(self.year) - i64::from(self.month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let mp = (i64::from(self.month) + 9) % 12;
        let doy = (153 * mp + 2) / 5 + i64::from(self.day) - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe
    }

    /// Parses `YYYY-MM-DD`.
    pub fn parse_iso(s: &str) -> Result<Date> {
        let mut parts = s.splitn(3, '-');
        let (y, m, d) = (parts.next(), parts.next(), parts.next());
        match (y, m, d) {
            (Some(y), Some(m), Some(d)) => {
                let year: i32 = y
                    .parse()
                    .map_err(|_| EngineError::Evaluation(format!("bad date '{s}'")))?;
                let month: u8 = m
                    .parse()
                    .map_err(|_| EngineError::Evaluation(format!("bad date '{s}'")))?;
                let day: u8 = d
                    .parse()
                    .map_err(|_| EngineError::Evaluation(format!("bad date '{s}'")))?;
                Date::new(year, month, day)
            }
            _ => Err(EngineError::Evaluation(format!("bad date '{s}'"))),
        }
    }
}

impl PartialOrd for Date {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Date {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ordinal().cmp(&other.ordinal())
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// A runtime value. `Null` is typeless; every other variant corresponds to
/// one [`DataType`].
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Text(String),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// The value's data type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True if this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as f64 for Int/Float; `None` otherwise.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Borrows the text payload if this is a `Text` value.
    pub(crate) fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL equality: NULL compares as unknown (`None`), otherwise values of
    /// compatible types compare; numeric types compare cross-type.
    pub(crate) fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL comparison used by `<`, `<=` etc. Returns `None` when either
    /// side is NULL or the types are incomparable.
    pub(crate) fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering for sorting and grouping: NULL sorts first, then by
    /// type, then by value. Unlike [`Value::sql_cmp`], this never fails.
    pub(crate) fn total_cmp(&self, other: &Value) -> Ordering {
        fn type_rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 2, // same rank: numerics interleave
                Value::Text(_) => 3,
                Value::Date(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => match type_rank(self).cmp(&type_rank(other)) {
                Ordering::Equal => self.sql_cmp(other).unwrap_or(Ordering::Equal),
                o => o,
            },
        }
    }

    /// Renders the value the way result tables print it.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Value::Bool(b) => b.to_string(),
            Value::Text(s) => s.clone(),
            Value::Date(d) => d.to_string(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality (NULL == NULL) — used by grouping, DISTINCT
        // and tests. SQL ternary equality lives in `sql_eq`.
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats share a rank in total_cmp, so equal numerics
            // must hash identically: hash via the f64 bit pattern of the
            // canonical numeric value.
            Value::Int(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                2u8.hash(state);
                // Normalise -0.0 to 0.0 so they group together.
                let v = if *v == 0.0 { 0.0 } else { *v };
                v.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_validation() {
        assert!(Date::new(2020, 2, 29).is_ok()); // leap year
        assert!(Date::new(2021, 2, 29).is_err());
        assert!(Date::new(2000, 2, 29).is_ok()); // 400-rule leap
        assert!(Date::new(1900, 2, 29).is_err()); // 100-rule non-leap
        assert!(Date::new(2021, 13, 1).is_err());
        assert!(Date::new(2021, 4, 31).is_err());
        assert!(Date::new(2021, 0, 1).is_err());
    }

    #[test]
    fn date_ordering_is_chronological() {
        let a = Date::new(1999, 12, 31).unwrap();
        let b = Date::new(2000, 1, 1).unwrap();
        assert!(a < b);
        assert_eq!(b.ordinal() - a.ordinal(), 1);
    }

    #[test]
    fn date_parse_roundtrip() {
        let d = Date::parse_iso("1961-05-08").unwrap();
        assert_eq!(d.to_string(), "1961-05-08");
        assert!(Date::parse_iso("08/05/1961").is_err());
        assert!(Date::parse_iso("nonsense").is_err());
    }

    #[test]
    fn sql_cmp_cross_numeric() {
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(2.5).sql_cmp(&Value::Int(3)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_incompatible_types() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Text("1".into())), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_cmp_sorts_nulls_first() {
        let mut vals = [Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Int(1));
    }

    #[test]
    fn equal_numerics_hash_identically() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
        assert_eq!(h(&Value::Float(0.0)), h(&Value::Float(-0.0)));
        assert_eq!(Value::Int(3), Value::Float(3.0));
    }

    #[test]
    fn render_formats() {
        assert_eq!(Value::Float(3.0).render(), "3.0");
        assert_eq!(Value::Float(3.25).render(), "3.25");
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::Text("hi".into()).render(), "hi");
    }
}
