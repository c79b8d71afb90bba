//! Schemas: table schemas (stored relations) and plan schemas (operator
//! outputs with binding qualifiers).

use crate::error::{EngineError, Result};
use crate::value::DataType;
use std::fmt;
use std::sync::Arc;

/// A column of a stored table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (unique within its table). Shared: every plan column,
    /// resolved reference and temporary schema made from this column holds
    /// the same text.
    pub name: Arc<str>,
    /// Data type.
    pub data_type: DataType,
    /// Whether NULLs are allowed.
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: impl Into<Arc<str>>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<Arc<str>>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }
}

/// Schema of a stored table: ordered columns plus the designated key
/// attribute (the paper assumes every relation has a single-attribute key —
/// design consideration 1 in §3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Ordered columns.
    pub columns: Vec<Column>,
    /// Index into `columns` of the key attribute.
    pub key: usize,
}

impl TableSchema {
    /// Builds a schema; `key_name` must name one of `columns`.
    pub fn new(columns: Vec<Column>, key_name: &str) -> Result<TableSchema> {
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(EngineError::Catalog(format!(
                    "duplicate column '{}'",
                    c.name
                )));
            }
        }
        let key = columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(key_name))
            .ok_or_else(|| {
                EngineError::Catalog(format!("key column '{key_name}' not in schema"))
            })?;
        if columns[key].nullable {
            return Err(EngineError::Catalog(format!(
                "key column '{key_name}' must not be nullable"
            )));
        }
        Ok(TableSchema { columns, key })
    }

    /// Finds a column index by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// A column as it appears in an operator's output: the stored column name
/// plus the binding (table alias) that introduced it, if any. Both are
/// shared with the stored column and the scan, so copying a schema or a
/// plan only counts references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanColumn {
    /// Binding (FROM-clause alias or table name); `None` for computed
    /// outputs such as aggregates.
    pub binding: Option<Arc<str>>,
    /// Output name.
    pub name: Arc<str>,
    /// Output type.
    pub data_type: DataType,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

impl PlanColumn {
    /// Builds a plan column carried over from a base table.
    pub(crate) fn from_base(binding: &Arc<str>, col: &Column) -> Self {
        PlanColumn {
            binding: Some(Arc::clone(binding)),
            name: Arc::clone(&col.name),
            data_type: col.data_type,
            nullable: col.nullable,
        }
    }

    /// Builds a computed output column.
    pub fn computed(name: impl Into<Arc<str>>, data_type: DataType) -> Self {
        PlanColumn {
            binding: None,
            name: name.into(),
            data_type,
            nullable: true,
        }
    }
}

impl fmt::Display for PlanColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(b) = &self.binding {
            write!(f, "{b}.")?;
        }
        write!(f, "{}: {}", self.name, self.data_type)
    }
}

/// Ordered list of plan columns — the schema flowing between operators.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanSchema {
    /// Output columns in order.
    pub columns: Vec<PlanColumn>,
}

impl PlanSchema {
    /// Creates a plan schema from columns.
    pub fn new(columns: Vec<PlanColumn>) -> Self {
        PlanSchema { columns }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Resolves a possibly-qualified name to a column index.
    ///
    /// With a qualifier, both binding and name must match. Without one, the
    /// name must match exactly one column, otherwise the reference is
    /// ambiguous.
    pub(crate) fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut matches = (self.columns.iter().enumerate())
            .filter(|(_, c)| {
                let name_ok = c.name.eq_ignore_ascii_case(name);
                match qualifier {
                    Some(q) => {
                        name_ok
                            && c.binding
                                .as_deref()
                                .is_some_and(|b| b.eq_ignore_ascii_case(q))
                    }
                    None => name_ok,
                }
            })
            .map(|(i, _)| i);
        match (matches.next(), matches.next()) {
            (None, _) => Err(EngineError::UnknownColumn(match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            })),
            (Some(i), None) => Ok(i),
            (Some(_), Some(_)) => Err(EngineError::AmbiguousColumn(name.to_string())),
        }
    }

    /// Concatenates two schemas (join output).
    pub(crate) fn join(&self, right: &PlanSchema) -> PlanSchema {
        let mut columns = self.columns.clone();
        columns.extend(right.columns.iter().cloned());
        PlanSchema { columns }
    }

    /// Marks every column nullable (right side of a left outer join).
    pub(crate) fn as_nullable(&self) -> PlanSchema {
        PlanSchema {
            columns: self
                .columns
                .iter()
                .map(|c| PlanColumn {
                    nullable: true,
                    ..c.clone()
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city_schema() -> TableSchema {
        TableSchema::new(
            vec![
                Column::new("name", DataType::Text),
                Column::new("country", DataType::Text),
                Column::nullable("population", DataType::Int),
            ],
            "name",
        )
        .unwrap()
    }

    #[test]
    fn table_schema_key_resolution() {
        let s = city_schema();
        assert_eq!(s.key, 0);
        assert_eq!(&*s.columns[s.key].name, "name");
        assert_eq!(s.index_of("POPULATION"), Some(2));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = TableSchema::new(
            vec![
                Column::new("a", DataType::Int),
                Column::new("A", DataType::Text),
            ],
            "a",
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Catalog(_)));
    }

    #[test]
    fn missing_key_rejected() {
        assert!(TableSchema::new(vec![Column::new("a", DataType::Int)], "b").is_err());
    }

    #[test]
    fn nullable_key_rejected() {
        assert!(TableSchema::new(vec![Column::nullable("a", DataType::Int)], "a").is_err());
    }

    #[test]
    fn plan_schema_resolution() {
        let s = PlanSchema::new(vec![
            PlanColumn::from_base(&"c".into(), &Column::new("name", DataType::Text)),
            PlanColumn::from_base(&"m".into(), &Column::new("name", DataType::Text)),
            PlanColumn::from_base(&"c".into(), &Column::new("population", DataType::Int)),
        ]);
        assert_eq!(s.resolve(Some("c"), "name").unwrap(), 0);
        assert_eq!(s.resolve(Some("m"), "name").unwrap(), 1);
        assert_eq!(s.resolve(None, "population").unwrap(), 2);
        assert!(matches!(
            s.resolve(None, "name"),
            Err(EngineError::AmbiguousColumn(_))
        ));
        assert!(matches!(
            s.resolve(None, "zzz"),
            Err(EngineError::UnknownColumn(_))
        ));
        assert!(matches!(
            s.resolve(Some("x"), "name"),
            Err(EngineError::UnknownColumn(_))
        ));
    }

    #[test]
    fn join_concatenates_and_nullable_marks() {
        let a = PlanSchema::new(vec![PlanColumn::from_base(
            &"a".into(),
            &Column::new("x", DataType::Int),
        )]);
        let b = PlanSchema::new(vec![PlanColumn::from_base(
            &"b".into(),
            &Column::new("y", DataType::Int),
        )]);
        let j = a.join(&b.as_nullable());
        assert_eq!(j.arity(), 2);
        assert!(!j.columns[0].nullable);
        assert!(j.columns[1].nullable);
    }
}
