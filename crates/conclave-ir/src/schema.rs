//! Relation schemas: named, typed columns with trust annotations.

use crate::error::{IrError, IrResult};
use crate::trust::TrustSet;
use crate::types::DataType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Definition of one column in a relation schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name, unique within its schema.
    pub name: String,
    /// Static type of the column's values.
    pub dtype: DataType,
    /// Parties trusted to see this column in the clear (§4.3): the party's
    /// annotation, read on `Input` schemas only. A derived column's trust is
    /// computed by [`crate::flow::compute_flow`]; the schema helpers copy or
    /// default this field and nothing reads it on a derived schema.
    pub trust: TrustSet,
}

impl ColumnDef {
    /// Creates a private column (empty trust set).
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            dtype,
            trust: TrustSet::private(),
        }
    }

    /// Creates a column with an explicit trust set.
    pub fn with_trust(name: impl Into<String>, dtype: DataType, trust: TrustSet) -> Self {
        ColumnDef {
            name: name.into(),
            dtype,
            trust,
        }
    }

    /// Creates a public column (every party may learn its values).
    pub fn public(name: impl Into<String>, dtype: DataType) -> Self {
        Self::with_trust(name, dtype, TrustSet::Public)
    }

    /// Returns a copy renamed to `name`.
    pub fn renamed(&self, name: impl Into<String>) -> Self {
        ColumnDef {
            name: name.into(),
            dtype: self.dtype,
            trust: self.trust.clone(),
        }
    }
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    /// Columns in relation order.
    pub columns: Vec<ColumnDef>,
}

impl Schema {
    /// Creates a schema from a list of columns.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        Schema { columns }
    }

    /// Convenience constructor: all-integer private columns with the given names.
    pub fn ints(names: &[&str]) -> Self {
        Schema {
            columns: names
                .iter()
                .map(|n| ColumnDef::new(*n, DataType::Int))
                .collect(),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Returns `true` if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Like [`Schema::index_of`] but returns an [`IrError::UnknownColumn`].
    pub fn require(&self, name: &str, context: &str) -> IrResult<usize> {
        self.index_of(name).ok_or_else(|| IrError::UnknownColumn {
            column: name.to_string(),
            context: context.to_string(),
        })
    }

    /// The column definition with the given name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// Mutable access to a column definition by name.
    pub fn column_mut(&mut self, name: &str) -> Option<&mut ColumnDef> {
        let idx = self.index_of(name)?;
        Some(&mut self.columns[idx])
    }

    /// Returns `true` if all column names are distinct.
    pub fn names_unique(&self) -> bool {
        let mut names: Vec<&str> = self.names();
        names.sort_unstable();
        names.windows(2).all(|w| w[0] != w[1])
    }

    /// Checks that two schemas are union-compatible: same arity and same
    /// column types position-wise (names may differ; the left names win).
    pub fn union_compatible(&self, other: &Schema) -> IrResult<()> {
        if self.len() != other.len() {
            return Err(IrError::SchemaMismatch {
                detail: format!("arity {} vs {}", self.len(), other.len()),
            });
        }
        for (a, b) in self.columns.iter().zip(&other.columns) {
            if a.dtype != b.dtype {
                return Err(IrError::SchemaMismatch {
                    detail: format!(
                        "column `{}`: {} vs `{}`: {}",
                        a.name, a.dtype, b.name, b.dtype
                    ),
                });
            }
        }
        Ok(())
    }

    /// Projects the schema onto the named columns, in the given order.
    pub fn project(&self, names: &[String]) -> IrResult<Schema> {
        let mut cols = Vec::with_capacity(names.len());
        for n in names {
            let idx = self.require(n, "project")?;
            cols.push(self.columns[idx].clone());
        }
        Ok(Schema::new(cols))
    }

    /// Appends a column, returning an error if the name already exists.
    pub fn push(&mut self, col: ColumnDef) -> IrResult<()> {
        if self.index_of(&col.name).is_some() {
            return Err(IrError::SchemaMismatch {
                detail: format!("duplicate column `{}`", col.name),
            });
        }
        self.columns.push(col);
        Ok(())
    }

    /// Approximate size in bytes of one row with this schema (used by cost
    /// models; strings are assumed to average 16 bytes).
    pub fn row_byte_size(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c.dtype {
                DataType::Int | DataType::Float => 8,
                DataType::Bool => 1,
                DataType::Str => 16,
            })
            .sum()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{} [{}]", c.name, c.dtype, c.trust)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trust::TrustSet;

    fn demo_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("ssn", DataType::Int),
            ColumnDef::with_trust("zip", DataType::Int, TrustSet::of([1])),
            ColumnDef::public("id", DataType::Int),
        ])
    }

    #[test]
    fn lookup_and_names() {
        let s = demo_schema();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.names(), vec!["ssn", "zip", "id"]);
        assert_eq!(s.index_of("zip"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert!(s.require("ssn", "test").is_ok());
        assert!(matches!(
            s.require("missing", "test"),
            Err(IrError::UnknownColumn { .. })
        ));
        assert_eq!(s.column("id").unwrap().dtype, DataType::Int);
        assert!(s.names_unique());
    }

    #[test]
    fn ints_constructor() {
        let s = Schema::ints(&["a", "b"]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.columns[0].dtype, DataType::Int);
        assert!(!s.columns[0].trust.is_public());
    }

    #[test]
    fn union_compatibility() {
        let a = Schema::ints(&["x", "y"]);
        let b = Schema::ints(&["u", "v"]);
        assert!(a.union_compatible(&b).is_ok());
        let c = Schema::ints(&["x"]);
        assert!(a.union_compatible(&c).is_err());
        let d = Schema::new(vec![
            ColumnDef::new("x", DataType::Int),
            ColumnDef::new("y", DataType::Str),
        ]);
        assert!(a.union_compatible(&d).is_err());
    }

    #[test]
    fn project_and_push() {
        let s = demo_schema();
        let p = s.project(&["id".to_string(), "ssn".to_string()]).unwrap();
        assert_eq!(p.names(), vec!["id", "ssn"]);
        assert!(s.project(&["nope".to_string()]).is_err());

        let mut s2 = demo_schema();
        assert!(s2.push(ColumnDef::new("new", DataType::Float)).is_ok());
        assert!(s2.push(ColumnDef::new("ssn", DataType::Int)).is_err());
    }

    #[test]
    fn row_size_and_display() {
        let s = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Bool),
            ColumnDef::new("c", DataType::Str),
        ]);
        assert_eq!(s.row_byte_size(), 8 + 1 + 16);
        let shown = demo_schema().to_string();
        assert!(shown.contains("ssn:INT"));
        assert!(shown.contains("public"));
    }

    #[test]
    fn renamed_and_mut() {
        let c = ColumnDef::public("a", DataType::Int).renamed("b");
        assert_eq!(c.name, "b");
        assert!(c.trust.is_public());
        let mut s = demo_schema();
        s.column_mut("ssn").unwrap().trust.add(2);
        assert!(s.column("ssn").unwrap().trust.trusts(2));
        assert!(s.column_mut("nope").is_none());
    }
}
