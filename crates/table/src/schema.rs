//! Schemas: typed, role-annotated field descriptions.
//!
//! Responsible data integration needs to know not just the *type* of each
//! attribute but its *role* in downstream analysis (tutorial §2.3): which
//! attributes are **sensitive** (demographic group identifiers), which are
//! **targets** (labels), and which are plain observation **features**.

use crate::error::TableError;
use crate::Result;

/// Physical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string / categorical code.
    Str,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Short lowercase name (`"int"`, `"float"`, `"str"`, `"bool"`).
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bool => "bool",
        }
    }
}

/// Analytic role of a field (tutorial §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Role {
    /// Ordinary observation attribute (the default).
    #[default]
    Feature,
    /// Sensitive / protected attribute identifying demographic groups.
    Sensitive,
    /// Target (label) attribute for prediction tasks.
    Target,
    /// Row identifier; excluded from statistics.
    Id,
}

/// A named, typed, role-annotated column description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, unique within a [`Schema`].
    pub name: String,
    /// Physical type.
    pub dtype: DataType,
    /// Analytic role.
    pub role: Role,
}

impl Field {
    /// Create a feature field with the given name and type.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
            role: Role::Feature,
        }
    }

    /// Builder: set the role.
    pub fn with_role(mut self, role: Role) -> Self {
        self.role = role;
        self
    }
}

/// An ordered collection of [`Field`]s with unique names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields.
    ///
    /// # Panics
    /// Panics if two fields share a name — schemas are almost always
    /// constructed from literals, so this is a programming error, not a
    /// runtime condition.
    pub fn new(fields: Vec<Field>) -> Self {
        for (i, f) in fields.iter().enumerate() {
            for g in &fields[i + 1..] {
                assert_ne!(f.name, g.name, "duplicate field name `{}`", f.name);
            }
        }
        Schema { fields }
    }

    /// The fields, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True iff the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field with this name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| TableError::UnknownColumn(name.to_string()))
    }

    /// The field with this name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }

    /// Names of all fields with the given role.
    pub fn names_with_role(&self, role: Role) -> Vec<&str> {
        self.fields
            .iter()
            .filter(|f| f.role == role)
            .map(|f| f.name.as_str())
            .collect()
    }

    /// Names of sensitive attributes.
    pub fn sensitive(&self) -> Vec<&str> {
        self.names_with_role(Role::Sensitive)
    }

    /// Names of target attributes.
    pub fn targets(&self) -> Vec<&str> {
        self.names_with_role(Role::Target)
    }

    /// A new schema containing only the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(names.len());
        for n in names {
            fields.push(self.field(n)?.clone());
        }
        Ok(Schema::new(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int).with_role(Role::Id),
            Field::new("age", DataType::Int),
            Field::new("race", DataType::Str).with_role(Role::Sensitive),
            Field::new("sex", DataType::Str).with_role(Role::Sensitive),
            Field::new("y", DataType::Bool).with_role(Role::Target),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = demo();
        assert_eq!(s.index_of("race").unwrap(), 2);
        assert!(s.index_of("nope").is_err());
    }

    #[test]
    fn role_queries() {
        let s = demo();
        assert_eq!(s.sensitive(), vec!["race", "sex"]);
        assert_eq!(s.targets(), vec!["y"]);
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_names_panic() {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Str),
        ]);
    }

    #[test]
    fn project_keeps_order() {
        let s = demo().project(&["y", "age"]).unwrap();
        assert_eq!(s.fields()[0].name, "y");
        assert_eq!(s.fields()[1].name, "age");
    }
}
