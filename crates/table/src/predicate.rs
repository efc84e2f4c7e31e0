//! A small predicate AST evaluated against table rows.
//!
//! Predicates are deliberately simple — enough to express the selection
//! queries used across the RDI toolkit (range queries for `rdi-fairquery`,
//! group filters for `rdi-tailor`, slice definitions for `rdi-acquisition`)
//! without pulling in a SQL engine.

use crate::table::Table;
use crate::value::Value;

/// A boolean predicate over a single row.
///
/// Comparisons on a null cell evaluate to `false` (SQL three-valued logic
/// collapsed to two values), except [`Predicate::IsNull`]. Consequently
/// [`Predicate::Not`] is plain boolean negation: `Not(x > 3)` *matches*
/// null cells, unlike SQL's `NOT`.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// `column == value`.
    Eq(String, Value),
    /// `column != value` (false when the cell is null).
    Ne(String, Value),
    /// `column < value`.
    Lt(String, Value),
    /// `column <= value`.
    Le(String, Value),
    /// `column > value`.
    Gt(String, Value),
    /// `column >= value`.
    Ge(String, Value),
    /// `low <= column <= high` (inclusive range).
    Between(String, Value, Value),
    /// `column IN (values…)`.
    In(String, Vec<Value>),
    /// `column IS NULL`.
    IsNull(String),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column == value`.
    pub fn eq(column: impl Into<String>, value: Value) -> Self {
        Predicate::Eq(column.into(), value)
    }
    /// `column >= value`.
    pub fn ge(column: impl Into<String>, value: Value) -> Self {
        Predicate::Ge(column.into(), value)
    }
    /// `column <= value`.
    pub fn le(column: impl Into<String>, value: Value) -> Self {
        Predicate::Le(column.into(), value)
    }
    /// `low <= column <= high`.
    pub fn between(column: impl Into<String>, low: Value, high: Value) -> Self {
        Predicate::Between(column.into(), low, high)
    }
    /// Conjunction of two predicates.
    pub fn and(self, other: Predicate) -> Self {
        match self {
            Predicate::And(mut ps) => {
                ps.push(other);
                Predicate::And(ps)
            }
            p => Predicate::And(vec![p, other]),
        }
    }

    /// Evaluate against row `i` of `table`.
    ///
    /// Unknown columns evaluate to `false` rather than erroring: predicates
    /// are routinely evaluated against heterogeneous sources during
    /// discovery, where a source simply lacking a column means "no match".
    pub fn eval(&self, table: &Table, i: usize) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => cell(table, i, c).is_some_and(|x| !x.is_null() && &x == v),
            Predicate::Ne(c, v) => cell(table, i, c).is_some_and(|x| !x.is_null() && &x != v),
            Predicate::Lt(c, v) => cmp_ok(table, i, c, |x| x < *v),
            Predicate::Le(c, v) => cmp_ok(table, i, c, |x| x <= *v),
            Predicate::Gt(c, v) => cmp_ok(table, i, c, |x| x > *v),
            Predicate::Ge(c, v) => cmp_ok(table, i, c, |x| x >= *v),
            Predicate::Between(c, lo, hi) => cmp_ok(table, i, c, |x| x >= *lo && x <= *hi),
            Predicate::In(c, vs) => {
                cell(table, i, c).is_some_and(|x| !x.is_null() && vs.contains(&x))
            }
            Predicate::IsNull(c) => cell(table, i, c).is_some_and(|x| x.is_null()),
            Predicate::And(ps) => ps.iter().all(|p| p.eval(table, i)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(table, i)),
            Predicate::Not(p) => !p.eval(table, i),
        }
    }

    /// Number of rows in `table` matching this predicate.
    pub fn count(&self, table: &Table) -> usize {
        (0..table.num_rows())
            .filter(|&i| self.eval(table, i))
            .count()
    }
}

fn cell(table: &Table, i: usize, column: &str) -> Option<Value> {
    table.value(i, column).ok()
}

fn cmp_ok(table: &Table, i: usize, column: &str, f: impl Fn(Value) -> bool) -> bool {
    match cell(table, i, column) {
        Some(v) if !v.is_null() => f(v),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field, Schema};

    fn t() -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("s", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::Int(1), Value::str("a")]).unwrap();
        t.push_row(vec![Value::Int(5), Value::str("b")]).unwrap();
        t.push_row(vec![Value::Null, Value::str("c")]).unwrap();
        t
    }

    #[test]
    fn comparisons() {
        let t = t();
        assert_eq!(Predicate::ge("x", Value::Int(2)).count(&t), 1);
        assert_eq!(Predicate::le("x", Value::Int(5)).count(&t), 2);
        assert_eq!(
            Predicate::between("x", Value::Int(0), Value::Int(10)).count(&t),
            2
        );
    }

    #[test]
    fn null_cells_never_match_comparisons() {
        let t = t();
        assert_eq!(Predicate::eq("x", Value::Null).count(&t), 0);
        assert_eq!(Predicate::Ne("x".into(), Value::Int(1)).count(&t), 1);
        assert_eq!(Predicate::IsNull("x".into()).count(&t), 1);
    }

    #[test]
    fn boolean_combinators() {
        let t = t();
        let p = Predicate::ge("x", Value::Int(1)).and(Predicate::eq("s", Value::str("a")));
        assert_eq!(p.count(&t), 1);
        let q = Predicate::Or(vec![
            Predicate::eq("s", Value::str("a")),
            Predicate::eq("s", Value::str("c")),
        ]);
        assert_eq!(q.count(&t), 2);
        assert_eq!(Predicate::Not(Box::new(q)).count(&t), 1);
    }

    #[test]
    fn unknown_column_is_false() {
        let t = t();
        assert_eq!(Predicate::eq("zzz", Value::Int(1)).count(&t), 0);
    }

    #[test]
    fn in_list() {
        let t = t();
        let p = Predicate::In("s".into(), vec![Value::str("a"), Value::str("c")]);
        assert_eq!(p.count(&t), 2);
    }

    #[test]
    fn and_builder_flattens() {
        let p = Predicate::True.and(Predicate::True).and(Predicate::True);
        match p {
            Predicate::And(ps) => assert_eq!(ps.len(), 3),
            _ => panic!("expected And"),
        }
    }
}
