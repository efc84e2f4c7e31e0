//! Cost-annotated data sources for tailoring.
//!
//! Two layers live here:
//!
//! * [`Source`] — the *fallible* source abstraction: every draw may fail
//!   with a typed [`SourceError`] (`try_draw`), because real federated
//!   sources go down, corrupt records, truncate responses, and stall
//!   (tutorial §1, Ex. 1). `try_draw` is the *only* trait method — the
//!   legacy infallible `draw` shim has been removed; retry/backoff
//!   lives in `rdi_core::run_resilient`, not in sources.
//! * [`TableSource`] — the paper's in-memory model of an external API
//!   (sample a backing table with replacement at a fixed cost). Its
//!   `try_draw` never fails; fault behaviour is layered on by
//!   `rdi-fault`'s `FaultySource` wrapper.

use std::sync::{Arc, OnceLock};

use rand::{Rng, RngCore};
use rdi_table::{ColumnCodes, GroupIndex, Schema, Table, TableError, Value};

use crate::problem::DtProblem;

/// One drawn record: the row's target-group index (if any) and its
/// values.
pub type Draw = (Option<usize>, Vec<Value>);

/// Why a single draw against a source failed — the failure taxonomy of
/// federated integration (see DESIGN.md, "Failure taxonomy").
///
/// The variants are ordered from "source is gone" to "source is slow":
/// all four are *transient per-draw verdicts*; deciding whether a source
/// is permanently dead is the resilient executor's job (circuit
/// breaker), not the source's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SourceError {
    /// The source did not respond at all (connection refused, host down).
    Unavailable,
    /// The source responded with an undecodable or corrupt record.
    Corrupt,
    /// The source returned only part of a record.
    Truncated,
    /// The source stalled past its deadline.
    Timeout,
}

impl SourceError {
    /// Every variant, in stable order (metric and report keys index
    /// into this).
    pub const ALL: [SourceError; 4] = [
        SourceError::Unavailable,
        SourceError::Corrupt,
        SourceError::Truncated,
        SourceError::Timeout,
    ];

    /// Stable lowercase label for metrics and provenance.
    pub fn kind(self) -> &'static str {
        match self {
            SourceError::Unavailable => "unavailable",
            SourceError::Corrupt => "corrupt",
            SourceError::Truncated => "truncated",
            SourceError::Timeout => "timeout",
        }
    }

    /// Position of this variant in [`SourceError::ALL`].
    pub fn index(self) -> usize {
        match self {
            SourceError::Unavailable => 0,
            SourceError::Corrupt => 1,
            SourceError::Truncated => 2,
            SourceError::Timeout => 3,
        }
    }
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Unavailable => write!(f, "source unavailable"),
            SourceError::Corrupt => write!(f, "corrupt record"),
            SourceError::Truncated => write!(f, "truncated record"),
            SourceError::Timeout => write!(f, "request timed out"),
        }
    }
}

impl std::error::Error for SourceError {}

/// A cost-annotated, possibly-failing record source.
///
/// The trait is object-safe (`&mut dyn RngCore` instead of a generic
/// RNG) so executors can mix source kinds behind one slice. The only
/// drawing method is the fallible [`Source::try_draw`]; the deprecated
/// infallible `draw` default (which retried `try_draw` unboundedly) has
/// been removed. Failure-*aware* callers (retry budgets, circuit
/// breakers, degradation accounting) handle the error — that is what
/// `rdi-core`'s resilient executor does; the single-attempt runners in
/// [`crate::runner`] count a failed attempt as a paid, unproductive
/// draw.
pub trait Source {
    /// Source name (stable; used in provenance and audit reports).
    fn name(&self) -> &str;

    /// Per-request cost, charged per *attempt* whether or not a record
    /// comes back.
    fn cost(&self) -> f64;

    /// The schema of the records this source yields.
    fn schema(&self) -> &Schema;

    /// True group frequencies `P_i(g)` over the problem's target groups.
    /// Policies modelling the *unknown*-distribution setting must not
    /// read this.
    fn frequencies(&self) -> &[f64];

    /// Attempt to draw one random record.
    fn try_draw(&mut self, rng: &mut dyn RngCore) -> Result<Draw, SourceError>;
}

/// A source backed by an in-memory table, sampled **with replacement** —
/// the paper's model of querying an external API whose each request
/// returns one random record at a fixed cost.
///
/// A drawn row's group is looked up in a [`GroupIndex`] of the
/// problem's target groups, built from the group attributes' codes;
/// rows in none of the target groups report `None`. The backing table
/// is shared, never copied: sources built over one registered
/// `Arc<Table>` all read the same rows.
#[derive(Debug, Clone)]
pub struct TableSource {
    name: String,
    table: Arc<Table>,
    cost: f64,
    /// Row -> target-group index (None = not a target group).
    groups: GroupIndex,
    num_groups: usize,
    /// True per-group frequencies P_i(g) (fraction of rows in each target
    /// group) — read by *known-distribution* policies only, so counted
    /// over every row on first read.
    frequencies: OnceLock<Vec<f64>>,
}

impl TableSource {
    /// Wrap a table as a source with per-sample `cost`.
    ///
    /// `table` is anything that converts into an `Arc<Table>`: an owned
    /// [`Table`] is moved into a fresh `Arc`, and an existing `Arc` (say,
    /// a table registered with a serving index) is shared as is. The
    /// group attributes are encoded once and handed to
    /// [`TableSource::with_codes`].
    ///
    /// # Errors
    /// As [`TableSource::with_codes`].
    pub fn new(
        name: impl Into<String>,
        table: impl Into<Arc<Table>>,
        cost: f64,
        problem: &DtProblem,
    ) -> rdi_table::Result<Self> {
        let table = table.into();
        TableSource::with_codes(name, Arc::clone(&table), cost, problem, &*table)
    }

    /// Wrap a table as a source with per-sample `cost`, reading the
    /// group attributes' codes from `codes`: row group membership comes
    /// from [`rdi_table::GroupSpec::index_codes`] over the problem's
    /// target groups.
    ///
    /// # Errors
    /// In this order: an empty table, a cost that is not positive (NaN
    /// included), or a group attribute `codes` does not know.
    pub fn with_codes(
        name: impl Into<String>,
        table: Arc<Table>,
        cost: f64,
        problem: &DtProblem,
        codes: &(impl ColumnCodes + ?Sized),
    ) -> rdi_table::Result<Self> {
        if table.is_empty() {
            return Err(TableError::SchemaMismatch("empty source table".into()));
        }
        // `cost > 0.0` phrased via partial_cmp so NaN is rejected too.
        if cost.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(TableError::SchemaMismatch(
                "source cost must be positive".into(),
            ));
        }
        let groups = problem.spec.index_codes(&problem.groups, codes)?;
        Ok(TableSource {
            name: name.into(),
            table,
            cost,
            groups,
            num_groups: problem.num_groups(),
            frequencies: OnceLock::new(),
        })
    }

    /// Source name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-sample cost.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// True group frequencies `P_i(g)` over the problem's target groups.
    /// Policies modelling the *unknown*-distribution setting must not read
    /// this.
    pub fn frequencies(&self) -> &[f64] {
        self.frequencies.get_or_init(|| {
            let rows = self.table.num_rows();
            let mut counts = vec![0usize; self.num_groups];
            for g in (0..rows).filter_map(|i| self.groups.lookup(i)) {
                counts[g] += 1;
            }
            counts.iter().map(|&c| c as f64 / rows as f64).collect()
        })
    }

    /// Draw one random record (uniform with replacement): returns the
    /// row's target-group index (if any) and its values.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> (Option<usize>, Vec<Value>) {
        let i = rng.gen_range(0..self.table.num_rows());
        #[expect(
            clippy::expect_used,
            reason = "`i` is drawn from 0..num_rows, so the row lookup cannot fail"
        )]
        let row = self.table.row(i).expect("index in range");
        (self.groups.lookup(i), row)
    }

    /// The backing table's schema.
    pub fn schema(&self) -> &rdi_table::Schema {
        self.table.schema()
    }

    /// Number of backing rows.
    pub fn num_rows(&self) -> usize {
        self.table.num_rows()
    }
}

impl Source for TableSource {
    fn name(&self) -> &str {
        TableSource::name(self)
    }

    fn cost(&self) -> f64 {
        TableSource::cost(self)
    }

    fn schema(&self) -> &Schema {
        TableSource::schema(self)
    }

    fn frequencies(&self) -> &[f64] {
        TableSource::frequencies(self)
    }

    /// Never fails: the backing table is in memory, so this is exactly
    /// one call to the inherent [`TableSource::draw`].
    fn try_draw(&mut self, rng: &mut dyn RngCore) -> Result<Draw, SourceError> {
        Ok(TableSource::draw(self, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema};

    fn problem() -> DtProblem {
        DtProblem::exact_counts(
            GroupSpec::new(vec!["g"]),
            vec![
                (GroupKey(vec![Value::str("a")]), 2),
                (GroupKey(vec![Value::str("b")]), 2),
            ],
        )
    }

    fn table(rows: &[&str]) -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive)
        ]);
        let mut t = Table::new(schema);
        for r in rows {
            t.push_row(vec![Value::str(*r)]).unwrap();
        }
        t
    }

    #[test]
    fn frequencies_computed_over_target_groups() {
        let s = TableSource::new("s", table(&["a", "a", "b", "c"]), 1.0, &problem()).unwrap();
        assert_eq!(s.frequencies(), &[0.5, 0.25]);
    }

    #[test]
    fn draw_returns_group_membership() {
        let s = TableSource::new("s", table(&["a", "c"]), 1.0, &problem()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen_none = false;
        let mut seen_a = false;
        for _ in 0..100 {
            match s.draw(&mut rng).0 {
                Some(0) => seen_a = true,
                None => seen_none = true,
                other => panic!("unexpected group {other:?}"),
            }
        }
        assert!(seen_none && seen_a);
    }

    #[test]
    fn empty_table_and_bad_cost_rejected() {
        let p = problem();
        assert!(TableSource::new("s", table(&[]), 1.0, &p).is_err());
        assert!(TableSource::new("s", table(&["a"]), 0.0, &p).is_err());
        assert!(TableSource::new("s", table(&["a"]), -1.0, &p).is_err());
    }

    /// The checks run empty table, then cost, then group attribute.
    #[test]
    fn construction_errors_come_in_a_fixed_order() {
        let p = DtProblem::exact_counts(
            GroupSpec::new(vec!["nope"]),
            vec![(GroupKey(vec![Value::str("a")]), 1)],
        );
        let err = |t: Table, cost: f64| TableSource::new("s", t, cost, &p).unwrap_err();
        let empty = TableError::SchemaMismatch("empty source table".into());
        let cost = TableError::SchemaMismatch("source cost must be positive".into());
        assert_eq!(err(table(&[]), f64::NAN), empty);
        assert_eq!(err(table(&["a"]), 0.0), cost);
        assert_eq!(
            err(table(&["a"]), 1.0),
            TableError::UnknownColumn("nope".into())
        );
    }

    #[test]
    fn draw_is_uniform_with_replacement() {
        let s = TableSource::new("s", table(&["a", "b"]), 1.0, &problem()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 10_000;
        let a = (0..n).filter(|_| s.draw(&mut rng).0 == Some(0)).count();
        let frac = a as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac={frac}");
    }
}
