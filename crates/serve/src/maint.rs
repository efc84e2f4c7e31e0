//! Incremental sketch maintenance for registered tables.
//!
//! The cache ([`crate::cache::SketchCache`]) memoizes *immutable*
//! sketches keyed by content fingerprint; this module keeps the
//! *updatable* state behind them so a [`crate::LakeIndex`] can refresh
//! a table's cached sketches after a delta in O(delta) sketch work
//! instead of rebuilding from the full table.
//!
//! [`Maintained`] is one table's store: one [`UpdatableMinHash`] per
//! column, each created the first time a read names its column, and
//! read by both sketch kinds.
//!
//! * A **union read** materializes every column and derives the
//!   table's `TableSignature` from them.
//! * A **join read** on column `c` materializes `c` alone, or reuses
//!   the sketch a union read already built, and derives its
//!   [`KeyProfile`]: the signature plus the exact distinct count of the
//!   multiplicity map.
//!
//! Each column sketch is exact under inserts and removals
//! (multiplicity map + positionwise signature repair), so every derived
//! sketch is bitwise identical to a cold build at every point of a
//! delta stream, whichever kind built the column first.
//!
//! **Deltas and debt.** An append or delete is applied once to each
//! maintained column. Incremental deletion repair is exact, but a
//! delete whose departed values held signature minima re-hashes every
//! surviving distinct value once, so the store accrues a **deletion
//! debt** of deleted rows. Once the debt exceeds the index's
//! `deletion_debt_threshold`, each maintained column is rebuilt once
//! from the table and the debt resets: a cost policy, not a correctness
//! one, since answers are bitwise identical on both sides of the
//! threshold.
//!
//! **Shared snapshots.** The union signature and each join column's
//! profile are handed out as `Arc` snapshots: built on the first read
//! after a change, and dropped by every append, delete and rebuild.
//! Between changes every read (a cache miss after the entry was
//! evicted, or a delta's cache refresh) clones the `Arc` instead of
//! copying `k` words per column, so a lake whose sketch working set
//! exceeds the cache re-serves the same snapshot.
//!
//! **Counters.**
//! * `discovery.sketches_built` counts a union signature's columns at
//!   its first materialization and again at each debt rebuild, as
//!   `TableSignature::build` does, whatever a join read built before.
//!   A join read counts nothing here.
//! * `sketch.incremental_updates` counts one per non-null value applied
//!   to each maintained column (inside [`UpdatableMinHash`]).
//! * `sketch.rebuilds` counts one per maintained sketch kind on a debt
//!   crossing: the union signature, and each join column.
//!
//! The store is created empty with its table and dropped wholesale
//! when the table is dropped or replaced. Every integer operation here
//! is checked or saturating (clippy's `arithmetic_side_effects` is
//! denied): the debt stops at `u64::MAX` rather than wrap below the
//! threshold.

#![deny(clippy::arithmetic_side_effects)]

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use rdi_discovery::{TableSignature, UpdatableMinHash};
use rdi_obs::Counter;
use rdi_table::Table;

use crate::cache::{KeyProfile, Sketch, SketchKind};

/// A registered table's maintained sketch state: one column sketch per
/// column read so far, the snapshots derived from them, and the
/// deletion debt driving the rebuild policy.
#[derive(Debug)]
pub(crate) struct Maintained {
    /// One sketch per column in schema order, `None` until a read names
    /// the column.
    columns: Vec<Option<UpdatableMinHash>>,
    /// Whether a union read has materialized every column.
    union: bool,
    /// The union signature as of the last change, built on first read.
    signature: Option<Arc<TableSignature>>,
    /// Join columns read so far.
    joins: BTreeMap<Arc<str>, Join>,
    /// Deleted rows absorbed incrementally since the last rebuild.
    debt: u64,
}

/// One join column of a [`Maintained`] store.
#[derive(Debug)]
struct Join {
    /// The column's schema position.
    ci: usize,
    /// The profile as of the last change, built on first read.
    profile: Option<Arc<KeyProfile>>,
}

impl Maintained {
    /// An empty store for a table of `num_columns` columns.
    pub fn new(num_columns: usize) -> Self {
        Maintained {
            columns: std::iter::repeat_with(|| None).take(num_columns).collect(),
            union: false,
            signature: None,
            joins: BTreeMap::new(),
            debt: 0,
        }
    }

    /// The union signature, bitwise identical to `TableSignature::build`
    /// over `table` under `name`. The first read builds every column no
    /// join read built. Shared: reads between two changes return the
    /// same `Arc`.
    pub fn signature(&mut self, name: &str, table: &Table, k: usize) -> Arc<TableSignature> {
        if !self.union {
            for (ci, m) in self.columns.iter_mut().enumerate() {
                m.get_or_insert_with(|| UpdatableMinHash::from_column(table.column_at(ci), k));
            }
            sketches_built().add(self.columns.len() as u64);
            self.union = true;
        }
        let columns = &self.columns;
        Arc::clone(self.signature.get_or_insert_with(|| {
            Arc::new(TableSignature {
                name: name.to_string(),
                columns: table
                    .schema()
                    .fields()
                    .iter()
                    .zip(columns)
                    .filter_map(|(f, m)| Some((f.name.clone(), m.as_ref()?.minhash())))
                    .collect(),
            })
        }))
    }

    /// The join profile of `column`, bitwise identical to the cold path
    /// (`MinHash::from_column` + exact distinct count). Builds the
    /// column's sketch unless a union or join read already did; an
    /// unknown column is an error and builds nothing. Shared: reads
    /// between two changes return the same `Arc`.
    pub fn profile(
        &mut self,
        table: &Table,
        column: &Arc<str>,
        k: usize,
    ) -> rdi_table::Result<Arc<KeyProfile>> {
        let ci = table.schema().index_of(column)?;
        let m = self.columns[ci]
            .get_or_insert_with(|| UpdatableMinHash::from_column(table.column_at(ci), k));
        let join = self
            .joins
            .entry(Arc::clone(column))
            .or_insert(Join { ci, profile: None });
        Ok(profile_snapshot(&mut join.profile, column, m))
    }

    /// Hand every maintained snapshot to `insert`, the union signature
    /// first and then the join profiles in column order, building each
    /// one a change dropped. A delta's cache refresh inserts them under
    /// the table's new fingerprint.
    pub fn for_each_snapshot(
        &mut self,
        name: &str,
        table: &Table,
        k: usize,
        mut insert: impl FnMut(SketchKind, Sketch),
    ) {
        if self.union {
            insert(
                SketchKind::Union { k },
                Sketch::Union(self.signature(name, table, k)),
            );
        }
        for (column, join) in &mut self.joins {
            if let Some(m) = &self.columns[join.ci] {
                let kind = SketchKind::Join {
                    column: Arc::clone(column),
                    k,
                };
                insert(
                    kind,
                    Sketch::Join(profile_snapshot(&mut join.profile, column, m)),
                );
            }
        }
    }

    /// Absorb appended rows (same schema as the registered table,
    /// enforced by the table append itself). O(rows × maintained
    /// columns).
    pub fn append_rows(&mut self, rows: &Table) {
        self.drop_snapshots();
        for (ci, m) in maintained(&mut self.columns) {
            let col = rows.column_at(ci);
            for ri in 0..rows.num_rows() {
                m.insert(col.value(ri));
            }
        }
    }

    /// Absorb removed rows (as returned by `Table::delete_rows`), where
    /// `table` is the content after the delete. The rows add to the
    /// deletion debt; once it exceeds `debt_threshold`, each maintained
    /// column is rebuilt from `table` instead of repaired, and the debt
    /// resets.
    pub fn remove_rows(&mut self, removed: &Table, table: &Table, k: usize, debt_threshold: u64) {
        if !self.has_sketches() {
            return;
        }
        self.drop_snapshots();
        self.debt = self.debt.saturating_add(removed.num_rows() as u64);
        if self.debt <= debt_threshold {
            for (ci, m) in maintained(&mut self.columns) {
                let col = removed.column_at(ci);
                m.remove_all((0..removed.num_rows()).map(|ri| col.value(ri)));
            }
            return;
        }
        for (ci, m) in maintained(&mut self.columns) {
            *m = UpdatableMinHash::from_column(table.column_at(ci), k);
        }
        if self.union {
            sketches_built().add(self.columns.len() as u64);
        }
        sketch_rebuilds().add(u64::from(self.union).saturating_add(self.joins.len() as u64));
        self.debt = 0;
    }

    /// True when any sketch kind is being maintained (debt is only
    /// meaningful then).
    fn has_sketches(&self) -> bool {
        self.union || !self.joins.is_empty()
    }

    fn drop_snapshots(&mut self) {
        self.signature = None;
        for join in self.joins.values_mut() {
            join.profile = None;
        }
    }

    /// Column sketches held, one per distinct column read so far.
    #[cfg(test)]
    pub fn sketch_count(&self) -> usize {
        self.columns.iter().flatten().count()
    }

    /// Deleted rows absorbed since the last rebuild.
    #[cfg(test)]
    pub fn debt(&self) -> u64 {
        self.debt
    }

    /// Start from a given debt, to reach its bound without deleting
    /// that many rows.
    #[cfg(test)]
    pub fn set_debt(&mut self, debt: u64) {
        self.debt = debt;
    }
}

/// The built column sketches with their schema positions.
fn maintained(
    columns: &mut [Option<UpdatableMinHash>],
) -> impl Iterator<Item = (usize, &mut UpdatableMinHash)> {
    columns
        .iter_mut()
        .enumerate()
        .filter_map(|(ci, m)| Some((ci, m.as_mut()?)))
}

/// A join column's shared profile, derived from its sketch on the
/// first read after a change.
fn profile_snapshot(
    snapshot: &mut Option<Arc<KeyProfile>>,
    column: &str,
    m: &UpdatableMinHash,
) -> Arc<KeyProfile> {
    Arc::clone(snapshot.get_or_insert_with(|| {
        Arc::new(KeyProfile {
            column: column.to_string(),
            minhash: m.minhash(),
            distinct: m.distinct(),
        })
    }))
}

/// `discovery.sketches_built`, resolved on first use (first union
/// read).
fn sketches_built() -> &'static Counter {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| rdi_obs::counter("discovery.sketches_built"))
}

/// `sketch.rebuilds`, resolved on first use (first debt rebuild).
fn sketch_rebuilds() -> &'static Counter {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| rdi_obs::counter("sketch.rebuilds"))
}
