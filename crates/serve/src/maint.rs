//! Incremental sketch maintenance for registered tables.
//!
//! The cache ([`crate::cache::SketchCache`]) memoizes *immutable*
//! sketches keyed by content fingerprint; this module keeps the
//! *updatable* state behind them so a [`crate::LakeIndex`] can refresh
//! a table's cached sketches after a delta in O(delta) sketch work
//! instead of rebuilding from the full table:
//!
//! * [`UpdatableSignature`] — the maintained twin of
//!   `TableSignature`: one [`UpdatableMinHash`] per column. Exact
//!   under both inserts and removals (multiplicity map + positionwise
//!   signature repair), so the derived signature is bitwise identical
//!   to a cold build at every point of a delta stream.
//! * [`UpdatableKeyProfile`] — the maintained twin of
//!   [`crate::cache::KeyProfile`]: one column's [`UpdatableMinHash`]
//!   whose multiplicity map also yields the exact distinct count.
//! * [`Maintained`] — a table's lazily-populated collection of the
//!   above, plus the **deletion debt** counter. Incremental deletion
//!   repair is exact, but a delete whose departed values held signature
//!   minima re-hashes every surviving distinct value once; once
//!   accumulated deleted rows exceed the index's
//!   `deletion_debt_threshold` the index performs one counted
//!   rebuild (`sketch.rebuilds`) from the table and resets the debt —
//!   a cost policy, not a correctness one: answers are bitwise
//!   identical on both sides of the threshold.
//!
//! Maintained state is created the first time a sketch kind is
//! requested for a table (queries decide what is worth maintaining)
//! and dropped wholesale when the table is dropped or replaced.
//!
//! **Shared snapshots.** Each maintained sketch hands out its immutable
//! form as an `Arc` snapshot: built on the first read after a change,
//! dropped by `append_rows`/`remove_rows`, and gone with the old state
//! on a debt rebuild. Between changes every read — a cache miss after
//! the entry was evicted, or a delta's cache refresh — clones the
//! `Arc` instead of copying `k` words per column, so a lake whose
//! sketch working set exceeds the cache re-serves the same snapshot.

use std::collections::BTreeMap;
use std::sync::Arc;

use rdi_discovery::{TableSignature, UpdatableMinHash};
use rdi_table::Table;

use crate::cache::KeyProfile;

/// The maintained twin of a `TableSignature`: per-column updatable
/// MinHashes in schema order.
#[derive(Debug)]
pub(crate) struct UpdatableSignature {
    name: String,
    columns: Vec<(String, UpdatableMinHash)>,
    /// The signature as of the last change, built on first read.
    snapshot: Option<Arc<TableSignature>>,
}

impl UpdatableSignature {
    /// Build from a table's full content. Counts
    /// `discovery.sketches_built` once per column — the same accounting
    /// as `TableSignature::build`, so warm-replay "zero new sketches"
    /// assertions see the maintained and plain paths identically.
    pub fn build(name: &str, table: &Table, k: usize) -> Self {
        let mut columns = Vec::with_capacity(table.num_columns());
        for (ci, f) in table.schema().fields().iter().enumerate() {
            let m = UpdatableMinHash::from_column(table.column_at(ci), k);
            columns.push((f.name.clone(), m));
        }
        rdi_obs::counter("discovery.sketches_built").add(columns.len() as u64);
        UpdatableSignature {
            name: name.to_string(),
            columns,
            snapshot: None,
        }
    }

    /// The immutable signature to cache — bitwise identical to
    /// `TableSignature::build` over the same content. Shared: reads
    /// between two changes return the same `Arc`.
    pub fn signature(&mut self) -> Arc<TableSignature> {
        let (name, columns) = (&self.name, &self.columns);
        Arc::clone(self.snapshot.get_or_insert_with(|| {
            Arc::new(TableSignature {
                name: name.clone(),
                columns: columns
                    .iter()
                    .map(|(n, m)| (n.clone(), m.minhash()))
                    .collect(),
            })
        }))
    }

    /// Absorb appended rows (same schema as the registered table —
    /// enforced by the table append itself). O(rows × columns).
    pub fn append_rows(&mut self, rows: &Table) {
        self.snapshot = None;
        for (ci, (_, m)) in self.columns.iter_mut().enumerate() {
            let col = rows.column_at(ci);
            for ri in 0..rows.num_rows() {
                m.insert(col.value(ri));
            }
        }
    }

    /// Absorb removed rows (as returned by `Table::delete_rows`).
    pub fn remove_rows(&mut self, removed: &Table) {
        self.snapshot = None;
        for (ci, (_, m)) in self.columns.iter_mut().enumerate() {
            let col = removed.column_at(ci);
            m.remove_all((0..removed.num_rows()).map(|ri| col.value(ri)));
        }
    }
}

/// The maintained twin of a [`KeyProfile`]: one column's updatable
/// MinHash, whose multiplicity map is also the exact distinct count.
#[derive(Debug)]
pub(crate) struct UpdatableKeyProfile {
    column: String,
    minhash: UpdatableMinHash,
    /// The profile as of the last change, built on first read.
    snapshot: Option<Arc<KeyProfile>>,
}

impl UpdatableKeyProfile {
    /// Build from one column of a table's full content.
    pub fn build(table: &Table, column: &str, k: usize) -> rdi_table::Result<Self> {
        let minhash = UpdatableMinHash::from_column(table.column(column)?, k);
        Ok(UpdatableKeyProfile {
            column: column.to_string(),
            minhash,
            snapshot: None,
        })
    }

    /// The immutable profile to cache — bitwise identical to the cold
    /// path (`MinHash::from_column` + exact distinct count). Shared:
    /// reads between two changes return the same `Arc`.
    pub fn profile(&mut self) -> Arc<KeyProfile> {
        let (column, minhash) = (&self.column, &self.minhash);
        Arc::clone(self.snapshot.get_or_insert_with(|| {
            Arc::new(KeyProfile {
                column: column.clone(),
                minhash: minhash.minhash(),
                distinct: minhash.distinct(),
            })
        }))
    }

    /// Absorb appended rows. O(rows).
    pub fn append_rows(&mut self, rows: &Table) -> rdi_table::Result<()> {
        self.snapshot = None;
        let col = rows.column(&self.column)?;
        for ri in 0..rows.num_rows() {
            self.minhash.insert(col.value(ri));
        }
        Ok(())
    }

    /// Absorb removed rows. O(rows) plus positionwise repair.
    pub fn remove_rows(&mut self, removed: &Table) -> rdi_table::Result<()> {
        self.snapshot = None;
        let col = removed.column(&self.column)?;
        self.minhash
            .remove_all((0..removed.num_rows()).map(|ri| col.value(ri)));
        Ok(())
    }
}

/// A registered table's maintained sketch state: whichever sketch
/// kinds queries have materialized so far, plus the deletion debt
/// driving the rebuild policy.
#[derive(Debug, Default)]
pub(crate) struct Maintained {
    /// Union-search signature, once a union query touched the table.
    pub union: Option<UpdatableSignature>,
    /// Join profiles per queried column.
    pub joins: BTreeMap<String, UpdatableKeyProfile>,
    /// Deleted rows absorbed incrementally since the last rebuild.
    pub debt: u64,
}

impl Maintained {
    /// True when any sketch is being maintained (debt is only
    /// meaningful then).
    pub fn has_sketches(&self) -> bool {
        self.union.is_some() || !self.joins.is_empty()
    }
}
