//! Banded MinHash-LSH index for Jaccard threshold queries.
//!
//! Signatures are split into `b` bands of `r` rows; two sets collide when
//! any band matches exactly, which happens with probability
//! `1 − (1 − J^r)^b` — an S-curve whose inflection is tuned to the query
//! threshold.

use std::collections::{BTreeMap, BTreeSet};

use rdi_par::{par_map, Threads};

use crate::hash::hash_bytes;
use crate::metrics;
use crate::minhash::MinHash;

/// An LSH index over MinHash signatures.
#[derive(Debug, Clone)]
pub struct MinHashLsh {
    bands: usize,
    rows: usize,
    /// per-band bucket maps: band-hash → member ids
    tables: Vec<BTreeMap<u64, Vec<usize>>>,
    /// stored signatures for optional post-filtering
    signatures: Vec<MinHash>,
}

impl MinHashLsh {
    /// Create an index with `bands × rows` = signature length.
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(bands > 0 && rows > 0);
        MinHashLsh {
            bands,
            rows,
            tables: vec![BTreeMap::new(); bands],
            signatures: Vec::new(),
        }
    }

    /// Choose `(bands, rows)` for a total signature length `k` whose
    /// S-curve inflection `(1/b)^(1/r)` is closest to `threshold`.
    pub fn tuned(k: usize, threshold: f64) -> Self {
        assert!(k > 0 && (0.0..=1.0).contains(&threshold));
        let mut best = (1, k, f64::INFINITY);
        for r in 1..=k {
            if !k.is_multiple_of(r) {
                continue;
            }
            let b = k / r;
            let inflection = (1.0 / b as f64).powf(1.0 / r as f64);
            let d = (inflection - threshold).abs();
            if d < best.2 {
                best = (b, r, d);
            }
        }
        MinHashLsh::new(best.0, best.1)
    }

    /// Required signature length.
    pub fn signature_len(&self) -> usize {
        self.bands * self.rows
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True iff no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Insert a signature, returning its id.
    pub fn insert(&mut self, sig: MinHash) -> usize {
        assert_eq!(sig.k(), self.signature_len(), "signature length mismatch");
        let id = self.signatures.len();
        for (band, table) in self.tables.iter_mut().enumerate() {
            let h = band_hash(&sig, band, self.rows);
            table.entry(h).or_default().push(id);
        }
        self.signatures.push(sig);
        id
    }

    /// Insert many signatures at once, returning their ids in input
    /// order. Band hashes are computed in parallel on `threads`;
    /// bucket insertion then replays them in input order, so the index
    /// state is identical to repeated [`MinHashLsh::insert`] calls for
    /// any thread count.
    pub fn insert_batch(&mut self, sigs: Vec<MinHash>, threads: Threads) -> Vec<usize> {
        for sig in &sigs {
            assert_eq!(sig.k(), self.signature_len(), "signature length mismatch");
        }
        let rows = self.rows;
        let bands = self.bands;
        let band_hashes: Vec<Vec<u64>> = par_map(threads.min_len(8), &sigs, |sig| {
            (0..bands).map(|b| band_hash(sig, b, rows)).collect()
        });
        let mut ids = Vec::with_capacity(sigs.len());
        for (sig, hashes) in sigs.into_iter().zip(band_hashes) {
            let id = self.signatures.len();
            for (table, h) in self.tables.iter_mut().zip(hashes) {
                table.entry(h).or_default().push(id);
            }
            self.signatures.push(sig);
            ids.push(id);
        }
        ids
    }

    /// Ids of items colliding with the query in at least one band,
    /// sorted ascending.
    pub fn query(&self, sig: &MinHash) -> Vec<usize> {
        assert_eq!(sig.k(), self.signature_len(), "signature length mismatch");
        // every query probes one bucket per band
        metrics::LSH_PROBES.add(self.bands as u64);
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for (band, table) in self.tables.iter().enumerate() {
            let h = band_hash(sig, band, self.rows);
            if let Some(ids) = table.get(&h) {
                out.extend(ids.iter().copied());
            }
        }
        // BTreeSet iteration is already sorted ascending.
        out.into_iter().collect()
    }

    /// Query then drop candidates whose *estimated* Jaccard is below
    /// `threshold` (cheap post-filter on the stored signatures).
    pub fn query_filtered(&self, sig: &MinHash, threshold: f64) -> Vec<usize> {
        self.query(sig)
            .into_iter()
            .filter(|&id| self.signatures[id].jaccard(sig) >= threshold)
            .collect()
    }
}

fn band_hash(sig: &MinHash, band: usize, rows: usize) -> u64 {
    let slice = &sig.signature()[band * rows..(band + 1) * rows];
    let mut bytes = Vec::with_capacity(rows * 8);
    for v in slice {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    hash_bytes(&bytes, band as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::Value;

    fn sig(vals: std::ops::Range<usize>, k: usize) -> MinHash {
        let vs: Vec<Value> = vals.map(|i| Value::str(format!("v{i}"))).collect();
        MinHash::from_values(vs.iter(), k)
    }

    #[test]
    fn near_duplicates_collide() {
        let mut lsh = MinHashLsh::new(16, 4);
        let a = sig(0..100, 64);
        let b = sig(0..98, 64); // J ≈ 0.98
        let id = lsh.insert(a);
        let hits = lsh.query(&b);
        assert_eq!(hits, vec![id]);
    }

    #[test]
    fn dissimilar_items_rarely_collide() {
        let mut lsh = MinHashLsh::new(8, 8);
        for t in 0..50 {
            lsh.insert(sig(t * 1000..t * 1000 + 100, 64));
        }
        let q = sig(900_000..900_100, 64);
        assert!(lsh.query(&q).len() <= 2);
    }

    #[test]
    fn tuned_inflection_near_threshold() {
        let lsh = MinHashLsh::tuned(128, 0.5);
        let b = lsh.bands as f64;
        let r = lsh.rows as f64;
        let inflection = (1.0 / b).powf(1.0 / r);
        assert!((inflection - 0.5).abs() < 0.15, "inflection={inflection}");
        assert_eq!(lsh.signature_len(), 128);
    }

    #[test]
    fn query_filtered_prunes_false_positives() {
        let mut lsh = MinHashLsh::new(32, 2); // aggressive banding → FPs
        for t in 0..30 {
            lsh.insert(sig(t * 50..t * 50 + 60, 64)); // overlapping ranges
        }
        let q = sig(0..60, 64);
        let raw = lsh.query(&q);
        let filtered = lsh.query_filtered(&q, 0.8);
        assert!(filtered.len() <= raw.len());
        assert!(filtered.contains(&0));
    }

    #[test]
    fn recall_precision_tradeoff_with_bands() {
        // many bands/few rows = high recall; few bands/many rows = high precision
        let a = sig(0..100, 64);
        let b = sig(30..130, 64); // J ≈ 0.54
        let mut recall_oriented = MinHashLsh::new(32, 2);
        let mut precision_oriented = MinHashLsh::new(2, 32);
        recall_oriented.insert(a.clone());
        precision_oriented.insert(a);
        assert_eq!(
            recall_oriented.query(&b).len(),
            1,
            "should find moderate match"
        );
        assert_eq!(
            precision_oriented.query(&b).len(),
            0,
            "should reject moderate match"
        );
    }

    #[test]
    fn batch_insert_matches_sequential() {
        let sigs: Vec<MinHash> = (0..40).map(|t| sig(t * 50..t * 50 + 60, 64)).collect();
        let mut seq = MinHashLsh::new(16, 4);
        for s in &sigs {
            seq.insert(s.clone());
        }
        for threads in [1usize, 2, 8] {
            let mut batch = MinHashLsh::new(16, 4);
            let ids = batch.insert_batch(sigs.clone(), Threads::fixed(threads));
            assert_eq!(ids, (0..sigs.len()).collect::<Vec<usize>>());
            let q = sig(0..60, 64);
            assert_eq!(seq.query(&q), batch.query(&q), "threads={threads}");
            assert_eq!(seq.query_filtered(&q, 0.5), batch.query_filtered(&q, 0.5));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_signature_length_panics() {
        let mut lsh = MinHashLsh::new(4, 4);
        lsh.insert(sig(0..10, 8));
    }
}
