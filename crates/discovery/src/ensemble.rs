//! LSH Ensemble: containment-threshold search (Zhu, Nargesian, Pu,
//! Miller; VLDB 2016).
//!
//! Joinability search asks for sets `X` with high **containment**
//! `C(Q, X) = |Q ∩ X| / |Q|`, not high Jaccard. Containment converts to
//! Jaccard through the sizes, `J = C·|Q| / (|Q| + |X| − C·|Q|)`, so one
//! global Jaccard threshold cannot serve candidates of wildly different
//! sizes. LSH Ensemble partitions the candidates by set size and gives
//! each partition its own banded index tuned with that partition's upper
//! size bound — the classic trick this module reproduces.

use crate::lsh::MinHashLsh;
use crate::minhash::MinHash;

/// One size partition.
#[derive(Debug)]
struct Partition {
    /// Upper bound (inclusive) on member set sizes.
    upper: usize,
    lsh: Option<MinHashLsh>,
    /// (global id, signature, size) for members, buffered until `build`.
    members: Vec<(usize, MinHash, usize)>,
}

/// An LSH Ensemble index over (signature, set-size) pairs.
#[derive(Debug)]
pub struct LshEnsemble {
    k: usize,
    threshold: f64,
    partitions: Vec<Partition>,
    built: bool,
}

impl LshEnsemble {
    /// Create an ensemble for signatures of length `k`, a containment
    /// threshold, and geometric size-partition boundaries up to
    /// `max_size`.
    pub fn new(k: usize, threshold: f64, num_partitions: usize, max_size: usize) -> Self {
        assert!(k > 0 && num_partitions > 0 && max_size > 0);
        assert!((0.0..=1.0).contains(&threshold));
        // geometric boundaries: max_size^(i/num_partitions)
        let mut partitions = Vec::with_capacity(num_partitions);
        for i in 1..=num_partitions {
            let upper = (max_size as f64)
                .powf(i as f64 / num_partitions as f64)
                .ceil() as usize;
            partitions.push(Partition {
                upper: upper.max(1),
                lsh: None,
                members: Vec::new(),
            });
        }
        LshEnsemble {
            k,
            threshold,
            partitions,
            built: false,
        }
    }

    /// Insert a candidate set's signature and its exact distinct size.
    pub fn insert(&mut self, id: usize, sig: MinHash, size: usize) {
        assert_eq!(sig.k(), self.k);
        assert!(!self.built, "insert before build");
        #[expect(
            clippy::panic,
            reason = "caller-contract guard, same class as the asserts above — `new` documents partitions cover sizes up to max_size"
        )]
        let p = self
            .partitions
            .iter_mut()
            .find(|p| size <= p.upper)
            .unwrap_or_else(|| panic!("size {size} exceeds max partition"));
        p.members.push((id, sig, size));
    }

    /// Freeze the index: tune and populate each partition's banded LSH.
    ///
    /// `query_size_hint` sets the |Q| used to convert the containment
    /// threshold into each partition's Jaccard threshold.
    pub fn build(&mut self, query_size_hint: usize) {
        let q = query_size_hint.max(1) as f64;
        for p in &mut self.partitions {
            if p.members.is_empty() {
                continue;
            }
            let x = p.upper as f64;
            // containment → jaccard at the partition's upper size bound
            let j = (self.threshold * q) / (q + x - self.threshold * q);
            let mut lsh = MinHashLsh::tuned(self.k, j.clamp(0.01, 1.0));
            // Keep ids aligned: MinHashLsh assigns its own dense ids, so
            // record the mapping order.
            for (_, sig, _) in &p.members {
                lsh.insert(sig.clone());
            }
            p.lsh = Some(lsh);
        }
        self.built = true;
    }

    /// Candidate ids whose containment of the query likely exceeds the
    /// threshold. `query_size` is |Q| (distinct values).
    pub fn query(&self, sig: &MinHash, query_size: usize) -> Vec<usize> {
        assert!(self.built, "call build() first");
        let q = query_size.max(1) as f64;
        let mut out = Vec::new();
        for p in &self.partitions {
            let Some(lsh) = &p.lsh else { continue };
            let x = p.upper as f64;
            let j = (self.threshold * q) / (q + x - self.threshold * q);
            for local in lsh.query_filtered(sig, (j * 0.5).clamp(0.0, 1.0)) {
                out.push(p.members[local].0);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Estimated containment of the query in a candidate from their
    /// signatures and sizes: `Ĉ = Ĵ·(q + x)/(q·(1 + Ĵ))`.
    pub fn estimate_containment(
        sig_q: &MinHash,
        q_size: usize,
        sig_x: &MinHash,
        x_size: usize,
    ) -> f64 {
        let j = sig_q.jaccard(sig_x);
        if j == 0.0 {
            return 0.0;
        }
        let q = q_size.max(1) as f64;
        let x = x_size as f64;
        (j * (q + x) / (q * (1.0 + j))).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::Value;

    fn sig_of(range: std::ops::Range<usize>, k: usize) -> (MinHash, usize) {
        let vs: Vec<Value> = range.clone().map(|i| Value::str(format!("v{i}"))).collect();
        (MinHash::from_values(vs.iter(), k), range.len())
    }

    #[test]
    fn finds_high_containment_candidates_across_sizes() {
        let k = 128;
        let mut ens = LshEnsemble::new(k, 0.7, 4, 100_000);
        // candidate 0: small superset of the query (high containment)
        let (s0, n0) = sig_of(0..120, k);
        // candidate 1: huge set containing the query (high containment, low jaccard)
        let (s1, n1) = sig_of(0..20_000, k);
        // candidate 2: disjoint
        let (s2, n2) = sig_of(500_000..500_300, k);
        ens.insert(0, s0, n0);
        ens.insert(1, s1, n1);
        ens.insert(2, s2, n2);
        ens.build(100);
        let (q, qn) = sig_of(0..100, k);
        let hits = ens.query(&q, qn);
        assert!(hits.contains(&0), "small superset missed: {hits:?}");
        assert!(hits.contains(&1), "large superset missed: {hits:?}");
        assert!(!hits.contains(&2), "disjoint set returned: {hits:?}");
    }

    #[test]
    fn containment_estimate_tracks_truth() {
        let k = 256;
        let (q, qn) = sig_of(0..200, k);
        // candidate contains 150 of the 200 query values + 350 others
        let mut vals: Vec<Value> = (0..150).map(|i| Value::str(format!("v{i}"))).collect();
        vals.extend((1000..1350).map(|i| Value::str(format!("v{i}"))));
        let cx = MinHash::from_values(vals.iter(), k);
        let est = LshEnsemble::estimate_containment(&q, qn, &cx, vals.len());
        assert!((est - 0.75).abs() < 0.12, "est={est}");
    }

    #[test]
    fn empty_partitions_are_fine() {
        let k = 64;
        let mut ens = LshEnsemble::new(k, 0.5, 8, 1_000);
        let (s, n) = sig_of(0..10, k);
        ens.insert(42, s, n);
        ens.build(10);
        let (q, qn) = sig_of(0..10, k);
        assert_eq!(ens.query(&q, qn), vec![42]);
    }

    #[test]
    #[should_panic(expected = "build() first")]
    fn query_before_build_panics() {
        let ens = LshEnsemble::new(8, 0.5, 2, 100);
        let (q, qn) = sig_of(0..5, 8);
        ens.query(&q, qn);
    }
}
