//! Synthetic data lakes with planted ground truth.
//!
//! Dataset-discovery experiments (§3.1) need a corpus where we *know*
//! which candidate tables are joinable with the query table, what the key
//! containment is, and what the join-correlation between a candidate
//! feature and the query target is. Real lakes (open-data portals) don't
//! come with that ground truth; this generator plants it.

use rand::Rng;
use rdi_par::{par_map, stream_rng, Threads};
use rdi_table::{DataType, Field, Role, Schema, Table, Value};

use crate::rng::normal;

/// Configuration of the synthetic lake.
#[derive(Debug, Clone)]
pub struct LakeConfig {
    /// Number of candidate tables.
    pub num_candidates: usize,
    /// Keys in the query table.
    pub query_keys: usize,
    /// Rows per candidate table.
    pub candidate_rows: usize,
    /// Fraction of candidates that are joinable with the query at all.
    pub joinable_fraction: f64,
}

impl Default for LakeConfig {
    fn default() -> Self {
        LakeConfig {
            num_candidates: 50,
            query_keys: 1_000,
            candidate_rows: 1_000,
            joinable_fraction: 0.4,
        }
    }
}

/// One candidate table plus its planted ground truth.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Stable name, e.g. `"cand_007"`.
    pub name: String,
    /// The table: `key: Str`, `feat: Float`.
    pub table: Table,
    /// True containment of the query's key set in this candidate's key set
    /// (|Q ∩ C| / |Q|).
    pub containment: f64,
    /// Planted Pearson correlation between `feat` and the query's `target`
    /// over joined keys (0 for non-joinable candidates).
    pub correlation: f64,
}

/// A generated lake: one query table and many candidates.
#[derive(Debug, Clone)]
pub struct SyntheticLake {
    /// The query table: `key: Str` (unique), `target: Float`.
    pub query: Table,
    /// Per-key target values, aligned with the query rows.
    pub target_by_key: Vec<(String, f64)>,
    /// Candidate tables with ground truth.
    pub candidates: Vec<Candidate>,
}

impl SyntheticLake {
    /// Generate a lake.
    pub fn generate<R: Rng + ?Sized>(config: &LakeConfig, rng: &mut R) -> SyntheticLake {
        assert!(config.query_keys > 0 && config.num_candidates > 0);
        let query_schema = Schema::new(vec![
            Field::new("key", DataType::Str).with_role(Role::Id),
            Field::new("target", DataType::Float).with_role(Role::Target),
        ]);
        let mut query = Table::with_capacity(query_schema, config.query_keys);
        let mut target_by_key = Vec::with_capacity(config.query_keys);
        for i in 0..config.query_keys {
            let key = format!("q{i:06}");
            let t = normal(rng, 0.0, 1.0);
            #[expect(
                clippy::expect_used,
                reason = "row literal matches the schema built above"
            )]
            query
                .push_row(vec![Value::str(key.clone()), Value::Float(t)])
                .expect("schema match");
            target_by_key.push((key, t));
        }

        let mut candidates = Vec::with_capacity(config.num_candidates);
        for c in 0..config.num_candidates {
            candidates.push(generate_candidate(config, &target_by_key, c, rng));
        }
        SyntheticLake {
            query,
            target_by_key,
            candidates,
        }
    }

    /// Generate a lake with candidate tables built in parallel.
    ///
    /// The query table is drawn from RNG stream 0 and candidate `c` from
    /// stream `c + 1` (both via [`stream_rng`]), so the output is a pure
    /// function of `(config, seed)` and bitwise identical for any thread
    /// count — including [`Threads::serial`]. The stream differs from
    /// [`Self::generate`] with a single shared RNG, but the planted
    /// ground truth (containment/correlation levels) is the same.
    pub fn generate_par(config: &LakeConfig, seed: u64, threads: Threads) -> SyntheticLake {
        assert!(config.query_keys > 0 && config.num_candidates > 0);
        let query_schema = Schema::new(vec![
            Field::new("key", DataType::Str).with_role(Role::Id),
            Field::new("target", DataType::Float).with_role(Role::Target),
        ]);
        let mut query = Table::with_capacity(query_schema, config.query_keys);
        let mut target_by_key = Vec::with_capacity(config.query_keys);
        let mut qrng = stream_rng(seed, 0);
        for i in 0..config.query_keys {
            let key = format!("q{i:06}");
            let t = normal(&mut qrng, 0.0, 1.0);
            #[expect(
                clippy::expect_used,
                reason = "row literal matches the schema built above"
            )]
            query
                .push_row(vec![Value::str(key.clone()), Value::Float(t)])
                .expect("schema match");
            target_by_key.push((key, t));
        }
        let cand_ids: Vec<usize> = (0..config.num_candidates).collect();
        let candidates = par_map(threads.min_len(2), &cand_ids, |&c| {
            let mut rng = stream_rng(seed, c as u64 + 1);
            generate_candidate(config, &target_by_key, c, &mut rng)
        });
        SyntheticLake {
            query,
            target_by_key,
            candidates,
        }
    }

    /// Exact containment of the query key set in a candidate's key set,
    /// computed from the data (sanity reference for planted truth).
    pub fn exact_containment(&self, candidate: &Candidate) -> f64 {
        let qkeys: std::collections::HashSet<String> =
            self.target_by_key.iter().map(|(k, _)| k.clone()).collect();
        #[expect(
            clippy::expect_used,
            reason = "every candidate is generated with a Str \"key\" column"
        )]
        let ckeys: std::collections::HashSet<String> = candidate
            .table
            .column("key")
            .expect("key column")
            .as_str_slice()
            .expect("string column")
            .iter()
            .flatten()
            .cloned()
            .collect();
        qkeys.intersection(&ckeys).count() as f64 / qkeys.len() as f64
    }
}

/// Generate candidate `c` against the planted query targets. Planted
/// containment/correlation levels are a deterministic function of
/// `(config, c)`; only key selection and feature noise consume `rng`.
fn generate_candidate<R: Rng + ?Sized>(
    config: &LakeConfig,
    target_by_key: &[(String, f64)],
    c: usize,
    rng: &mut R,
) -> Candidate {
    let cand_schema = Schema::new(vec![
        Field::new("key", DataType::Str).with_role(Role::Id),
        Field::new("feat", DataType::Float),
    ]);
    let joinable = (c as f64 + 0.5) / (config.num_candidates as f64) < config.joinable_fraction;
    // Plant varied containment/correlation levels deterministically
    // spread over joinable candidates.
    let (containment, correlation) = if joinable {
        let u = (c as f64 + 1.0) / (config.num_candidates as f64 * config.joinable_fraction + 1.0);
        (0.2 + 0.8 * u, (2.0 * u - 1.0).clamp(-0.95, 0.95))
    } else {
        (0.0, 0.0)
    };

    let mut table = Table::with_capacity(cand_schema, config.candidate_rows);
    let overlap = (containment * config.query_keys as f64).round() as usize;
    // Overlapping keys: a random subset of query keys of size `overlap`.
    let mut qidx: Vec<usize> = (0..config.query_keys).collect();
    // partial Fisher–Yates for the first `overlap` positions
    for i in 0..overlap.min(config.query_keys) {
        let j = rng.gen_range(i..config.query_keys);
        qidx.swap(i, j);
    }
    for &qi in qidx.iter().take(overlap) {
        let (key, t) = &target_by_key[qi];
        let feat =
            correlation * t + (1.0 - correlation * correlation).sqrt() * normal(rng, 0.0, 1.0);
        #[expect(
            clippy::expect_used,
            reason = "row literal matches the schema built above"
        )]
        table
            .push_row(vec![Value::str(key.clone()), Value::Float(feat)])
            .expect("schema match");
    }
    // Filler keys disjoint from the query.
    for i in table.num_rows()..config.candidate_rows {
        let key = format!("c{c:03}_{i:06}");
        #[expect(
            clippy::expect_used,
            reason = "row literal matches the schema built above"
        )]
        table
            .push_row(vec![Value::str(key), Value::Float(normal(rng, 0.0, 1.0))])
            .expect("schema match");
    }
    Candidate {
        name: format!("cand_{c:03}"),
        table,
        containment,
        correlation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_fairness::pearson;
    use rdi_table::hash_join;

    fn small_lake() -> SyntheticLake {
        let cfg = LakeConfig {
            num_candidates: 10,
            query_keys: 400,
            candidate_rows: 500,
            joinable_fraction: 0.5,
        };
        SyntheticLake::generate(&cfg, &mut StdRng::seed_from_u64(9))
    }

    #[test]
    fn planted_containment_matches_data() {
        let lake = small_lake();
        for c in &lake.candidates {
            let exact = lake.exact_containment(c);
            assert!(
                (exact - c.containment).abs() < 0.01,
                "{}: planted={} exact={}",
                c.name,
                c.containment,
                exact
            );
        }
    }

    #[test]
    fn joinable_fraction_respected() {
        let lake = small_lake();
        let joinable = lake
            .candidates
            .iter()
            .filter(|c| c.containment > 0.0)
            .count();
        assert_eq!(joinable, 5);
    }

    #[test]
    fn planted_correlation_holds_over_join() {
        let lake = small_lake();
        for c in lake.candidates.iter().filter(|c| c.containment > 0.3) {
            let joined = hash_join(&lake.query, &c.table, "key", "key").unwrap();
            let t: Vec<f64> = joined.column("target").unwrap().numeric_values();
            let f: Vec<f64> = joined.column("feat").unwrap().numeric_values();
            let r = pearson(&t, &f);
            assert!(
                (r - c.correlation).abs() < 0.15,
                "{}: planted={} measured={}",
                c.name,
                c.correlation,
                r
            );
        }
    }

    #[test]
    fn par_lake_identical_across_thread_counts() {
        let cfg = LakeConfig {
            num_candidates: 9,
            query_keys: 200,
            candidate_rows: 250,
            joinable_fraction: 0.5,
        };
        let base = SyntheticLake::generate_par(&cfg, 77, Threads::serial());
        for threads in [2, 3, 8] {
            let got = SyntheticLake::generate_par(&cfg, 77, Threads::fixed(threads));
            assert_eq!(got.query, base.query, "threads={threads}");
            assert_eq!(got.target_by_key, base.target_by_key, "threads={threads}");
            assert_eq!(got.candidates.len(), base.candidates.len());
            for (g, b) in got.candidates.iter().zip(&base.candidates) {
                assert_eq!(g.name, b.name, "threads={threads}");
                assert_eq!(g.table, b.table, "threads={threads}");
                assert_eq!(g.containment.to_bits(), b.containment.to_bits());
                assert_eq!(g.correlation.to_bits(), b.correlation.to_bits());
            }
        }
        // parallel generation plants the same ground truth
        for c in &base.candidates {
            let exact = base.exact_containment(c);
            assert!((exact - c.containment).abs() < 0.01, "{}", c.name);
        }
    }

    #[test]
    fn candidate_tables_have_requested_rows() {
        let lake = small_lake();
        for c in &lake.candidates {
            assert_eq!(c.table.num_rows(), 500);
        }
    }
}
