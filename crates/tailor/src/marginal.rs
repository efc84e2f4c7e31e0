//! Per-attribute **marginal** count requirements — the tutorial's §5
//! extension of DT.
//!
//! Instead of intersectional groups ("100 of gender=F ∧ race=W"), the
//! requirement is per attribute *individually*: "100 of gender=F and 100
//! of gender=M, as well as 100 of race=W and 100 of race=NW". One kept
//! tuple now credits **every** matching (attribute, value) requirement at
//! once, so the optimal collection is cheaper than solving the
//! intersectional problem — and the policy machinery ([`crate::Policy`])
//! transfers unchanged by flattening the requirements into "pairs".

use rand::Rng;
use rdi_table::{Table, TableError, Value};

use crate::policy::Policy;
use crate::runner::source_out_of_range;

/// One `attribute = value → at least count` requirement.
#[derive(Debug, Clone)]
pub struct MarginalRequirement {
    /// Attribute name.
    pub attribute: String,
    /// Required value.
    pub value: Value,
    /// Minimum number of kept tuples with that value.
    pub count: usize,
}

/// A set of marginal requirements over possibly many attributes.
#[derive(Debug, Clone, Default)]
pub struct MarginalProblem {
    /// The flattened (attribute, value, count) requirements ("pairs").
    pub requirements: Vec<MarginalRequirement>,
}

impl MarginalProblem {
    /// Builder: add `count` of `attribute = value`.
    pub fn require(mut self, attribute: impl Into<String>, value: Value, count: usize) -> Self {
        self.requirements.push(MarginalRequirement {
            attribute: attribute.into(),
            value,
            count,
        });
        self
    }

    /// Number of flattened requirements.
    pub fn len(&self) -> usize {
        self.requirements.len()
    }

    /// True iff there are no requirements.
    pub fn is_empty(&self) -> bool {
        self.requirements.is_empty()
    }

    /// Pair indices matched by row `i` of `table`.
    pub fn matches(&self, table: &Table, i: usize) -> rdi_table::Result<Vec<usize>> {
        let mut out = Vec::new();
        for (p, r) in self.requirements.iter().enumerate() {
            if table.value(i, &r.attribute)? == r.value {
                out.push(p);
            }
        }
        Ok(out)
    }
}

/// A cost-annotated source for marginal tailoring (per-row pair
/// memberships precomputed).
#[derive(Debug, Clone)]
pub struct MarginalSource {
    name: String,
    table: Table,
    cost: f64,
    row_pairs: Vec<Vec<u16>>,
    frequencies: Vec<f64>,
}

impl MarginalSource {
    /// Wrap a table.
    pub fn new(
        name: impl Into<String>,
        table: Table,
        cost: f64,
        problem: &MarginalProblem,
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
        let mut row_pairs = Vec::with_capacity(table.num_rows());
        let mut counts = vec![0usize; problem.len()];
        for i in 0..table.num_rows() {
            let ps = problem.matches(&table, i)?;
            for &p in &ps {
                counts[p] += 1;
            }
            row_pairs.push(ps.into_iter().map(|p| p as u16).collect());
        }
        let n = table.num_rows() as f64;
        Ok(MarginalSource {
            name: name.into(),
            table,
            cost,
            row_pairs,
            frequencies: counts.iter().map(|&c| c as f64 / n).collect(),
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

    /// True per-pair frequencies (for known-distribution policies, e.g.
    /// [`crate::RatioColl::new`] over the flattened pairs).
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }
}

/// Outcome of a marginal tailoring run.
#[derive(Debug, Clone)]
pub struct MarginalOutcome {
    /// Total cost paid.
    pub total_cost: f64,
    /// Draws issued.
    pub draws: usize,
    /// Kept-tuple counts per flattened requirement.
    pub per_pair: Vec<usize>,
    /// Whether every requirement was satisfied.
    pub satisfied: bool,
    /// The kept tuples.
    pub collected: Table,
}

/// Drive `policy` against marginal sources until every (attribute,
/// value) requirement reaches its count or `max_draws` is exhausted.
///
/// Keeping rule: a drawn tuple is kept iff it matches at least one
/// still-deficient requirement; a kept tuple credits *all* requirements
/// it matches (that is the §5 semantics that makes marginal collection
/// cheaper than intersectional collection).
pub fn run_marginal_tailoring<R: Rng>(
    sources: &mut [MarginalSource],
    problem: &MarginalProblem,
    policy: &mut dyn Policy,
    rng: &mut R,
    max_draws: usize,
) -> rdi_table::Result<MarginalOutcome> {
    if problem.is_empty() {
        return Err(TableError::SchemaMismatch(
            "no marginal requirements".into(),
        ));
    }
    if sources.is_empty() {
        return Err(TableError::SchemaMismatch("no sources".into()));
    }
    let schema = sources[0].table.schema().clone();
    for s in sources.iter() {
        if s.table.schema() != &schema {
            return Err(TableError::SchemaMismatch(format!(
                "source `{}` schema differs",
                s.name
            )));
        }
    }
    let mut per_pair = vec![0usize; problem.len()];
    let mut collected = Table::new(schema);
    let mut total_cost = 0.0;
    let mut draws = 0usize;

    let satisfied = |per_pair: &[usize]| {
        per_pair
            .iter()
            .zip(&problem.requirements)
            .all(|(&c, r)| c >= r.count)
    };

    while !satisfied(&per_pair) && draws < max_draws {
        let remaining: Vec<usize> = per_pair
            .iter()
            .zip(&problem.requirements)
            .map(|(&c, r)| r.count.saturating_sub(c))
            .collect();
        let s = policy.choose(&remaining, rng);
        if s >= sources.len() {
            return Err(source_out_of_range(&*policy, s, sources.len()));
        }
        let src = &sources[s];
        let i = rng.gen_range(0..src.table.num_rows());
        draws += 1;
        total_cost += src.cost;
        let pairs = &src.row_pairs[i];
        let useful: Vec<usize> = pairs
            .iter()
            .map(|&p| p as usize)
            .filter(|&p| remaining[p] > 0)
            .collect();
        // Report the first still-needed pair to learning policies.
        policy.observe(s, useful.first().copied());
        if !useful.is_empty() {
            for &p in pairs.iter() {
                per_pair[p as usize] += 1;
            }
            collected.push_row(src.table.row(i)?)?;
        }
    }

    let ok = satisfied(&per_pair);
    Ok(MarginalOutcome {
        total_cost,
        draws,
        per_pair,
        satisfied: ok,
        collected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{RandomPolicy, RatioColl};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_table::{DataType, Field, Role, Schema};

    fn people(rows: &[(&str, &str)]) -> Table {
        let schema = Schema::new(vec![
            Field::new("gender", DataType::Str).with_role(Role::Sensitive),
            Field::new("race", DataType::Str).with_role(Role::Sensitive),
        ]);
        let mut t = Table::new(schema);
        for (g, r) in rows {
            t.push_row(vec![Value::str(*g), Value::str(*r)]).unwrap();
        }
        t
    }

    fn problem(n: usize) -> MarginalProblem {
        MarginalProblem::default()
            .require("gender", Value::str("F"), n)
            .require("gender", Value::str("M"), n)
            .require("race", Value::str("W"), n)
            .require("race", Value::str("NW"), n)
    }

    #[test]
    fn one_tuple_credits_multiple_marginals() {
        // every tuple is (F, W) or (M, NW): two tuples can satisfy all
        // four requirements at n=1
        let t = people(&[("F", "W"), ("M", "NW")]);
        let p = problem(1);
        let mut sources = vec![MarginalSource::new("s", t, 1.0, &p).unwrap()];
        let mut policy = RandomPolicy::new(1);
        let mut rng = StdRng::seed_from_u64(1);
        let out = run_marginal_tailoring(&mut sources, &p, &mut policy, &mut rng, 10_000).unwrap();
        assert!(out.satisfied);
        assert!(out.per_pair.iter().all(|&c| c >= 1));
        assert!(out.collected.num_rows() <= 3);
    }

    #[test]
    fn out_of_range_policy_is_a_typed_error() {
        // a policy sized for three sources driving one
        let p = problem(50);
        let t = people(&[("F", "W"), ("M", "NW")]);
        let mut sources = vec![MarginalSource::new("s", t, 1.0, &p).unwrap()];
        let mut policy = RandomPolicy::new(3);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(run_marginal_tailoring(&mut sources, &p, &mut policy, &mut rng, 10_000).is_err());
    }

    #[test]
    fn marginal_cheaper_than_intersectional_style_collection() {
        // balanced 4-combination source; marginal needs n per value.
        let combos = [("F", "W"), ("F", "NW"), ("M", "W"), ("M", "NW")];
        let rows: Vec<(&str, &str)> = (0..400).map(|i| combos[i % 4]).collect();
        let t = people(&rows);
        let n = 50;
        let p = problem(n);
        let mut sources = vec![MarginalSource::new("s", t, 1.0, &p).unwrap()];
        let mut policy = RandomPolicy::new(1);
        let mut rng = StdRng::seed_from_u64(2);
        let out = run_marginal_tailoring(&mut sources, &p, &mut policy, &mut rng, 100_000).unwrap();
        assert!(out.satisfied);
        // every draw is useful until near the end: ~2n tuples suffice for
        // all four requirements (each tuple credits 2 pairs)
        assert!(
            out.collected.num_rows() <= 2 * n + 20,
            "kept {} tuples",
            out.collected.num_rows()
        );
    }

    #[test]
    fn ratio_coll_works_on_flattened_pairs() {
        // source 0 is all-male, source 1 is all-female; RatioColl (built
        // from pair frequencies) must alternate appropriately
        let males = people(&(0..100).map(|_| ("M", "W")).collect::<Vec<_>>());
        let females = people(&(0..100).map(|_| ("F", "NW")).collect::<Vec<_>>());
        let p = problem(20);
        let mut sources = vec![
            MarginalSource::new("m", males, 1.0, &p).unwrap(),
            MarginalSource::new("f", females, 1.0, &p).unwrap(),
        ];
        let costs: Vec<f64> = sources.iter().map(|s| s.cost()).collect();
        let freqs: Vec<Vec<f64>> = sources.iter().map(|s| s.frequencies().to_vec()).collect();
        let mut policy = RatioColl::new(costs, freqs);
        let mut rng = StdRng::seed_from_u64(3);
        let out = run_marginal_tailoring(&mut sources, &p, &mut policy, &mut rng, 10_000).unwrap();
        assert!(out.satisfied);
        // perfectly efficient: exactly 40 kept tuples, 40 draws
        assert_eq!(out.collected.num_rows(), 40);
        assert_eq!(out.draws, 40);
    }

    #[test]
    fn surplus_tuples_discarded() {
        // only F needed; M tuples must be discarded
        let t = people(&[("F", "W"), ("M", "W")]);
        let p = MarginalProblem::default().require("gender", Value::str("F"), 5);
        let mut sources = vec![MarginalSource::new("s", t, 1.0, &p).unwrap()];
        let mut policy = RandomPolicy::new(1);
        let mut rng = StdRng::seed_from_u64(4);
        let out = run_marginal_tailoring(&mut sources, &p, &mut policy, &mut rng, 10_000).unwrap();
        assert!(out.satisfied);
        assert_eq!(out.per_pair, vec![5]);
        assert_eq!(out.collected.num_rows(), 5);
        assert!(out.draws >= 5);
    }

    #[test]
    fn validation_errors() {
        let t = people(&[("F", "W")]);
        let p = MarginalProblem::default();
        assert!(MarginalSource::new("s", t.clone(), 0.0, &problem(1)).is_err());
        let mut sources = vec![MarginalSource::new("s", t, 1.0, &problem(1)).unwrap()];
        let mut policy = RandomPolicy::new(1);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(run_marginal_tailoring(&mut sources, &p, &mut policy, &mut rng, 10).is_err());
    }
}
