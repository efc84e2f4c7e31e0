//! Group-structured synthetic populations.
//!
//! A [`PopulationSpec`] describes sensitive attributes (with marginal
//! distributions), numeric features whose means may shift per group, and a
//! binary target generated by a logistic model with optional per-group
//! effects. Generated tables carry the proper [`Role`] annotations so the
//! rest of the toolkit can find sensitive/target columns automatically.

use rand::Rng;
use rdi_fairness::Categorical;
use rdi_par::{par_run, stream_rng, Threads};
use rdi_table::{DataType, Field, Role, Schema, Table, Value};

use crate::rng::normal;

/// Rows per independent RNG block in [`PopulationSpec::generate_par`].
/// Block boundaries depend only on `n`, never on the thread count, so
/// parallel generation is bitwise reproducible.
const ROW_BLOCK: usize = 1024;

/// One sensitive categorical attribute.
#[derive(Debug, Clone)]
pub struct AttributeSpec {
    /// Attribute name (e.g. `"race"`).
    pub name: String,
    /// Category labels (e.g. `["white", "black", "asian"]`).
    pub categories: Vec<String>,
    /// Marginal distribution over the categories.
    pub marginal: Categorical,
}

impl AttributeSpec {
    /// Build an attribute with the given categories and marginal weights.
    pub fn new(name: impl Into<String>, categories: &[&str], weights: &[f64]) -> Self {
        assert_eq!(categories.len(), weights.len());
        AttributeSpec {
            name: name.into(),
            categories: categories.iter().map(|s| s.to_string()).collect(),
            marginal: Categorical::from_weights(weights),
        }
    }
}

/// A numeric feature: a base Normal(mean, std) plus a per-category shift on
/// the *first* sensitive attribute (index into its categories).
#[derive(Debug, Clone)]
pub struct FeatureSpec {
    /// Feature name.
    pub name: String,
    /// Base mean.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Additive mean shift per category of the first sensitive attribute
    /// (empty = no group effect, i.e. an *unbiased* feature per §2.3).
    pub group_shift: Vec<f64>,
    /// Logistic-regression weight of this feature in the target model.
    pub target_weight: f64,
}

impl FeatureSpec {
    /// An unbiased feature (no group effect) with a target weight.
    pub fn unbiased(name: impl Into<String>, mean: f64, std_dev: f64, target_weight: f64) -> Self {
        FeatureSpec {
            name: name.into(),
            mean,
            std_dev,
            group_shift: Vec::new(),
            target_weight,
        }
    }

    /// A group-shifted (biased) feature.
    pub fn biased(
        name: impl Into<String>,
        mean: f64,
        std_dev: f64,
        group_shift: Vec<f64>,
        target_weight: f64,
    ) -> Self {
        FeatureSpec {
            name: name.into(),
            mean,
            std_dev,
            group_shift,
            target_weight,
        }
    }
}

/// Full description of a synthetic population.
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    /// Sensitive attributes (at least one).
    pub sensitive: Vec<AttributeSpec>,
    /// Numeric features.
    pub features: Vec<FeatureSpec>,
    /// Intercept of the logistic target model.
    pub intercept: f64,
    /// Additive logit shift per category of the first sensitive attribute
    /// (empty = target independent of group given features).
    pub group_logit_shift: Vec<f64>,
    /// Name of the generated target column.
    pub target_name: String,
}

impl PopulationSpec {
    /// A minimal two-group population used by many tests and examples:
    /// sensitive `group ∈ {maj, min}` with fraction `minority_fraction` in
    /// `min`, two informative features, logistic target.
    pub fn two_group(minority_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&minority_fraction));
        PopulationSpec {
            sensitive: vec![AttributeSpec::new(
                "group",
                &["maj", "min"],
                &[1.0 - minority_fraction, minority_fraction],
            )],
            features: vec![
                FeatureSpec::unbiased("x1", 0.0, 1.0, 1.5),
                FeatureSpec::biased("x2", 0.0, 1.0, vec![0.0, 1.0], 1.0),
            ],
            intercept: 0.0,
            group_logit_shift: Vec::new(),
            target_name: "y".to_string(),
        }
    }

    /// The schema of generated tables.
    pub fn schema(&self) -> Schema {
        let mut fields = Vec::new();
        for a in &self.sensitive {
            fields.push(Field::new(a.name.clone(), DataType::Str).with_role(Role::Sensitive));
        }
        for f in &self.features {
            fields.push(Field::new(f.name.clone(), DataType::Float));
        }
        fields.push(Field::new(self.target_name.clone(), DataType::Bool).with_role(Role::Target));
        Schema::new(fields)
    }

    /// Generate `n` rows.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Table {
        self.generate_with_marginals(n, rng, None)
    }

    /// Generate `n` rows, optionally overriding the marginal distribution
    /// of the **first** sensitive attribute (used to build skewed sources
    /// whose conditional structure matches the population).
    pub fn generate_with_marginals<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        first_marginal: Option<&Categorical>,
    ) -> Table {
        assert!(
            !self.sensitive.is_empty(),
            "need at least one sensitive attribute"
        );
        let schema = self.schema();
        let mut t = Table::with_capacity(schema, n);
        for _ in 0..n {
            #[expect(
                clippy::expect_used,
                reason = "sample_row emits exactly the columns of self.schema()"
            )]
            t.push_row(self.sample_row(rng, first_marginal))
                .expect("row matches generated schema");
        }
        t
    }

    /// Parallel [`Self::generate`]: rows come in fixed blocks of
    /// `ROW_BLOCK` (1024), each drawn from its own RNG stream, so the table
    /// is bitwise identical for any thread count.
    pub fn generate_par(&self, n: usize, seed: u64, threads: Threads) -> Table {
        self.generate_with_marginals_par(n, seed, threads, None)
    }

    /// Parallel [`Self::generate_with_marginals`]. The `n` rows are
    /// split into fixed blocks of `ROW_BLOCK` (a function of `n`
    /// alone); block `b` is drawn from
    /// [`stream_rng`]`(seed, b)` and the blocks are concatenated in
    /// order, so the output is a pure function of `(spec, n, seed)` —
    /// bitwise identical for any thread count, including
    /// [`Threads::serial`]. The stream differs from the single-RNG
    /// serial method, but rows are i.i.d. from the same population.
    pub fn generate_with_marginals_par(
        &self,
        n: usize,
        seed: u64,
        threads: Threads,
        first_marginal: Option<&Categorical>,
    ) -> Table {
        assert!(
            !self.sensitive.is_empty(),
            "need at least one sensitive attribute"
        );
        let blocks = n.div_ceil(ROW_BLOCK).max(1);
        let per_block = par_run(threads.min_len(2), blocks, |b| {
            let quota = ROW_BLOCK.min(n - (b * ROW_BLOCK).min(n));
            let mut rng = stream_rng(seed, b as u64);
            (0..quota)
                .map(|_| self.sample_row(&mut rng, first_marginal))
                .collect::<Vec<_>>()
        });
        let mut t = Table::with_capacity(self.schema(), n);
        for rows in per_block {
            for row in rows {
                #[expect(
                    clippy::expect_used,
                    reason = "sample_row emits exactly the columns of self.schema()"
                )]
                t.push_row(row).expect("row matches generated schema");
            }
        }
        t
    }

    /// Draw one row: sensitive categories, features, then the logistic
    /// target.
    fn sample_row<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        first_marginal: Option<&Categorical>,
    ) -> Vec<Value> {
        let mut row: Vec<Value> =
            Vec::with_capacity(self.sensitive.len() + self.features.len() + 1);
        // Sensitive attributes.
        let mut first_cat = 0usize;
        for (ai, a) in self.sensitive.iter().enumerate() {
            let marginal = if ai == 0 {
                first_marginal.unwrap_or(&a.marginal)
            } else {
                &a.marginal
            };
            let c = marginal.sample(rng);
            if ai == 0 {
                first_cat = c;
            }
            row.push(Value::str(a.categories[c].clone()));
        }
        // Features.
        let mut logit = self.intercept;
        for f in &self.features {
            let shift = f.group_shift.get(first_cat).copied().unwrap_or(0.0);
            let x = normal(rng, f.mean + shift, f.std_dev);
            logit += f.target_weight * x;
            row.push(Value::Float(x));
        }
        if let Some(s) = self.group_logit_shift.get(first_cat) {
            logit += s;
        }
        let p = 1.0 / (1.0 + (-logit).exp());
        row.push(Value::Bool(rng.gen::<f64>() < p));
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_table::GroupSpec;

    #[test]
    fn schema_has_roles() {
        let spec = PopulationSpec::two_group(0.2);
        let s = spec.schema();
        assert_eq!(s.sensitive(), vec!["group"]);
        assert_eq!(s.targets(), vec!["y"]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn minority_fraction_respected() {
        let spec = PopulationSpec::two_group(0.1);
        let mut rng = StdRng::seed_from_u64(11);
        let t = spec.generate(20_000, &mut rng);
        let fr = GroupSpec::new(vec!["group"]).fractions(&t).unwrap();
        let min_frac = fr
            .iter()
            .find(|(k, _)| k.0[0] == Value::str("min"))
            .unwrap()
            .1;
        assert!((min_frac - 0.1).abs() < 0.01, "min_frac={min_frac}");
    }

    #[test]
    fn biased_feature_differs_by_group() {
        let spec = PopulationSpec::two_group(0.5);
        let mut rng = StdRng::seed_from_u64(12);
        let t = spec.generate(10_000, &mut rng);
        let stats = GroupSpec::new(vec!["group"]).stats(&t, "x2").unwrap();
        let maj = stats
            .iter()
            .find(|(k, _)| k.0[0] == Value::str("maj"))
            .unwrap();
        let min = stats
            .iter()
            .find(|(k, _)| k.0[0] == Value::str("min"))
            .unwrap();
        assert!(
            (min.1.mean - maj.1.mean - 1.0).abs() < 0.1,
            "shift={}",
            min.1.mean - maj.1.mean
        );
        // unbiased feature shows no shift
        let stats1 = GroupSpec::new(vec!["group"]).stats(&t, "x1").unwrap();
        let d = (stats1[0].1.mean - stats1[1].1.mean).abs();
        assert!(d < 0.1, "unbiased shift={d}");
    }

    #[test]
    fn target_depends_on_features() {
        let spec = PopulationSpec::two_group(0.5);
        let mut rng = StdRng::seed_from_u64(13);
        let t = spec.generate(10_000, &mut rng);
        // P(y | x1 high) should exceed P(y | x1 low)
        let mut hi = (0, 0);
        let mut lo = (0, 0);
        for i in 0..t.num_rows() {
            let x = t.value(i, "x1").unwrap().as_f64().unwrap();
            let y = t.value(i, "y").unwrap().as_bool().unwrap();
            if x > 0.5 {
                hi = (hi.0 + y as usize, hi.1 + 1);
            } else if x < -0.5 {
                lo = (lo.0 + y as usize, lo.1 + 1);
            }
        }
        let p_hi = hi.0 as f64 / hi.1 as f64;
        let p_lo = lo.0 as f64 / lo.1 as f64;
        assert!(p_hi > p_lo + 0.3, "p_hi={p_hi} p_lo={p_lo}");
    }

    #[test]
    fn marginal_override_changes_group_mix_only() {
        let spec = PopulationSpec::two_group(0.1);
        let mut rng = StdRng::seed_from_u64(14);
        let balanced = Categorical::from_weights(&[0.5, 0.5]);
        let t = spec.generate_with_marginals(10_000, &mut rng, Some(&balanced));
        let fr = GroupSpec::new(vec!["group"]).fractions(&t).unwrap();
        assert!((fr[0].1 - 0.5).abs() < 0.03);
    }

    #[test]
    fn par_population_identical_across_thread_counts() {
        let spec = PopulationSpec::two_group(0.3);
        // spans several ROW_BLOCKs plus a partial tail
        let n = 3 * ROW_BLOCK + 100;
        let base = spec.generate_par(n, 42, Threads::serial());
        assert_eq!(base.num_rows(), n);
        for threads in [2, 3, 8] {
            assert_eq!(
                spec.generate_par(n, 42, Threads::fixed(threads)),
                base,
                "threads={threads}"
            );
        }
        // the parallel stream still matches the spec's marginals
        let fr = GroupSpec::new(vec!["group"]).fractions(&base).unwrap();
        let min_frac = fr
            .iter()
            .find(|(k, _)| k.0[0] == Value::str("min"))
            .unwrap()
            .1;
        assert!((min_frac - 0.3).abs() < 0.03, "min_frac={min_frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = PopulationSpec::two_group(0.3);
        let a = spec.generate(100, &mut StdRng::seed_from_u64(42));
        let b = spec.generate(100, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
