//! Property tests: tailoring invariants across random instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, Value};
use rdi_tailor::prelude::*;
use rdi_tailor::OracleDp;

fn source_table(fracs: &[f64], n: usize) -> Table {
    // fracs over groups g0..gk; remainder is out-of-scope "other"
    let schema = Schema::new(vec![
        Field::new("g", DataType::Str).with_role(Role::Sensitive)
    ]);
    let mut t = Table::new(schema);
    let mut counts: Vec<usize> = fracs.iter().map(|f| (f * n as f64) as usize).collect();
    let used: usize = counts.iter().sum();
    let mut rows = Vec::new();
    for (g, c) in counts.iter_mut().enumerate() {
        for _ in 0..*c {
            rows.push(format!("g{g}"));
        }
    }
    for _ in used..n {
        rows.push("other".to_string());
    }
    for r in rows {
        t.push_row(vec![Value::str(r)]).unwrap();
    }
    t
}

fn problem(needs: &[usize]) -> DtProblem {
    DtProblem::exact_counts(
        GroupSpec::new(vec!["g"]),
        needs
            .iter()
            .enumerate()
            .map(|(g, &n)| (GroupKey(vec![Value::str(format!("g{g}"))]), n))
            .collect(),
    )
}

/// Wraps a source and appends an `id` column stamped fresh on every
/// draw (`base + n`), so no two draws from any source share an id.
#[derive(Clone)]
struct Stamped {
    inner: TableSource,
    schema: Schema,
    next_id: i64,
}

impl Stamped {
    fn new(inner: TableSource, base: i64) -> Self {
        let mut fields = inner.schema().fields().to_vec();
        fields.push(Field::new("id", DataType::Int));
        Stamped {
            inner,
            schema: Schema::new(fields),
            next_id: base,
        }
    }
}

impl Source for Stamped {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn cost(&self) -> f64 {
        self.inner.cost()
    }
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn frequencies(&self) -> &[f64] {
        self.inner.frequencies()
    }
    fn try_draw(&mut self, rng: &mut dyn RngCore) -> Result<Draw, SourceError> {
        let (group, mut row) = self.inner.try_draw(rng)?;
        row.push(Value::Int(self.next_id));
        self.next_id += 1;
        Ok((group, row))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any run that reports satisfied really collected the counts, paid
    /// cost = draws × unit cost, and kept only in-scope tuples.
    #[test]
    fn outcomes_are_internally_consistent(
        needs in prop::collection::vec(1usize..12, 1..3),
        frac in 0.2f64..0.8,
        seed in 0u64..1000)
    {
        let p = problem(&needs);
        let k = needs.len();
        let fracs: Vec<f64> = (0..k).map(|_| frac / k as f64).collect();
        let mut sources = vec![
            TableSource::new("s", source_table(&fracs, 500), 1.0, &p).unwrap(),
        ];
        let mut policy = RandomPolicy::new(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = run_tailoring(&mut sources, &p, &mut policy, &mut rng, 200_000).unwrap();
        prop_assert!(out.satisfied);
        for (g, &need) in needs.iter().enumerate() {
            prop_assert!(out.per_group[g] >= need);
        }
        prop_assert_eq!(out.total_cost, out.draws as f64);
        prop_assert_eq!(out.per_group.iter().sum::<usize>(), out.collected.num_rows());
        prop_assert_eq!(out.per_source_draws.iter().sum::<usize>(), out.draws);
        // no out-of-scope tuples kept
        for i in 0..out.collected.num_rows() {
            let v = out.collected.value(i, "g").unwrap();
            prop_assert!(v != Value::str("other"));
        }
    }

    /// The oracle's expected cost is monotone in the requirements and
    /// never exceeds the restriction to any single source.
    #[test]
    fn oracle_dp_laws(
        p0 in 0.05f64..0.9,
        p1 in 0.05f64..0.9,
        n0 in 1usize..8,
        n1 in 1usize..8)
    {
        let freqs = vec![
            vec![p0, (1.0 - p0) * 0.5],
            vec![p1 * 0.3, p1],
        ];
        let mut dp = OracleDp::new(vec![1.0, 1.0], freqs.clone());
        let base = dp.expected_cost(&[n0, n1]);
        prop_assert!(base.is_finite() && base > 0.0);
        // monotonicity
        prop_assert!(dp.expected_cost(&[n0 + 1, n1]) >= base - 1e-9);
        prop_assert!(dp.expected_cost(&[n0, n1 + 1]) >= base - 1e-9);
        // never worse than committing to one source
        for f in &freqs {
            let mut solo = OracleDp::new(vec![1.0], vec![f.clone()]);
            prop_assert!(base <= solo.expected_cost(&[n0, n1]) + 1e-9);
        }
    }

    /// Range requirements: collected counts never exceed `hi`.
    #[test]
    fn range_caps_hold(lo in 1usize..6, extra in 0usize..4, seed in 0u64..500) {
        let hi = lo + extra;
        let p = DtProblem::ranged(
            GroupSpec::new(vec!["g"]),
            vec![
                (GroupKey(vec![Value::str("g0")]), CountRequirement::range(lo, hi)),
                (GroupKey(vec![Value::str("g1")]), CountRequirement::range(lo, hi)),
            ],
        );
        let mut sources = vec![
            TableSource::new("s", source_table(&[0.5, 0.5], 400), 1.0, &p).unwrap(),
        ];
        let mut policy = RandomPolicy::new(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = run_tailoring(&mut sources, &p, &mut policy, &mut rng, 100_000).unwrap();
        prop_assert!(out.satisfied);
        for &c in &out.per_group {
            prop_assert!((lo..=hi).contains(&c), "count {c} outside [{lo},{hi}]");
        }
    }

    /// Dedup is a pure filter: when every draw carries a distinct id it
    /// filters nothing, and the run is bitwise identical to plain
    /// tailoring — same rows, draws, cost bits, per-source draws and
    /// keep/drop audit events.
    #[test]
    fn dedup_without_repeats_matches_plain_tailoring(
        needs in prop::collection::vec(1usize..12, 1..3),
        fracs in prop::collection::vec(0.1f64..0.9, 1..4),
        costs in prop::collection::vec(0.1f64..3.0, 4),
        max_draws in 1usize..2_000,
        seed in 0u64..1000)
    {
        let p = problem(&needs);
        let k = needs.len();
        let sources: Vec<Stamped> = fracs
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let table = source_table(&vec![f / k as f64; k], 200);
                let inner = TableSource::new(format!("s{i}"), table, costs[i], &p).unwrap();
                Stamped::new(inner, i as i64 * 1_000_000)
            })
            .collect();
        let run = |dedup: bool| {
            let mut sources = sources.clone();
            let mut policy = UcbColl::from_sources(&sources, k, 1.0);
            let mut rng = StdRng::seed_from_u64(seed);
            if dedup {
                run_tailoring_dedup(&mut sources, &p, &mut policy, "id", &mut rng, max_draws)
                    .unwrap()
            } else {
                let out =
                    run_tailoring(&mut sources, &p, &mut policy, &mut rng, max_draws).unwrap();
                (out, 0)
            }
        };
        let (plain, _) = run(false);
        let (dedup, duplicates) = run(true);
        prop_assert_eq!(duplicates, 0);
        prop_assert_eq!(&dedup.collected, &plain.collected);
        prop_assert_eq!(dedup.draws, plain.draws);
        prop_assert_eq!(dedup.total_cost.to_bits(), plain.total_cost.to_bits());
        prop_assert_eq!(&dedup.per_source_draws, &plain.per_source_draws);
        prop_assert_eq!(&dedup.decisions, &plain.decisions);
        prop_assert_eq!(dedup.satisfied, plain.satisfied);
    }
}
