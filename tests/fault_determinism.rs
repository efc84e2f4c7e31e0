//! Property tests for the rdi-fault determinism contract:
//!
//! 1. a `FaultySource` at rate 0.0 is *bitwise* identical to the bare
//!    source it wraps — same rows, same draw count, same cost — for any
//!    run seed, so fault-injection plumbing can stay wired in
//!    production code at zero behavioral risk; and
//! 2. a faulty run is a pure function of its seeds: identical seeds
//!    give identical fault schedules, health accounting, provenance,
//!    and collected data regardless of `RDI_THREADS`.
//!
//! Deliberately a single `#[test]` in its own integration-test file:
//! the file gets its own process, so the `RDI_THREADS` mutation cannot
//! leak into concurrently running tests.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdi_par::THREADS_ENV;
use responsible_data_integration::core::prelude::*;
use responsible_data_integration::fault::{FaultSpec, FaultySource};
use responsible_data_integration::table::{
    DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, Value,
};
use responsible_data_integration::tailor::prelude::*;
use responsible_data_integration::tailor::run_tailoring;

fn group_table(seed: u64, rows: usize, frac_min: f64) -> Table {
    let schema = Schema::new(vec![
        Field::new("g", DataType::Str).with_role(Role::Sensitive)
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Table::new(schema);
    for _ in 0..rows {
        use rand::Rng;
        let g = if rng.gen::<f64>() < frac_min {
            "min"
        } else {
            "maj"
        };
        t.push_row(vec![Value::str(g)]).unwrap();
    }
    t
}

fn problem() -> DtProblem {
    DtProblem::exact_counts(
        GroupSpec::new(vec!["g"]),
        vec![
            (GroupKey(vec![Value::str("maj")]), 40),
            (GroupKey(vec![Value::str("min")]), 40),
        ],
    )
}

fn bare_sources(seed: u64, p: &DtProblem) -> Vec<TableSource> {
    [0.3, 0.1]
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let t = group_table(seed.wrapping_add(i as u64), 900, f);
            TableSource::new(format!("s{i}"), t, 1.0, p).unwrap()
        })
        .collect()
}

fn faulty_sources(
    seed: u64,
    fault_seed: u64,
    rate: f64,
    p: &DtProblem,
) -> Vec<FaultySource<TableSource>> {
    let spec = if rate == 0.0 {
        FaultSpec::none()
    } else {
        FaultSpec::uniform(rate)
    };
    bare_sources(seed, p)
        .into_iter()
        .enumerate()
        .map(|(i, s)| FaultySource::new(s, spec, fault_seed.wrapping_add(i as u64)))
        .collect()
}

/// One full pipeline run over a faulty federation, as a comparable
/// tuple of everything that must be a pure function of the seeds.
fn pipeline_fingerprint(
    seed: u64,
    fault_seed: u64,
    rate: f64,
) -> (
    Table,
    Vec<SourceHealth>,
    Vec<String>,
    bool,
    Vec<String>,
    String,
) {
    let p = problem();
    let mut sources = faulty_sources(seed, fault_seed, rate, &p);
    let mut policy = RandomPolicy::new(sources.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let r = PipelineBuilder::new(p)
        .max_draws(20_000)
        .build()
        .run(&mut sources, &mut policy, &mut rng)
        .unwrap();
    let lines = r.provenance_lines();
    let audit_md = r.audit.to_markdown();
    (r.data, r.health, r.quarantined, r.degraded, lines, audit_md)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn fault_runs_are_pure_functions_of_their_seeds(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
    ) {
        // Property 1: rate 0.0 is bitwise identical to no wrapper at all.
        let p = problem();
        let mut bare = bare_sources(seed, &p);
        let mut pol = RandomPolicy::new(bare.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let legacy = run_tailoring(&mut bare, &p, &mut pol, &mut rng, 20_000).unwrap();

        let mut quiet = faulty_sources(seed, fault_seed, 0.0, &p);
        let mut pol = RandomPolicy::new(quiet.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let res = run_resilient(
            &mut quiet, &p, &mut pol, &mut rng, 20_000, &ResilienceConfig::default(),
            &PolicySet::new(),
        ).unwrap();
        prop_assert_eq!(&res.tailor.collected, &legacy.collected);
        prop_assert_eq!(res.tailor.draws, legacy.draws);
        prop_assert_eq!(res.tailor.total_cost, legacy.total_cost);
        prop_assert_eq!(&res.tailor.per_source_draws, &legacy.per_source_draws);
        prop_assert!(res.health.iter().all(|h| h.failures_total() == 0));

        // Property 2: under faults, identical seeds give identical runs
        // whatever RDI_THREADS says — the fault schedule, retries, and
        // quarantines are functions of the seeds, never of the schedule.
        let mut prints = Vec::new();
        for t in ["1", "2", "8"] {
            std::env::set_var(THREADS_ENV, t);
            prints.push(pipeline_fingerprint(seed, fault_seed, 0.3));
        }
        std::env::remove_var(THREADS_ENV);
        let some_faults = prints[0].1.iter().any(|h| h.failures_total() > 0);
        prop_assert!(some_faults, "a 30% rate over thousands of draws must inject");
        for p in &prints[1..] {
            prop_assert_eq!(p, &prints[0]);
        }
        // and re-running under the same thread count reproduces it too
        std::env::set_var(THREADS_ENV, "2");
        let again = pipeline_fingerprint(seed, fault_seed, 0.3);
        std::env::remove_var(THREADS_ENV);
        prop_assert_eq!(&again, &prints[0]);
    }
}
