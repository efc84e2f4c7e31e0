//! E17: serial-vs-parallel scaling of the `rdi-par`-backed kernels.
//!
//! Each kernel runs at `RDI_THREADS ∈ {1, 2, 4, 8}` (set programmatically
//! via [`Threads::fixed`]) and reports wall time plus speedup over the
//! single-thread run. The binary also *asserts* the bitwise-identity
//! contract: every parallel result must equal the `Threads::serial()`
//! result exactly.
//!
//! Expected shape: on a multi-core host, speedup approaches the thread
//! count for the embarrassingly parallel kernels (sketching, sampling,
//! generation) until it saturates at the physical core count; on a
//! single-core host all thread counts collapse to ~1× (the chunked
//! dispatch adds only a small constant overhead).
//!
//! E17b times the `rdi-table` kernels every experiment stands on
//! (filter, group counts, hash join, CSV round trip). They run on one
//! thread: `rdi-table` does not dispatch through `rdi-par`.

use rdi_bench::{f1, print_table, time_ms};
use rdi_coverage::CoverageAnalyzer;
use rdi_datagen::{LakeConfig, PopulationSpec, SyntheticLake};
use rdi_discovery::{TableSignature, UnionSearchIndex};
use rdi_joinsample::{olken_sample_par, JoinIndex};
use rdi_par::Threads;
use rdi_table::{
    hash_join, read_csv_str, write_csv_string, DataType, Field, GroupSpec, Predicate, Role, Schema,
    Table, Value,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn scaling_row<T: PartialEq>(name: &str, run: impl Fn(Threads) -> T) -> Vec<String> {
    let baseline = run(Threads::serial());
    for &tc in &THREAD_COUNTS {
        assert!(
            run(Threads::fixed(tc)) == baseline,
            "{name}: parallel result diverged at {tc} threads"
        );
    }
    let times: Vec<f64> = THREAD_COUNTS
        .iter()
        .map(|&tc| time_ms(|| run(Threads::fixed(tc))))
        .collect();
    let mut row = vec![name.to_string()];
    for t in &times {
        row.push(f1(*t));
    }
    for t in &times[1..] {
        row.push(format!("{:.2}x", times[0] / t));
    }
    row
}

fn skewed_table(n: usize, d: usize) -> Table {
    let fields = (0..d)
        .map(|i| Field::new(format!("a{i}"), DataType::Str))
        .collect();
    let mut t = Table::new(Schema::new(fields));
    // deterministic skew without an RNG: category from a hash of (row, col)
    for r in 0..n {
        let row: Vec<Value> = (0..d)
            .map(|c| {
                let h = (r * 31 + c * 17) % 100;
                let cat = if h < 70 {
                    "0"
                } else if h < 95 {
                    "1"
                } else {
                    "2"
                };
                Value::str(cat)
            })
            .collect();
        t.push_row(row).unwrap();
    }
    t
}

/// `n` people: id, a 10% minority group, and a score in [0, 100).
fn people(n: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("g", DataType::Str).with_role(Role::Sensitive),
        Field::new("x", DataType::Float),
    ]);
    let mut t = Table::with_capacity(schema, n);
    for i in 0..n {
        let g = if (i * 31) % 10 == 0 { "min" } else { "maj" };
        t.push_row(vec![
            Value::Int(i as i64),
            Value::str(g),
            Value::Float(((i * 7_919) % 10_000) as f64 / 100.0),
        ])
        .unwrap();
    }
    t
}

/// One E17b row: kernel, input rows, output rows, wall ms.
fn table_row(name: &str, rows_in: usize, run: impl Fn() -> usize) -> Vec<String> {
    vec![
        name.to_string(),
        rows_in.to_string(),
        run().to_string(),
        f1(time_ms(run)),
    ]
}

fn main() {
    let mut rows = Vec::new();

    // (1) discovery: sketch every candidate column and run union search
    let lake = SyntheticLake::generate_par(
        &LakeConfig {
            num_candidates: 40,
            query_keys: 2_000,
            candidate_rows: 2_000,
            joinable_fraction: 0.4,
        },
        7,
        Threads::serial(),
    );
    rows.push(scaling_row("sketch+union search", |threads| {
        let mut index = UnionSearchIndex::new();
        for c in &lake.candidates {
            index.insert(TableSignature::build_with(&c.name, &c.table, 128, threads).unwrap());
        }
        let q = TableSignature::build_with("query", &lake.query, 128, threads).unwrap();
        index.top_k_with(&q, 10, threads)
    }));

    // (2) coverage: MUP enumeration over a 7-attribute lattice
    let t = skewed_table(20_000, 7);
    let attrs: Vec<String> = (0..7).map(|i| format!("a{i}")).collect();
    let attrs_ref: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let an = CoverageAnalyzer::new(&t, &attrs_ref, 25).unwrap();
    rows.push(scaling_row("MUP pattern-breaker", |threads| {
        an.mups_pattern_breaker_with(threads)
    }));

    // (3) joinsample: Olken accept-reject over a skewed join
    let mut left = Table::new(Schema::new(vec![Field::new("k", DataType::Int)]));
    let mut right = Table::new(Schema::new(vec![Field::new("k", DataType::Int)]));
    for k in 0..500i64 {
        left.push_row(vec![Value::Int(k)]).unwrap();
        for _ in 0..=(k % 20) {
            right.push_row(vec![Value::Int(k)]).unwrap();
        }
    }
    let idx = JoinIndex::build(&right, "k").unwrap();
    rows.push(scaling_row("Olken join sampling", |threads| {
        olken_sample_par(&left, "k", &idx, 100_000, 3, threads).unwrap()
    }));

    // (4) datagen: population generation
    let spec = PopulationSpec::two_group(0.2);
    rows.push(scaling_row("population generation", |threads| {
        spec.generate_par(200_000, 11, threads)
    }));

    print_table(
        "E17 — rdi-par scaling (wall ms, best of 3; speedup vs 1 thread)",
        &[
            "kernel", "1T ms", "2T ms", "4T ms", "8T ms", "2T", "4T", "8T",
        ],
        &rows,
    );

    let t = people(100_000);
    let small = t.take(&(0..10_000).collect::<Vec<_>>());
    let in_range = Predicate::between("x", Value::Float(25.0), Value::Float(75.0));
    let by_group = GroupSpec::new(vec!["g"]);
    let rows = vec![
        table_row("filter (range)", t.num_rows(), || {
            t.filter(&in_range).num_rows()
        }),
        table_row("group counts", t.num_rows(), || {
            by_group.counts(&t).unwrap().len()
        }),
        table_row("hash join (self, on id)", small.num_rows(), || {
            hash_join(&small, &small, "id", "id").unwrap().num_rows()
        }),
        table_row("CSV write + read", small.num_rows(), || {
            read_csv_str(&write_csv_string(&small)).unwrap().num_rows()
        }),
    ];
    print_table(
        "E17b — one-thread rdi-table kernels (wall ms, best of 3)",
        &["kernel", "rows in", "rows out", "1T ms"],
        &rows,
    );
    println!(
        "\nhost parallelism: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("all kernels verified bitwise identical to Threads::serial() at every thread count");
    rdi_bench::emit_metrics_snapshot();
}
