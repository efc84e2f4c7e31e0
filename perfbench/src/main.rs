//! Serving benchmark for the RDI workspace: three seeded closed-loop
//! workloads over the public serving API, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it records the environment. See `perfbench/README.md`.

mod common;
mod lake_churn;
mod layers;
mod serve_warm;
mod stats;
mod sys;
mod tenant_flood;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use common::Outcome;
use serde_json::Value;
use trace::Trace;

/// Session seed of every workload; per-request RNG streams derive from it.
pub const SESSION_SEED: u64 = 7;

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Distinct closed-loop steps per run: enough that p99 has ten samples
/// beyond it.
const STEPS: usize = 1000;

/// Median time of one reference computation ([`sys::reference_s`]) on an
/// idle 2-vCPU host. Measured times are scaled by the ratio of this to
/// the run's own median reference time.
const REFERENCE_NOMINAL_S: f64 = 2.0e-3;

/// Each step is replayed at least this often, so that its fastest replay
/// is one no stolen time slice hit.
const MIN_PASSES: usize = 4;

/// `run(seed, steps, passes, setups, threads, trace)`.
type RunFn = fn(u64, usize, usize, usize, usize, Trace) -> Result<Outcome, String>;

/// A workload: its name, its closed-loop steps per requested second, and
/// its runner.
struct Workload {
    name: &'static str,
    steps_per_s: usize,
    run: RunFn,
}

/// Steps per second are sized so that a run measures about the requested
/// time on a 2-vCPU machine; the amount of work depends on `--seconds`
/// only, so every exact counter repeats between runs of one seed.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve_warm",
        steps_per_s: 380,
        run: serve_warm::run,
    },
    Workload {
        name: "lake_churn",
        steps_per_s: 280,
        run: lake_churn::run,
    },
    Workload {
        name: "tenant_flood_actor",
        steps_per_s: 300,
        run: tenant_flood::run,
    },
];

/// End-to-end metric names and units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_rps", "ops/s"),
    ("cpu_us_per_ok", "us"),
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(name, value);
    }
    let get = |n: &str| {
        flags
            .get(n)
            .copied()
            .ok_or_else(|| format!("--{n} is required"))
    };
    let number = |n: &str| -> Result<u64, String> {
        get(n)?
            .parse()
            .map_err(|_| format!("--{n} must be a whole number"))
    };
    let seconds = number("seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Args {
        workload: get("workload")?.to_string(),
        seed: number("seed")?,
        seconds,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn floats(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::F64(v)).collect())
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn count(n: impl TryInto<i64>) -> Value {
    Value::I64(n.try_into().unwrap_or(i64::MAX))
}

/// FNV-1a over the sources the benchmark builds (`crates/`, `src/` and
/// its own), in path order: identifies the code measured when the
/// checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() && name != "target" && !name.to_string_lossy().starts_with('.') {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "src", "perfbench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

/// The end-to-end metrics of an untraced run, and the unscaled readings
/// they come from. Each step's latency is its fastest pass; throughput
/// divides one pass's successful ops by the sum of those latencies, and
/// CPU cost takes the median pass. Times are then scaled to the nominal
/// host speed by `REFERENCE_NOMINAL_S` over the median reference time
/// sampled during the run.
type Metrics = BTreeMap<&'static str, f64>;

fn end_to_end(out: &Outcome) -> Result<(Metrics, Metrics), String> {
    let steps = out.step_ms.first().map_or(0, Vec::len);
    if out.step_ms.iter().any(|p| p.len() != steps) {
        return Err("passes ran different step counts".into());
    }
    let ok = *out.pass_ok.first().ok_or("no pass ran")?;
    if ok == 0 || out.pass_ok.iter().any(|&o| o != ok) {
        return Err(format!(
            "successful ops per pass differ or are zero: {:?}",
            out.pass_ok
        ));
    }
    let speed = REFERENCE_NOMINAL_S
        / out
            .reference_median_s()
            .ok_or("no reference sample was taken")?;
    let fastest: Vec<f64> = (0..steps)
        .map(|i| {
            out.step_ms
                .iter()
                .map(|p| p[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let step_s: f64 = fastest.iter().sum::<f64>() / 1e3;
    let mut raw = BTreeMap::new();
    raw.insert("setup_s", stats::median(&out.setup_s));
    raw.insert("ok_rps", ok as f64 / step_s);
    raw.insert(
        "cpu_us_per_ok",
        stats::median(&out.pass_cpu_s) * 1e6 / ok as f64,
    );
    raw.insert("batch_p50_ms", stats::percentile(&fastest, 0.5)?);
    raw.insert("batch_p99_ms", stats::percentile(&fastest, 0.99)?);
    raw.insert("peak_rss_mb", out.peak_rss_mb);
    let scaled = raw
        .iter()
        .map(|(&k, &v)| {
            let v = match k {
                "peak_rss_mb" => v,
                "ok_rps" => v / speed,
                _ => v * speed,
            };
            (k, v)
        })
        .collect();
    Ok((scaled, raw))
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let threads = sys::nproc();
    let passes = (args.seconds as usize * workload.steps_per_s / STEPS).max(MIN_PASSES);

    let mut unscaled = BTreeMap::new();
    let (reported, metrics, units, mut errors) = if args.trace {
        // Two runs of the same inputs: untraced for the environment and
        // the tracing overhead, traced for spans. Their exact counters
        // must agree.
        let base = (workload.run)(args.seed, STEPS, 1, 1, threads, Trace::disabled())?;
        let mut traced = (workload.run)(args.seed, STEPS, 1, 1, threads, Trace::enabled())?;
        let mut errors: Vec<String> = base.errors.iter().chain(&traced.errors).cloned().collect();
        if base.counters != traced.counters {
            errors.push(format!(
                "counters differ between two runs of one seed: {:?} vs {:?}",
                base.counters, traced.counters
            ));
        }
        let (m, layer_errors) = layers::per_layer(&base, &mut traced, threads)?;
        errors.extend(layer_errors);
        let path = format!("perfbench/out/trace-{}-{}.csv", args.workload, args.seed);
        traced
            .trace
            .write_csv(std::path::Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        let units: Vec<(&str, &str)> = layers::PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
        (traced, m, units, errors)
    } else {
        let out = (workload.run)(args.seed, STEPS, passes, SETUPS, threads, Trace::disabled())?;
        let (m, raw) = end_to_end(&out)?;
        unscaled = raw;
        let errors = out.errors.clone();
        (out, m, END_TO_END.to_vec(), errors)
    };

    let mut rendered = Vec::new();
    for (name, unit) in units {
        let v = *metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} missing"))?;
        if !v.is_finite() {
            errors.push(format!("metric {name} is {v}"));
            continue;
        }
        rendered.push((
            name,
            obj(vec![("value", Value::F64(v)), ("unit", text(unit))]),
        ));
    }
    if reported.failed > 0 {
        errors.push(format!("{} ops failed", reported.failed));
    }
    let counters = reported
        .counters
        .0
        .iter()
        .map(|(k, &v)| (k.as_str(), count(v)))
        .collect();
    let commit = std::env::var("GIT_COMMIT").unwrap_or_else(|_| "unknown".into());
    let info = obj(vec![
        ("workload", text(&args.workload)),
        ("seed", count(args.seed)),
        ("seconds", count(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", count(sys::nproc())),
        ("execute_threads", count(threads)),
        ("actor_threads", count(threads)),
        ("commit", text(commit)),
        ("source_digest", text(source_digest())),
        ("steps", count(reported.steps())),
        ("passes", count(reported.step_ms.len())),
        ("attempted", count(reported.attempted)),
        ("ok", count(reported.ok)),
        ("refused", count(reported.refused)),
        ("failed", count(reported.failed)),
        ("pass_wall_s", floats(&reported.pass_wall_s)),
        ("pass_cpu_s", floats(&reported.pass_cpu_s)),
        ("env.steal_frac", Value::F64(reported.steal_frac)),
        ("env.cpu_per_wall", Value::F64(reported.cpu_per_wall())),
        ("setup_s_samples", floats(&reported.setup_s)),
        (
            "reference_median_s",
            reported
                .reference_median_s()
                .map_or(Value::Null, Value::F64),
        ),
        ("reference_samples", count(reported.reference_s.len())),
        (
            "unscaled",
            obj(unscaled.iter().map(|(&k, &v)| (k, Value::F64(v))).collect()),
        ),
        ("counters", obj(counters)),
        (
            "errors",
            Value::Arr(errors.iter().map(|e| text(e.as_str())).collect()),
        ),
    ]);
    let correct = errors.is_empty();
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", count(reported.attempted)),
        ("failed", count(reported.failed)),
        ("metrics", obj(rendered)),
    ]);
    for line in [obj(vec![("info", info)]), result] {
        println!(
            "{}",
            serde_json::to_string(&line).map_err(|e| e.to_string())?
        );
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Workload runs read process-global counters, so tests that run
    /// workloads take this lock.
    pub static RUN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn strings(v: &Value, keys: &[&str]) -> Vec<Vec<String>> {
        v.as_array()
            .expect("array")
            .iter()
            .map(|item| {
                keys.iter()
                    .map(|k| item[*k].as_str().unwrap_or("").to_string())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: Value = serde_json::from_str(&text).expect("valid JSON");
        let workloads: Vec<Vec<String>> =
            WORKLOADS.iter().map(|w| vec![w.name.to_string()]).collect();
        assert_eq!(strings(&spec["workloads"], &["name"]), workloads);
        let e2e: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect();
        assert_eq!(strings(&spec["end_to_end"], &["name", "unit"]), e2e);
        let layers: Vec<Vec<String>> = layers::PER_LAYER
            .iter()
            .map(|(n, u, b)| vec![n.to_string(), u.to_string(), b.to_string()])
            .collect();
        assert_eq!(
            strings(&spec["per_layer"], &["name", "unit", "better"]),
            layers
        );
    }

    #[test]
    fn arguments_take_the_documented_form() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        assert_eq!(
            parse_args(&args(
                "--workload lake_churn --seed 3 --seconds 10 --trace 1"
            )),
            Ok(Args {
                workload: "lake_churn".into(),
                seed: 3,
                seconds: 10,
                trace: true,
            })
        );
        for bad in [
            "--workload lake_churn --seed 3 --seconds 10",
            "--workload lake_churn --seed x --seconds 10 --trace 0",
            "--workload lake_churn --seed 3 --seconds 0 --trace 0",
            "--workload lake_churn --seed 3 --seconds 10 --trace 2",
            "--workload lake_churn --seed 3 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    /// Run a workload twice on one seed: both runs must be correct and
    /// count exactly alike.
    pub fn repeats(run: RunFn, seed: u64, steps: usize) -> Outcome {
        let _guard = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = run(seed, steps, 1, 1, sys::nproc(), Trace::disabled()).expect("first run");
        let b = run(seed, steps, 1, 1, sys::nproc(), Trace::disabled()).expect("second run");
        assert!(
            a.errors.is_empty() && b.errors.is_empty(),
            "{:?} {:?}",
            a.errors,
            b.errors
        );
        assert_eq!(a.counters, b.counters, "counters repeat for one seed");
        assert_eq!((a.attempted, a.ok, a.failed), (b.attempted, b.ok, b.failed));
        a
    }
}
