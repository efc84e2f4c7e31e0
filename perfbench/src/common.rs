//! Pieces shared by the workloads: request mapping, bitwise response
//! comparison, counter snapshots, and the outcome of one measured run.

use std::collections::BTreeMap;

use rdi_datagen::SessionOp;
use rdi_serve::{AdmitConfig, LakeIndex, ServeError, ServeRequest, ServeResponse, TenantId};
use rdi_table::Table;

use crate::sys::Meter;
use crate::trace::Trace;

/// One answer slot of a batch report.
pub type Answer = Result<ServeResponse, ServeError>;

/// Map a generated workload op onto the serving request type.
pub fn to_request(op: &SessionOp) -> ServeRequest {
    match op.clone() {
        SessionOp::Union { query, k } => ServeRequest::UnionTopK { query, k },
        SessionOp::Joinable { query, column, k } => ServeRequest::JoinableTopK { query, column, k },
        SessionOp::Coverage {
            table,
            attributes,
            threshold,
        } => ServeRequest::CoverageProbe {
            table,
            attributes,
            threshold,
        },
        SessionOp::Tailor {
            problem,
            sources,
            max_draws,
        } => ServeRequest::TailorRun {
            problem,
            sources,
            max_draws,
        },
    }
}

/// Bitwise equality of two answers: every float is compared through
/// `to_bits`, so `-0.0 != 0.0` and equal NaN payloads match.
pub fn same_bits(a: &Answer, b: &Answer) -> bool {
    fn pairs(x: &[(String, f64)], y: &[(String, f64)]) -> bool {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|((i, s), (j, t))| i == j && s.to_bits() == t.to_bits())
    }
    match (a, b) {
        (Ok(ServeResponse::UnionTopK(x)), Ok(ServeResponse::UnionTopK(y)))
        | (Ok(ServeResponse::JoinableTopK(x)), Ok(ServeResponse::JoinableTopK(y))) => pairs(x, y),
        (Ok(ServeResponse::Coverage(x)), Ok(ServeResponse::Coverage(y))) => {
            x.table == y.table
                && x.mups == y.mups
                && x.uncovered_fraction.to_bits() == y.uncovered_fraction.to_bits()
        }
        (Ok(ServeResponse::Tailored(x)), Ok(ServeResponse::Tailored(y))) => {
            x.rows == y.rows
                && x.total_cost.to_bits() == y.total_cost.to_bits()
                && x.degraded == y.degraded
                && x.quarantined == y.quarantined
                && x.audit_passed == y.audit_passed
        }
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// Bitwise equality of two batches' answers.
pub fn same_answers(a: &[Answer], b: &[Answer]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| same_bits(p, q))
}

/// Bitwise equality of two runs' answers, batch by batch.
pub fn all_same(a: &[Vec<Answer>], b: &[Vec<Answer>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_answers(x, y))
}

/// True for the admission layer's typed refusals.
pub fn is_shed(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::QuotaExceeded { .. }
            | ServeError::QueueFull { .. }
            | ServeError::CircuitOpen { .. }
    )
}

/// Exact `rdi_obs` counters the per-layer metrics are derived from.
const COUNTERS: &[&str] = &[
    "actor.messages_delivered",
    "actor.scheduler_steps",
    "discovery.sketches_built",
    "par.parallel_runs",
    "par.tasks_dispatched",
    "policy.decisions",
    "serve.batches",
    "serve.cache.evicted_bytes",
    "serve.cache.evictions",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.candidates_scored",
    "serve.requests",
    "sketch.incremental_updates",
    "sketch.rebuilds",
];

/// Per-tenant shed families, summed over a workload's tenants.
const SHEDS: &[&str] = &["shed_quota", "shed_queue", "shed_breaker"];

/// A snapshot (or a difference of two snapshots) of the exact counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(pub BTreeMap<String, u64>);

impl Counters {
    /// Read every counter now; shed counters are summed over `tenants`,
    /// and `obs.span_records` is the length of the program's span buffer.
    pub fn read(tenants: &[&str]) -> Self {
        let mut m: BTreeMap<String, u64> = COUNTERS
            .iter()
            .map(|n| (n.to_string(), rdi_obs::counter(n).get()))
            .collect();
        for shed in SHEDS {
            let total = tenants
                .iter()
                .map(|t| rdi_obs::counter(&format!("serve.tenant.{t}.{shed}")).get())
                .sum();
            m.insert(format!("serve.admit.{shed}"), total);
        }
        let spans = rdi_obs::global().span_records().len() as u64;
        m.insert("obs.span_records".into(), spans);
        Counters(m)
    }

    /// `self - before`, counter by counter.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }

    /// One counter (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Set-up repeats until this much set-up time has accumulated (and at
/// least the requested count), so a short set-up still has a steady
/// median.
const SETUP_BUDGET_S: f64 = 1.0;

/// Most set-up repetitions in one run.
const MAX_SETUPS: usize = 25;

/// Whether another set-up repetition should run, given the times of
/// those done and the requested count (`1` means exactly one).
pub fn more_setups(done: &[f64], requested: usize) -> bool {
    done.len() < requested.max(1)
        || (requested > 1 && done.len() < MAX_SETUPS && done.iter().sum::<f64>() < SETUP_BUDGET_S)
}

/// Steps between samples of the reference computation.
const REFERENCE_EVERY: usize = 50;

/// Everything one measured run of a workload produced. A run replays
/// the same closed-loop steps in several passes, each from the same
/// state, so every step has one wall latency per pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each closed-loop step, per pass.
    pub step_ms: Vec<Vec<f64>>,
    /// Timed wall seconds of each pass.
    pub pass_wall_s: Vec<f64>,
    /// Timed process CPU seconds of each pass.
    pub pass_cpu_s: Vec<f64>,
    /// Successful ops of each pass.
    pub pass_ok: Vec<u64>,
    /// Reference computation times sampled during the timed phase
    /// ([`crate::sys::reference_s`]).
    pub reference_s: Vec<f64>,
    /// Steal share over all timed segments (see
    /// [`crate::sys::Meter::steal_frac`]).
    pub steal_frac: f64,
    /// `VmHWM` at the end of the timed phase, MiB.
    pub peak_rss_mb: f64,
    /// Requests submitted plus deltas applied, over all passes.
    pub attempted: u64,
    /// Ops answered or applied successfully, over all passes.
    pub ok: u64,
    /// Ops refused by the admission contract the workload scripts
    /// (quota, queue share, breaker) or failed by its poisoner.
    pub refused: u64,
    /// Ops that failed unexpectedly.
    pub failed: u64,
    /// Deltas (append/delete/drop) applied, and registrations.
    pub deltas: u64,
    /// Counter deltas summed over the timed segments.
    pub counters: Counters,
    /// Failed correctness checks (empty when the run is correct).
    pub errors: Vec<String>,
    /// Workload-specific per-layer readings (e.g. the actor overhead).
    pub layer: BTreeMap<&'static str, f64>,
    /// Spans of the timed phase (empty unless traced).
    pub trace: Trace,
    /// Inputs for the per-layer timings taken after the run.
    pub probe: Probe,
}

impl Outcome {
    /// Open a pass.
    pub fn begin_pass(&mut self) {
        self.step_ms.push(Vec::new());
        self.pass_ok.push(self.ok);
    }

    /// Record one closed-loop step of the open pass; every
    /// [`REFERENCE_EVERY`] steps, time the reference computation outside
    /// the meter's segments.
    pub fn step(&mut self, ms: f64, meter: &mut Meter) -> Result<(), String> {
        let Some(pass) = self.step_ms.last_mut() else {
            return Ok(());
        };
        pass.push(ms);
        if pass.len() % REFERENCE_EVERY == 0 {
            meter.stop()?;
            self.reference_s.push(crate::sys::reference_s());
            meter.start()?;
        }
        Ok(())
    }

    /// Close the open pass, whose timed segments `meter` covered.
    pub fn end_pass(&mut self, meter: &Meter) {
        let before: f64 = self.pass_wall_s.iter().sum();
        let wall = meter.wall_s();
        self.steal_frac = (self.steal_frac * before + meter.steal_frac() * wall)
            / (before + wall).max(f64::MIN_POSITIVE);
        self.pass_wall_s.push(wall);
        self.pass_cpu_s.push(meter.cpu_s());
        if let Some(ok) = self.pass_ok.last_mut() {
            *ok = self.ok - *ok;
        }
    }

    /// Median reference computation time, if any was sampled.
    pub fn reference_median_s(&self) -> Option<f64> {
        (!self.reference_s.is_empty()).then(|| crate::stats::median(&self.reference_s))
    }

    /// Process CPU seconds per wall second over all passes.
    pub fn cpu_per_wall(&self) -> f64 {
        self.pass_cpu_s.iter().sum::<f64>() / self.pass_wall_s.iter().sum::<f64>()
    }

    /// Steps of all passes.
    pub fn steps(&self) -> u64 {
        self.step_ms.iter().map(|p| p.len() as u64).sum()
    }

    /// Open a timed segment: snapshot the counters and start `meter`.
    pub fn resume(&self, meter: &mut Meter, tenants: &[&str]) -> Result<Counters, String> {
        let before = Counters::read(tenants);
        meter.start()?;
        Ok(before)
    }

    /// Close a timed segment opened by [`Outcome::resume`] and add its
    /// counter deltas.
    pub fn pause(
        &mut self,
        meter: &mut Meter,
        before: Counters,
        tenants: &[&str],
    ) -> Result<(), String> {
        meter.stop()?;
        for (k, v) in Counters::read(tenants).since(&before).0 {
            *self.counters.0.entry(k).or_insert(0) += v;
        }
        Ok(())
    }
}

/// State and inputs the per-layer timings (`crate::layers`) reuse.
#[derive(Debug, Default)]
pub struct Probe {
    /// The index as the timed phase left it.
    pub index: Option<LakeIndex>,
    /// Requests to time one at a time, in arrival order.
    pub singles: Vec<ServeRequest>,
    /// Answers the singles must give, when the workload knows them.
    pub singles_expected: Option<Vec<Answer>>,
    /// Admission config and per-window tenant sequences for the twin
    /// admitter.
    pub admit: Option<(AdmitConfig, Vec<Vec<TenantId>>)>,
    /// The workload's lake tables and ad-hoc query tables.
    pub tables: Vec<(String, Table)>,
    /// Ad-hoc query tables.
    pub queries: Vec<Table>,
    /// Mean requests per batch.
    pub batch_len: usize,
}

/// Build an index over `tables` (each with cost `1 + i/4`, so tailoring
/// draw policies see distinct costs).
pub fn build_index(
    config: rdi_serve::LakeIndexConfig,
    tables: Vec<(String, Table)>,
) -> Result<LakeIndex, String> {
    let mut index = LakeIndex::new(config);
    for (i, (id, t)) in tables.into_iter().enumerate() {
        index
            .register(id, t, 1.0 + i as f64 * 0.25)
            .map_err(|e| format!("register: {e}"))?;
    }
    Ok(index)
}
