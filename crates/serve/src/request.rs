//! Typed requests and responses for the serving layer.

use rdi_table::Table;
use rdi_tailor::DtProblem;

use crate::ServeError;

/// One query against a [`crate::LakeIndex`], submitted through a
/// [`crate::ServeSession`] batch.
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// Top-k table-union search: rank registered tables by unionability
    /// with the ad-hoc `query` table (§3.1 table-union search).
    UnionTopK {
        /// The query table (sketched and cached by content fingerprint).
        query: Table,
        /// How many candidates to return (`0` is a [`crate::ServeError::ZeroK`]).
        k: usize,
    },
    /// Top-k joinability search: rank registered tables by estimated
    /// containment of the query's `column` key set in theirs.
    /// Registered tables lacking `column` are skipped.
    JoinableTopK {
        /// The query table.
        query: Table,
        /// Join-key column name, looked up in the query *and* every candidate.
        column: String,
        /// How many candidates to return.
        k: usize,
    },
    /// Coverage probe (§2.2): MUPs of a *registered* table over
    /// categorical attributes at a count threshold.
    CoverageProbe {
        /// Registered table id.
        table: String,
        /// Categorical attributes spanning the pattern space.
        attributes: Vec<String>,
        /// Minimum per-pattern count for coverage.
        threshold: usize,
    },
    /// Distribution-tailoring run (§4.2) over registered tables, driven
    /// through the consolidated `PipelineBuilder` entry point with this
    /// request's own RNG stream.
    TailorRun {
        /// What to collect.
        problem: DtProblem,
        /// Registered table ids to use as sources.
        sources: Vec<String>,
        /// Draw budget.
        max_draws: usize,
    },
}

impl ServeRequest {
    /// Stable lowercase label for metrics and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeRequest::UnionTopK { .. } => "union_top_k",
            ServeRequest::JoinableTopK { .. } => "joinable_top_k",
            ServeRequest::CoverageProbe { .. } => "coverage_probe",
            ServeRequest::TailorRun { .. } => "tailor_run",
        }
    }
}

/// Result of a coverage probe.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// The probed table id.
    pub table: String,
    /// Human-readable descriptions of every maximal uncovered pattern,
    /// in the analyzer's deterministic order.
    pub mups: Vec<String>,
    /// Fraction of the attribute-assignment space left uncovered.
    pub uncovered_fraction: f64,
}

/// Result of a tailoring run.
#[derive(Debug, Clone, PartialEq)]
pub struct TailorReport {
    /// Rows collected into the integrated dataset.
    pub rows: usize,
    /// Total acquisition cost paid (per attempt).
    pub total_cost: f64,
    /// True when the run shipped partial data (sources failed or were
    /// quarantined).
    pub degraded: bool,
    /// Sources quarantined by their circuit breakers.
    pub quarantined: Vec<String>,
    /// Whether the end-of-run responsibility audit passed.
    pub audit_passed: bool,
}

/// A successful answer to one [`ServeRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    /// `(table id, unionability score)` descending, ties by name.
    UnionTopK(Vec<(String, f64)>),
    /// `(table id, estimated containment)` descending, ties by name.
    JoinableTopK(Vec<(String, f64)>),
    /// Coverage probe outcome.
    Coverage(CoverageReport),
    /// Tailoring run outcome.
    Tailored(TailorReport),
}

/// One answer rendered bit for bit: every score and fraction prints its
/// `f64` bits, so two renderings are equal exactly when the answers
/// are bitwise identical. Replay checks compare these strings, and the
/// serving experiments digest them into their `response_digest`
/// columns, which pin the bytes.
pub fn render_answer(answer: &Result<ServeResponse, ServeError>) -> String {
    fn bits(pairs: &[(String, f64)]) -> String {
        pairs
            .iter()
            .map(|(id, s)| format!("{id}:{:016x}", s.to_bits()))
            .collect::<Vec<_>>()
            .join(",")
    }
    match answer {
        Ok(ServeResponse::UnionTopK(v)) => format!("U[{}]", bits(v)),
        Ok(ServeResponse::JoinableTopK(v)) => format!("J[{}]", bits(v)),
        Ok(ServeResponse::Coverage(c)) => format!(
            "C[{} mups={:?} frac={:016x}]",
            c.table,
            c.mups,
            c.uncovered_fraction.to_bits()
        ),
        Ok(ServeResponse::Tailored(t)) => format!(
            "T[rows={} cost={:016x} degraded={} quarantined={:?} audit={}]",
            t.rows,
            t.total_cost.to_bits(),
            t.degraded,
            t.quarantined,
            t.audit_passed
        ),
        Err(e) => format!("E[{e:?}]"),
    }
}
