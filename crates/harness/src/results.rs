//! Deterministic aggregation of sweep results: per-job rows, per-point
//! summary statistics, and CSV/JSON writers.
//!
//! Every per-job metric is declared once, as one line of [`COLUMNS`]: its
//! name, numeric kind, per-point aggregation and extractor. The CSV header
//! and rows, the checkpoint parser, the point summaries and the sweep JSON
//! all loop over that table, so adding a sweep column takes one table line
//! (plus the counter's increment site in the engine). New columns go last,
//! so older tooling keeps its column positions; every column is sim-time
//! derived, so rows are byte-identical whether or not a run was traced.
//!
//! Rows are always emitted in job-index order — the executor stores results
//! by index, so output is byte-identical no matter how many workers ran the
//! sweep. Floats are formatted with Rust's shortest-round-trip `Display`,
//! so a checkpointed row parses back to exactly the value that was written.

use crate::cache::CacheStats;
use crate::spec::{fmt_k, fmt_priority, JobSpec, SweepSpec};
use rescq_sim::ExecutionReport;
use std::fmt::{self, Write as _};

/// One metric value, typed by its column's kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An integer count or cycle figure.
    U64(u64),
    /// A fractional figure.
    F64(f64),
}

impl Value {
    /// The value as a float.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::U64(x) => x as f64,
            Value::F64(x) => x,
        }
    }

    /// The value as an integer (a float truncates toward zero).
    pub fn as_u64(self) -> u64 {
        match self {
            Value::U64(x) => x,
            Value::F64(x) => x as u64,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(x) => x.fmt(f),
            Value::F64(x) => x.fmt(f),
        }
    }
}

/// How a column folds across the seeds of one sweep point.
#[derive(Clone, Copy)]
enum Agg {
    /// Per-job only: the point summary has no key for it.
    None,
    /// Total across seeds.
    Sum,
    /// Largest value across seeds.
    Max,
    /// Mean across seeds (always a float).
    Mean,
}

/// A column's numeric kind together with its extractor.
#[derive(Clone, Copy)]
enum Extract {
    /// An integer column.
    U64(fn(&ExecutionReport) -> u64),
    /// A float column.
    F64(fn(&ExecutionReport) -> f64),
}

/// One per-job metric column of the sweep outputs.
struct Column {
    /// CSV header name and sweep-JSON summary key.
    name: &'static str,
    /// Per-point aggregation.
    agg: Agg,
    /// Kind and extractor.
    extract: Extract,
}

const fn u(name: &'static str, agg: Agg, get: fn(&ExecutionReport) -> u64) -> Column {
    Column {
        name,
        agg,
        extract: Extract::U64(get),
    }
}

const fn f(name: &'static str, agg: Agg, get: fn(&ExecutionReport) -> f64) -> Column {
    Column {
        name,
        agg,
        extract: Extract::F64(get),
    }
}

/// The metric columns of a sweep row, in CSV order.
#[rustfmt::skip]
const COLUMNS: &[Column] = &[
    u("seed", Agg::None, |r| r.seed),
    f("total_cycles", Agg::None, ExecutionReport::total_cycles),
    f("idle_fraction", Agg::None, ExecutionReport::idle_fraction),
    f("stall_cycles", Agg::None, ExecutionReport::decoder_stall_cycles),
    u("decode_windows", Agg::None, |r| r.counters.decode_windows),
    u("peak_backlog", Agg::Max, |r| r.counters.decoder_peak_backlog),
    u("injections", Agg::None, |r| r.counters.injections),
    u("injection_failures", Agg::None, |r| r.counters.injection_failures),
    u("preps_started", Agg::None, |r| r.counters.preps_started),
    u("preps_cancelled", Agg::None, |r| r.counters.preps_cancelled),
    u("preemptions", Agg::Sum, |r| r.counters.preemptions),
    u("preemptions_rejected", Agg::Sum, |r| r.counters.preemptions_rejected_cycle),
    u("waitgraph_peak_edges", Agg::Max, |r| r.counters.waitgraph_peak_edges),
    u("preemptions_class", Agg::Sum, |r| r.counters.preemptions_class),
    u("stall_ancilla", Agg::Sum, |r| r.counters.stall_ancilla_cycles),
    u("stall_decoder", Agg::Sum, |r| r.counters.stall_decoder_cycles),
    u("stall_route", Agg::Sum, |r| r.counters.stall_route_cycles),
    u("stall_class", Agg::Sum, |r| r.counters.stall_class_cycles),
    u("cnot_p50", Agg::Mean, |r| r.cnot_latency.percentile(0.5)),
    u("cnot_p99", Agg::Max, |r| r.cnot_latency.percentile(0.99)),
    u("decode_p99", Agg::Max, |r| r.decode_latency.percentile(0.99)),
    u("decode_defects", Agg::Sum, |r| r.counters.decode_defects),
    u("decode_growth_steps", Agg::Sum, |r| r.counters.decode_growth_steps),
    u("decode_failures", Agg::Sum, |r| r.counters.decode_failures),
    u("decode_merges", Agg::Sum, |r| r.counters.decode_merges),
    u("decode_peeled_edges", Agg::Sum, |r| r.counters.decode_peeled_edges),
];

const NUM_COLUMNS: usize = COLUMNS.len();

/// Positions in [`COLUMNS`] of the makespan and decoder-stall columns, which
/// the named cycle statistics of [`PointSummary`] read (the sweep golden in
/// `tests/golden/` pins the statistics they produce).
const TOTAL_CYCLES: usize = 1;
const STALL_CYCLES: usize = 3;

impl Column {
    fn extract(&self, report: &ExecutionReport) -> Value {
        match self.extract {
            Extract::U64(get) => Value::U64(get(report)),
            Extract::F64(get) => Value::F64(get(report)),
        }
    }

    fn parse(&self, text: &str) -> Result<Value, String> {
        let bad = |kind| format!("bad {kind} `{text}` in column `{}`", self.name);
        match self.extract {
            Extract::U64(_) => text.parse().map(Value::U64).map_err(|_| bad("integer")),
            Extract::F64(_) => text.parse().map(Value::F64).map_err(|_| bad("float")),
        }
    }

    /// Folds one point's values of this column; `n` is the mean's divisor.
    fn aggregate(&self, values: impl Iterator<Item = Value>, n: f64) -> Option<Value> {
        let float = matches!(self.extract, Extract::F64(_));
        Some(match (self.agg, float) {
            (Agg::None, _) => return None,
            (Agg::Mean, _) => Value::F64(values.map(Value::as_f64).sum::<f64>() / n),
            (Agg::Sum, false) => Value::U64(values.map(Value::as_u64).sum()),
            (Agg::Max, false) => Value::U64(values.map(Value::as_u64).max().unwrap_or(0)),
            (Agg::Sum, true) => Value::F64(values.map(Value::as_f64).sum()),
            (Agg::Max, true) => Value::F64(values.map(Value::as_f64).fold(0.0, f64::max)),
        })
    }
}

/// Renders one grid cell of a job.
type Cell = fn(&JobSpec) -> String;

/// The grid columns that lead every row: the job's sweep coordinates.
/// `priority` is a spec axis (it names the arbitration policy a point ran
/// under), so it sits here rather than among the metrics. The flag marks
/// the columns the sweep JSON writes as strings.
#[rustfmt::skip]
const GRID: &[(&str, bool, Cell)] = &[
    ("workload", true, |j| j.workload.clone()),
    ("scheduler", true, |j| j.config.scheduler.to_string()),
    ("distance", false, |j| j.config.distance.to_string()),
    ("error_rate", false, |j| j.config.physical_error_rate.to_string()),
    ("k", true, |j| fmt_k(j.config.k_policy)),
    ("compression", false, |j| j.config.compression.to_string()),
    ("decoder", true, |j| j.decoder.to_string()),
    ("priority", true, |j| fmt_priority(&j.config.priority_classes)),
];

/// The metric values of one completed job (one seeded run), in the order
/// of the sweep's metric columns.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics(pub(crate) [Value; NUM_COLUMNS]);

impl JobMetrics {
    /// Extracts the metrics a sweep keeps from a full report.
    pub fn from_report(report: &ExecutionReport) -> Self {
        JobMetrics(std::array::from_fn(|i| COLUMNS[i].extract(report)))
    }

    /// The value of the metric column called `name`, if there is one.
    pub fn get(&self, name: &str) -> Option<Value> {
        let i = COLUMNS.iter().position(|c| c.name == name)?;
        Some(self.0[i])
    }
}

/// One job with its outcome (metrics, or the error that stopped it).
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job that ran.
    pub job: JobSpec,
    /// Metrics on success, error text on failure.
    pub outcome: Result<JobMetrics, String>,
    /// Whether the result was restored from a checkpoint instead of run.
    pub resumed: bool,
}

/// The CSV column header of per-job rows: the grid columns, then the
/// metric columns.
pub fn csv_header() -> String {
    let names: Vec<&str> = GRID
        .iter()
        .map(|g| g.0)
        .chain(COLUMNS.iter().map(|c| c.name))
        .collect();
    names.join(",")
}

/// Formats one job + metrics as a CSV row (no trailing newline).
pub fn csv_row(job: &JobSpec, m: &JobMetrics) -> String {
    let cells: Vec<String> = GRID.iter().map(|g| g.2(job)).collect();
    let mut out = cells.join(",");
    for v in &m.0 {
        let _ = write!(out, ",{v}");
    }
    out
}

/// Parses the metric columns of a [`csv_row`] back into [`JobMetrics`]
/// (used by checkpoint resume; the job columns are identified by
/// fingerprint, not re-parsed).
///
/// Only rows of the current width parse: rows written before a column was
/// added fail here, and the checkpoint loader skips them (those jobs
/// simply re-run).
pub fn parse_csv_metrics(row: &str) -> Result<JobMetrics, String> {
    let cells: Vec<&str> = row.split(',').collect();
    let want = GRID.len() + NUM_COLUMNS;
    if cells.len() != want {
        return Err(format!("expected {want} columns, got {}", cells.len()));
    }
    let mut values = [Value::U64(0); NUM_COLUMNS];
    for ((slot, column), text) in values.iter_mut().zip(COLUMNS).zip(&cells[GRID.len()..]) {
        *slot = column.parse(text)?;
    }
    Ok(JobMetrics(values))
}

/// Aggregate statistics of one sweep point across its seeds.
#[derive(Debug, Clone)]
pub struct PointSummary {
    /// Index of the point in expansion order.
    pub point: usize,
    /// The point's first job (carries every grid coordinate).
    pub job: JobSpec,
    /// Seeds that completed successfully.
    pub completed: u64,
    /// Mean makespan in cycles.
    pub mean_cycles: f64,
    /// Median makespan.
    pub p50_cycles: f64,
    /// 99th-percentile makespan.
    pub p99_cycles: f64,
    /// Minimum makespan.
    pub min_cycles: f64,
    /// Maximum makespan.
    pub max_cycles: f64,
    /// Mean decoder stall cycles.
    pub mean_stall_cycles: f64,
    /// Mean stall fraction of the makespan (`stall / total`, averaged).
    pub stall_fraction: f64,
    /// `(column, value)` for every aggregated column, in [`COLUMNS`] order.
    aggregates: Vec<(&'static str, Value)>,
}

impl PointSummary {
    /// The per-point aggregate of the metric column called `name` (its sum,
    /// maximum or mean across the point's successful seeds); `None` for a
    /// column that is not aggregated or does not exist.
    pub fn aggregate(&self, name: &str) -> Option<Value> {
        self.aggregates
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Smallest value `v` in sorted `xs` such that at least `p` of samples ≤ `v`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Everything a sweep run produced, in deterministic order.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// The spec that ran.
    pub spec: SweepSpec,
    /// One record per job, sorted by job index.
    pub records: Vec<JobRecord>,
    /// Artifact-cache counters.
    pub cache: CacheStats,
    /// Wall-clock seconds the execution took.
    pub elapsed_secs: f64,
}

impl SweepResults {
    /// The first job error, if any job failed.
    pub fn first_error(&self) -> Option<&str> {
        self.records
            .iter()
            .find_map(|r| r.outcome.as_ref().err().map(String::as_str))
    }

    /// Number of records restored from a checkpoint.
    pub fn resumed_count(&self) -> usize {
        self.records.iter().filter(|r| r.resumed).count()
    }

    /// Successful `(job, metrics)` pairs in job order.
    pub fn ok_rows(&self) -> impl Iterator<Item = (&JobSpec, &JobMetrics)> {
        self.records
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|m| (&r.job, m)))
    }

    /// The per-job CSV document (header + one row per successful job, in
    /// job order; failed jobs are omitted).
    pub fn to_csv(&self) -> String {
        let mut out = csv_header();
        out.push('\n');
        for (job, m) in self.ok_rows() {
            out.push_str(&csv_row(job, m));
            out.push('\n');
        }
        out
    }

    /// Per-point aggregate statistics, in point order. Records are grouped
    /// by their job's point index (not fixed-size chunks), so sharded
    /// result sets — where a point may hold fewer than `seeds` records —
    /// aggregate correctly too.
    pub fn summaries(&self) -> Vec<PointSummary> {
        let mut out = Vec::new();
        for chunk in self.records.chunk_by(|a, b| a.job.point == b.job.point) {
            let first = &chunk[0];
            let ok: Vec<&JobMetrics> = chunk
                .iter()
                .filter_map(|r| r.outcome.as_ref().ok())
                .collect();
            let total = |m: &JobMetrics| m.0[TOTAL_CYCLES].as_f64();
            let stall = |m: &JobMetrics| m.0[STALL_CYCLES].as_f64();
            let mut cycles: Vec<f64> = ok.iter().map(|m| total(m)).collect();
            let n = ok.len().max(1) as f64;
            let mean_cycles = cycles.iter().sum::<f64>() / n;
            cycles.sort_by(f64::total_cmp);
            let mean_stall = ok.iter().map(|m| stall(m)).sum::<f64>() / n;
            let stall_fraction = ok
                .iter()
                .map(|m| {
                    if total(m) > 0.0 {
                        stall(m) / total(m)
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
                / n;
            let aggregates = COLUMNS
                .iter()
                .enumerate()
                .filter_map(|(i, c)| Some((c.name, c.aggregate(ok.iter().map(|m| m.0[i]), n)?)))
                .collect();
            out.push(PointSummary {
                point: first.job.point,
                job: first.job.clone(),
                completed: ok.len() as u64,
                mean_cycles,
                p50_cycles: percentile(&cycles, 0.5),
                p99_cycles: percentile(&cycles, 0.99),
                min_cycles: cycles.first().copied().unwrap_or(0.0),
                max_cycles: cycles.last().copied().unwrap_or(0.0),
                mean_stall_cycles: mean_stall,
                stall_fraction,
                aggregates,
            });
        }
        out
    }

    /// The whole result set as a JSON document: cache stats, per-point
    /// summaries and per-job rows.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"points\": {}, \"jobs\": {}, \"elapsed_secs\": {},",
            self.spec.num_points(),
            self.records.len(),
            self.elapsed_secs
        );
        let _ = writeln!(
            out,
            "  \"cache\": {{\"circuit_builds\": {}, \"circuit_hits\": {}, \"layout_builds\": {}, \"layout_hits\": {}}},",
            self.cache.circuit_builds,
            self.cache.circuit_hits,
            self.cache.layout_builds,
            self.cache.layout_hits
        );
        out.push_str("  \"summaries\": [\n");
        let summaries = self.summaries();
        for (i, s) in summaries.iter().enumerate() {
            out.push_str("    {");
            for (j, (name, quoted, cell)) in GRID.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let cell = cell(&s.job);
                let _ = if *quoted {
                    write!(out, "{sep}\"{name}\": \"{}\"", json_escape(&cell))
                } else {
                    write!(out, "{sep}\"{name}\": {cell}")
                };
            }
            let _ = write!(
                out,
                ", \"completed\": {}, \"mean_cycles\": {}, \"p50_cycles\": {}, \"p99_cycles\": {}, \"min_cycles\": {}, \"max_cycles\": {}, \"mean_stall_cycles\": {}, \"stall_fraction\": {}",
                s.completed,
                s.mean_cycles,
                s.p50_cycles,
                s.p99_cycles,
                s.min_cycles,
                s.max_cycles,
                s.mean_stall_cycles,
                s.stall_fraction,
            );
            for (name, v) in &s.aggregates {
                let _ = write!(out, ", \"{name}\": {v}");
            }
            out.push_str(if i + 1 < summaries.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ],\n  \"rows\": [\n");
        let rows: Vec<String> = self
            .ok_rows()
            .map(|(job, m)| format!("    \"{}\"", json_escape(&csv_row(job, m))))
            .collect();
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Metrics with a distinct value in every column (fractional ones do not
/// round-trip through a short decimal), for tests.
#[cfg(test)]
pub(crate) fn sample_metrics(seed: u64) -> JobMetrics {
    JobMetrics(std::array::from_fn(|i| match COLUMNS[i].extract {
        Extract::U64(_) => Value::U64(seed * 100 + i as u64),
        Extract::F64(_) => Value::F64(seed as f64 / (i as f64 + 3.0)),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_sorted_samples() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.99), 4.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn csv_metrics_round_trip() {
        let spec = SweepSpec {
            workloads: vec!["dnn_n16".into()],
            ..SweepSpec::default()
        };
        let job = spec.expand().remove(0);
        let m = sample_metrics(7);
        let row = csv_row(&job, &m);
        assert_eq!(
            row.split(',').count(),
            csv_header().split(',').count(),
            "{row}"
        );
        assert_eq!(
            parse_csv_metrics(&row).unwrap(),
            m,
            "floats must round-trip"
        );
        assert!(parse_csv_metrics("a,b,c").is_err());
        let err = parse_csv_metrics(&row.replacen(",700,", ",7.5,", 1)).unwrap_err();
        assert_eq!(err, "bad integer `7.5` in column `seed`");
    }
}
