//! The `table3_sweep` workload: the harness regenerating the Table 3
//! comparison, the way figures get regenerated.

use crate::bench::{derive_seed, Bench};
use crate::calib::Calibration;
use crate::engine::{self, Case, Input, Setup};
use crate::stats;
use rescq_core::SchedulerKind;
use rescq_harness::{run_sweep, RunOptions, SweepResults, SweepSpec};
use rescq_sim::SimConfig;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Sweep workers: the 2 cores of the host the workload was sized on. Fixed
/// rather than `available_parallelism`, so the job mix per worker is the
/// same on every host.
const WORKERS: usize = 2;
/// Calibration kernel runs per mark; a mark precedes each timed repetition
/// of the untraced pass (together well under 10% of a repetition).
const CALIBRATION_RUNS: usize = 4;
/// Table 3 rows with at most this many qubits.
const MAX_QUBITS: u32 = 111;
const COMPRESSIONS: [f64; 2] = [0.0, 0.5];
const SEEDS: u64 = 3;
/// Timed repetitions of the untraced pass, at least.
const MIN_REPS: usize = 3;
/// Repetitions of the traced pass.
const TRACED_REPS: usize = 2;
/// Set-up repetitions after each timed sweep repetition of the untraced
/// pass (a set-up takes well under 1% of a sweep repetition).
const SETUP_REPS_PER_SWEEP: usize = 10;

fn rows() -> Vec<&'static str> {
    rescq_workloads::ALL_BENCHMARKS
        .iter()
        .filter(|b| b.qubits <= MAX_QUBITS)
        .map(|b| b.name)
        .collect()
}

/// One sweep repetition (`run_sweep` + `to_csv`) with its checks: no job
/// failed, every job ran, and the CSV equals the reference when one exists.
/// Returns the results, the CSV and the repetition's wall time in seconds.
fn repetition(
    b: &mut Bench,
    spec: &SweepSpec,
    reference: Option<&str>,
) -> Option<(SweepResults, String, f64)> {
    let opts = RunOptions::with_threads(WORKERS);
    let t0 = Instant::now();
    let (results, csv) = b.spans.root("harness.sweep", |s| {
        let results = s.child("harness.run_sweep", |_| run_sweep(spec, &opts));
        let csv = results
            .as_ref()
            .ok()
            .map(|r| s.child("harness.to_csv", |_| r.to_csv()));
        (results, csv)
    });
    let secs = t0.elapsed().as_secs_f64();
    let results = match results {
        Ok(r) => r,
        Err(e) => {
            b.settle(vec![format!("run_sweep failed: {e:?}")]);
            return None;
        }
    };
    let csv = csv.expect("rendered for every successful sweep");
    let mut problems = Vec::new();
    if let Some(e) = results.first_error() {
        problems.push(format!("sweep job failed: {e}"));
    }
    let expected = spec.num_points() * spec.seeds as usize;
    if results.records.len() != expected {
        problems.push(format!(
            "sweep ran {} of {expected} jobs",
            results.records.len()
        ));
    }
    if reference.is_some_and(|r| r != csv) {
        problems.push("sweep CSV differs between repetitions".into());
    }
    b.settle(problems);
    Some((results, csv, secs))
}

/// `sim_cycles` (geomean of RESCQ point means) and `speedup_vs_greedy`
/// (geomean of greedy ÷ RESCQ point means), with a note per point below
/// 1.0x.
fn record_ratios(b: &mut Bench, results: &SweepResults) {
    // (workload, compression bits) -> (RESCQ, greedy) mean makespan.
    let mut points: BTreeMap<(String, u64), (Option<f64>, Option<f64>)> = BTreeMap::new();
    for p in results.summaries() {
        let key = (p.job.workload.clone(), p.job.config.compression.to_bits());
        let slot = points.entry(key).or_default();
        match p.job.config.scheduler {
            SchedulerKind::Rescq => slot.0 = Some(p.mean_cycles),
            SchedulerKind::Greedy => slot.1 = Some(p.mean_cycles),
            _ => {}
        }
    }
    let (mut rescq, mut ratios, mut below) = (Vec::new(), Vec::new(), Vec::new());
    for ((workload, comp), pair) in &points {
        let (Some(cycles), Some(greedy)) = *pair else {
            continue;
        };
        rescq.push(cycles);
        let ratio = stats::ratio(greedy, cycles);
        ratios.push(ratio);
        if ratio < 1.0 {
            below.push(format!("{workload}@{}={ratio:.2}x", f64::from_bits(*comp)));
        }
    }
    b.set("sim_cycles", stats::geomean(&rescq), rescq.len());
    let speedup = stats::geomean(&ratios);
    b.set("speedup_vs_greedy", speedup, ratios.len());
    engine::note_speedup(
        b,
        &format!("table3_sweep (geomean of {} points)", ratios.len()),
        speedup,
    );
    if !below.is_empty() {
        b.note(format!("points below 1.0x: {}", below.join(", ")));
    }
}

/// Runs the sweep workload.
pub fn run(b: &mut Bench) {
    b.harness_workers = Some(WORKERS);
    let rows = rows();
    let circuit_seed = derive_seed(b.args.seed, 0);
    let spec = SweepSpec {
        workloads: rows.iter().map(|r| r.to_string()).collect(),
        schedulers: SchedulerKind::ALL.to_vec(),
        compressions: COMPRESSIONS.to_vec(),
        seeds: SEEDS,
        base_seed: derive_seed(b.args.seed, 1),
        circuit_seed,
        ..SweepSpec::default()
    };
    let mut setup = Setup::new(&rows, &COMPRESSIONS, circuit_seed, &SimConfig::default());
    if b.args.trace {
        if let Some(inputs) = setup.traced(b) {
            traced(b, &spec, &inputs);
        }
    } else if let Some(inputs) = setup.rep(b, None) {
        untraced(b, &spec, &mut setup, &inputs);
    }
}

fn untraced(b: &mut Bench, spec: &SweepSpec, setup: &mut Setup, inputs: &[Input]) {
    // Every job runs its circuit once per scheduler and seed.
    let gates_per_rep: usize = inputs
        .iter()
        .map(|i| i.artifacts.circuit.len() * spec.schedulers.len() * spec.seeds as usize)
        .sum();
    // Warm-up; its CSV is the reference every timed repetition must equal.
    let Some((results, csv, _)) = repetition(b, spec, None) else {
        return;
    };
    record_ratios(b, &results);
    let mut cal = Calibration::new(CALIBRATION_RUNS);
    let mut times_ms = Vec::new();
    let started = Instant::now();
    for attempt in 0.. {
        if attempt >= MIN_REPS && started.elapsed() >= b.args.seconds {
            break;
        }
        let mark = cal.mark();
        if let Some((_, _, secs)) = repetition(b, spec, Some(&csv)) {
            times_ms.push((mark, secs * 1e3));
        }
        for _ in 0..SETUP_REPS_PER_SWEEP {
            setup.rep(b, Some(mark));
        }
    }
    cal.mark();
    engine::record_times(b, &cal, &times_ms, gates_per_rep * times_ms.len());
    setup.record(b, Some(&cal));
}

fn traced(b: &mut Bench, spec: &SweepSpec, inputs: &[Input]) {
    let (mut csv_ref, mut jobs) = (None::<String>, 0);
    for _ in 0..TRACED_REPS {
        if let Some((results, csv, _)) = repetition(b, spec, csv_ref.as_deref()) {
            jobs = results.records.len();
            csv_ref.get_or_insert(csv);
        }
    }
    for (name, metric) in [
        ("harness.run_sweep", "harness.run_sweep_ms"),
        ("harness.to_csv", "harness.to_csv_ms"),
    ] {
        let ms = b.spans.durations_ms(name);
        b.set(metric, stats::median(&ms), ms.len());
    }
    b.set("harness.jobs", jobs as f64, TRACED_REPS);

    // Each point once under RESCQ (untraced and traced) and greedy, at the
    // sweep's first seed: the engine layers behind the sweep.
    let cases: Vec<Case> = inputs
        .iter()
        .map(|i| {
            let cfg = SimConfig {
                compression: i.compression,
                seed: spec.base_seed,
                ..SimConfig::default()
            };
            (i, cfg)
        })
        .collect();
    engine::traced_pass(b, &cases, Duration::ZERO);
}
