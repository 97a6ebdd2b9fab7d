//! The three single-circuit engine workloads, plus the set-up and traced
//! pass they share with the sweep workload.

use crate::bench::{derive_seed, Bench};
use crate::calib::Calibration;
use crate::stats;
use rescq_circuit::DependencyDag;
use rescq_core::SchedulerKind;
use rescq_decoder::DecoderConfig;
use rescq_lattice::AncillaGraph;
use rescq_sim::{
    build_layout, simulate_prepared, simulate_prepared_traced, ExecutionReport, SimArtifacts,
    SimConfig,
};
use rescq_telemetry::RingRecorder;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One circuit on one fabric, run by RESCQ and by the greedy baseline.
#[derive(Debug)]
pub struct EngineWorkload {
    /// Workload name.
    pub name: &'static str,
    circuit: &'static str,
    compression: f64,
    union_find: bool,
    /// Run seeds per untraced pass. Large enough that the mean makespan and
    /// the median run time move little between workload seeds; small
    /// enough that one pass fits the measured window on a 2-core host.
    seeds: u64,
    /// Run seeds of the traced pass (a prefix of the untraced ones).
    traced_seeds: usize,
}

/// Why each workload is here: see README.md.
pub const WORKLOADS: [EngineWorkload; 3] = [
    EngineWorkload {
        name: "ising420_c50",
        circuit: "ising_n420",
        compression: 0.5,
        union_find: false,
        seeds: 16,
        traced_seeds: 4,
    },
    EngineWorkload {
        name: "qft160_full",
        circuit: "qft_n160",
        compression: 0.0,
        union_find: false,
        seeds: 12,
        traced_seeds: 6,
    },
    EngineWorkload {
        name: "stress160_uf",
        circuit: "decoder_stress_n160",
        compression: 0.0,
        union_find: true,
        seeds: 14,
        traced_seeds: 4,
    },
];

impl EngineWorkload {
    /// The program's default configuration with this workload's fields.
    fn config(&self) -> SimConfig {
        let mut b = SimConfig::builder().compression(self.compression);
        if self.union_find {
            b = b
                .decoder(DecoderConfig::union_find(1.0))
                .physical_error_rate(1e-2);
        }
        b.build()
    }
}

/// A prepared (circuit, compression) input.
#[derive(Debug)]
pub struct Input {
    /// Workload generator name of the circuit.
    pub circuit: &'static str,
    /// Grid compression of the fabric.
    pub compression: f64,
    /// The shared artifacts.
    pub artifacts: SimArtifacts,
}

/// The traced pass repeats the set-up at least this often and for at least
/// this long before it measures anything else.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_millis(600);
const SETUP_MAX_REPS: usize = 200;

/// A workload's set-up: each circuit generated once and prepared for every
/// compression through the public layer entry points. It is repeated many
/// times per invocation and `setup_s` is the median repetition. The
/// untraced pass spreads the repetitions over its measured window, after
/// the timed runs, and scales each by the calibration marks around it (see
/// `calib`).
#[derive(Debug)]
pub struct Setup {
    circuits: Vec<&'static str>,
    compressions: Vec<f64>,
    circuit_seed: u64,
    base: SimConfig,
    /// Wall time of each repetition in seconds, with the calibration mark
    /// it follows (none on the traced pass and for the first one).
    times: Vec<(Option<usize>, f64)>,
}

impl Setup {
    /// The set-up of `circuits` × `compressions` on `base`'s fabric.
    pub fn new(
        circuits: &[&'static str],
        compressions: &[f64],
        circuit_seed: u64,
        base: &SimConfig,
    ) -> Self {
        Setup {
            circuits: circuits.to_vec(),
            compressions: compressions.to_vec(),
            circuit_seed,
            base: base.clone(),
            times: Vec::new(),
        }
    }

    /// One repetition, after calibration mark `mark`: records its wall
    /// time and (on the traced pass) one span per layer call. Counts one
    /// attempted operation.
    pub fn rep(&mut self, b: &mut Bench, mark: Option<usize>) -> Option<Vec<Input>> {
        let t0 = Instant::now();
        let built = b.spans.root("setup", |s| -> Result<Vec<Input>, String> {
            let mut out = Vec::new();
            for &name in &self.circuits {
                let circuit = s.child("workloads.generate", |_| {
                    rescq_workloads::generate(name, self.circuit_seed)
                });
                let circuit = Arc::new(circuit.ok_or(format!("unknown workload {name}"))?);
                let dag = Arc::new(s.child("circuit.dag", |_| DependencyDag::new(&circuit)));
                for &compression in &self.compressions {
                    let cfg = SimConfig {
                        compression,
                        ..self.base.clone()
                    };
                    let layout = s.child("lattice.layout", |_| {
                        build_layout(circuit.num_qubits(), &cfg)
                    });
                    let layout = Arc::new(layout.map_err(|e| format!("{name}: {e}"))?);
                    let graph = Arc::new(
                        s.child("lattice.graph", |_| AncillaGraph::from_grid(layout.grid())),
                    );
                    let artifacts =
                        SimArtifacts::assemble(circuit.clone(), dag.clone(), layout, graph);
                    out.push(Input {
                        circuit: name,
                        compression,
                        artifacts,
                    });
                }
            }
            Ok(out)
        });
        self.times.push((mark, t0.elapsed().as_secs_f64()));
        match built {
            Ok(inputs) => {
                b.settle(Vec::new());
                Some(inputs)
            }
            Err(e) => {
                b.settle(vec![format!("set-up failed: {e}")]);
                None
            }
        }
    }

    /// Repeats the set-up back to back (the traced pass).
    fn repeat(&mut self, b: &mut Bench) {
        let started = Instant::now();
        while self.times.len() < SETUP_MIN_REPS
            || (started.elapsed() < SETUP_MIN_TIME && self.times.len() < SETUP_MAX_REPS)
        {
            self.rep(b, None);
        }
    }

    /// Records `setup_s` and the per-layer set-up metrics (median self time
    /// per repetition). With a calibration, `setup_s` is the median of the
    /// repetitions that follow a mark, each scaled by the marks around it.
    pub fn record(&self, b: &mut Bench, cal: Option<&Calibration>) {
        let raw: Vec<f64> = self.times.iter().map(|&(_, secs)| secs).collect();
        match cal {
            Some(cal) => {
                let marked: Vec<(usize, f64)> = self
                    .times
                    .iter()
                    .filter_map(|&(mark, secs)| Some((mark?, secs)))
                    .collect();
                b.set(
                    "setup_s",
                    stats::median(&cal.scale_all(&marked)),
                    marked.len(),
                );
                b.note(format!(
                    "setup_s before host-speed scaling: {:.6} s",
                    stats::median(&raw)
                ));
            }
            None => b.set("setup_s", stats::median(&raw), raw.len()),
        }
        for (layer, metric) in [
            ("workloads.generate", "workloads.generate_ms"),
            ("circuit.dag", "circuit.dag_ms"),
            ("lattice.layout", "lattice.layout_ms"),
            ("lattice.graph", "lattice.graph_ms"),
        ] {
            let per_rep = b.spans.self_ms_per_trace(layer);
            if !per_rep.is_empty() {
                b.set(metric, stats::median(&per_rep), per_rep.len());
            }
        }
    }

    /// The traced pass's set-up: repeated back to back, then recorded.
    pub fn traced(mut self, b: &mut Bench) -> Option<Vec<Input>> {
        let inputs = self.rep(b, None)?;
        self.repeat(b);
        self.record(b, None);
        Some(inputs)
    }
}

/// `config` with the given scheduler and run seed.
fn with_run(config: &SimConfig, scheduler: SchedulerKind, seed: u64) -> SimConfig {
    let mut cfg = config.clone();
    cfg.scheduler = scheduler;
    cfg.seed = seed;
    cfg
}

/// Runs one simulation (traced when a recorder is given) and checks it:
/// no error, every gate executed, and — when a reference report of the same
/// (input, seed) exists — a report equal to it once the traced-only phase
/// timings are zeroed. Counts one attempted operation. Returns the report
/// and the call's wall time in milliseconds.
fn run_checked(
    b: &mut Bench,
    input: &Input,
    cfg: &SimConfig,
    recorder: Option<&RingRecorder>,
    reference: Option<&ExecutionReport>,
) -> Option<(ExecutionReport, f64)> {
    let span = match (cfg.scheduler, recorder) {
        (SchedulerKind::Rescq, None) => "sim.rescq",
        (SchedulerKind::Rescq, Some(_)) => "sim.rescq_traced",
        _ => "sim.greedy",
    };
    let (result, ms) = b.spans.root(span, |_| {
        let t0 = Instant::now();
        let result = match recorder {
            Some(r) => simulate_prepared_traced(&input.artifacts, cfg, Some(r)),
            None => simulate_prepared(&input.artifacts, cfg),
        };
        (result, t0.elapsed().as_secs_f64() * 1e3)
    });
    let what = format!(
        "{} c={} {} seed={}",
        input.circuit, input.compression, cfg.scheduler, cfg.seed
    );
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            b.settle(vec![format!("{what}: {e}")]);
            return None;
        }
    };
    let mut problems = Vec::new();
    if report.gates_executed != input.artifacts.circuit.len() {
        problems.push(format!(
            "{what}: executed {} of {} gates",
            report.gates_executed,
            input.artifacts.circuit.len()
        ));
    }
    if let Some(reference) = reference {
        let mut zeroed = report.clone();
        zeroed.phase_nanos = [0; 4];
        if &zeroed != reference {
            problems.push(format!(
                "{what}: report differs from an earlier run of the same input and seed"
            ));
        }
    }
    if cfg.scheduler == SchedulerKind::Rescq {
        b.engine_threads.insert(report.engine_threads);
    }
    b.settle(problems);
    Some((report, ms))
}

/// Set-up repetitions after each timed run of the untraced pass (a set-up
/// takes a few percent of a run at most).
const SETUP_REPS_PER_RUN: usize = 3;

/// The untraced, timed pass: RESCQ runs over the workload's run seeds
/// (every seed once, then repeated passes until the window closes) and one
/// greedy run per seed for the makespan ratio. A calibration mark before
/// each timed run, and one after the last, scale the timed runs and the
/// set-up repetitions after each to the reference host speed.
fn untraced(
    b: &mut Bench,
    w: &EngineWorkload,
    setup: &mut Setup,
    input: &Input,
    cfg: &SimConfig,
    seeds: &[u64],
) {
    // Warm-up; it is also the reference the timed run of seed 0 must equal.
    let warm = run_checked(
        b,
        input,
        &with_run(cfg, SchedulerKind::Rescq, seeds[0]),
        None,
        None,
    )
    .map(|(report, _)| report);
    let mut first: Vec<Option<ExecutionReport>> = vec![None; seeds.len()];
    let mut cal = Calibration::new(1);
    let (mut times_ms, mut gates) = (Vec::new(), 0usize);
    let (mut rescq_cycles, mut greedy_cycles) = (Vec::new(), Vec::new());
    let budget = b.args.seconds;
    let started = Instant::now();
    'passes: for pass in 0.. {
        for (i, &seed) in seeds.iter().enumerate() {
            if pass > 0 && started.elapsed() >= budget {
                break 'passes;
            }
            let reference = if pass == 0 && i == 0 {
                warm.as_ref()
            } else {
                first[i].as_ref()
            };
            let rescq_cfg = with_run(cfg, SchedulerKind::Rescq, seed);
            let mark = cal.mark();
            let Some((report, ms)) = run_checked(b, input, &rescq_cfg, None, reference) else {
                continue;
            };
            times_ms.push((mark, ms));
            gates += report.gates_executed;
            for _ in 0..SETUP_REPS_PER_RUN {
                setup.rep(b, Some(mark));
            }
            if pass == 0 {
                let greedy_cfg = with_run(cfg, SchedulerKind::Greedy, seed);
                if let Some((greedy, _)) = run_checked(b, input, &greedy_cfg, None, None) {
                    rescq_cycles.push(report.total_cycles());
                    greedy_cycles.push(greedy.total_cycles());
                }
                first[i] = Some(report);
            }
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    cal.mark();
    record_times(b, &cal, &times_ms, gates);
    setup.record(b, Some(&cal));
    b.set("sim_cycles", stats::mean(&rescq_cycles), rescq_cycles.len());
    let speedup = stats::ratio(greedy_cycles.iter().sum(), rescq_cycles.iter().sum());
    b.set("speedup_vs_greedy", speedup, rescq_cycles.len());
    b.note(format!(
        "{}: mean makespan RESCQ {:.1} vs greedy {:.1} cycles over {} seeds",
        w.name,
        stats::mean(&rescq_cycles),
        stats::mean(&greedy_cycles),
        rescq_cycles.len()
    ));
    note_speedup(b, w.name, speedup);
}

/// Records `run_ms_p50` and `gates_per_s` from the timed calls (each in
/// ms, with the calibration mark it follows) that executed `gates`
/// simulated gates together, and notes the times before scaling.
pub fn record_times(b: &mut Bench, cal: &Calibration, times_ms: &[(usize, f64)], gates: usize) {
    let scaled = cal.scale_all(times_ms);
    b.set("run_ms_p50", stats::median(&scaled), scaled.len());
    b.set(
        "gates_per_s",
        stats::ratio(gates as f64, scaled.iter().sum::<f64>() / 1e3),
        scaled.len(),
    );
    let raw_ms: Vec<f64> = times_ms.iter().map(|&(_, ms)| ms).collect();
    if let Some([q1, q2, q3]) = stats::quartiles(&raw_ms) {
        b.note(format!(
            "run_ms before host-speed scaling: q1 {q1:.1}, median {q2:.1}, q3 {q3:.1} over {} runs",
            raw_ms.len()
        ));
    }
    b.note(format!(
        "host factor {:.4} = reference kernel time {} ms / median of {} calibration marks",
        cal.factor(),
        crate::calib::REFERENCE_MS,
        cal.marks()
    ));
}

/// Prints the paper's headline ratio beside a measured one, flags a ratio
/// below 1.0x, and says what the ratio is not.
pub fn note_speedup(b: &mut Bench, what: &str, speedup: f64) {
    let flag = if speedup < 1.0 {
        " -- BELOW 1.0x: RESCQ is slower than greedy here"
    } else {
        ""
    };
    b.note(format!(
        "speedup_vs_greedy {what}: {speedup:.3}x (paper abstract: ~2x average){flag}"
    ));
    b.note("the simulated cycle model is otherwise unvalidated against hardware".into());
}

/// One case of the traced pass: an input and a run seed.
pub type Case<'a> = (&'a Input, SimConfig);

/// The traced pass over `cases`: each case runs untraced, then traced
/// (their reports must agree), then once under greedy. While `budget`
/// lasts, further untraced + traced pairs refine the timings (and must
/// repeat the first pass's reports). Records every
/// `sim.*`, `core.*`, `rus.*`, in-engine `decoder.*` and `telemetry.*`
/// metric; counts are means per RESCQ run over the first pass.
pub fn traced_pass(b: &mut Bench, cases: &[Case], budget: Duration) {
    let started = Instant::now();
    let mut first: Vec<Option<ExecutionReport>> = vec![None; cases.len()];
    let (mut phase_ns, mut events, mut traced_runs) = ([0u64; 4], 0u64, 0usize);
    let (mut untraced_ns, mut cycles) = (0f64, 0f64);
    let mut untraced_ms: Vec<f64> = Vec::new();
    let mut traced_ms: Vec<f64> = Vec::new();
    'passes: for pass in 0.. {
        for (i, (input, cfg)) in cases.iter().enumerate() {
            if pass > 0 && started.elapsed() >= budget {
                break 'passes;
            }
            let rescq = with_run(cfg, SchedulerKind::Rescq, cfg.seed);
            let plain = run_checked(b, input, &rescq, None, first[i].as_ref());
            let Some((plain, plain_ms)) = plain else {
                continue;
            };
            let recorder = RingRecorder::new();
            let traced = run_checked(b, input, &rescq, Some(&recorder), Some(&plain));
            let Some((traced, traced_wall)) = traced else {
                continue;
            };
            untraced_ms.push(plain_ms);
            traced_ms.push(traced_wall);
            untraced_ns += plain_ms * 1e6;
            cycles += plain.total_cycles();
            traced_runs += 1;
            for (acc, ns) in phase_ns.iter_mut().zip(traced.phase_nanos) {
                *acc += ns;
            }
            events += recorder.len() as u64 + recorder.dropped();
            if pass == 0 {
                run_checked(
                    b,
                    input,
                    &with_run(cfg, SchedulerKind::Greedy, cfg.seed),
                    None,
                    None,
                );
                first[i] = Some(plain);
            }
        }
        if pass == 0 && started.elapsed() >= budget {
            break;
        }
    }
    if traced_runs == 0 {
        return;
    }
    let n = traced_runs as f64;
    let traced_mean = stats::mean(&traced_ms);
    let phases_ms = phase_ns.map(|ns| ns as f64 / 1e6 / n);
    for (name, ms) in [
        "sim.schedule_ms",
        "sim.start_ms",
        "sim.propose_ms",
        "sim.commit_ms",
    ]
    .into_iter()
    .zip(phases_ms)
    {
        b.set(name, ms, traced_runs);
    }
    let phases_sum: f64 = phases_ms.iter().sum();
    b.set("sim.traced_run_ms", traced_mean, traced_runs);
    b.set("sim.other_ms", traced_mean - phases_sum, traced_runs);
    b.set(
        "sim.phase_coverage",
        stats::ratio(phases_sum, traced_mean),
        traced_runs,
    );
    b.set(
        "sim.ns_per_cycle",
        stats::ratio(untraced_ns, cycles),
        traced_runs,
    );
    let greedy = b.spans.durations_ms("sim.greedy");
    b.set(
        "sim.greedy_run_ms_p50",
        stats::median(&greedy),
        greedy.len(),
    );
    let overhead = (stats::ratio(traced_ms.iter().sum(), untraced_ms.iter().sum()) - 1.0) * 100.0;
    b.set("telemetry.trace_overhead_pct", overhead, traced_runs);
    b.set("telemetry.events", events as f64 / n, traced_runs);
    let reports: Vec<ExecutionReport> = first.into_iter().flatten().collect();
    record_counters(b, &reports);
}

/// Per-run means of the schedule-derived counters of the RESCQ reports.
fn record_counters(b: &mut Bench, reports: &[ExecutionReport]) {
    let n = reports.len();
    let sum = |f: &dyn Fn(&ExecutionReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let mean = |f: &dyn Fn(&ExecutionReport) -> u64| stats::ratio(sum(f), n as f64);
    let hits = sum(&|r| r.counters.path_cache_hits);
    let lookups = hits + sum(&|r| r.counters.path_cache_misses);
    let applied = sum(&|r| r.counters.preemptions);
    let rejected = sum(&|r| r.counters.preemptions_rejected_cycle);
    let started = sum(&|r| r.counters.preps_started);
    let wasted = sum(&|r| r.counters.preps_cancelled + r.counters.states_discarded);
    let values = [
        (
            "sim.stall_ancilla_cycles",
            mean(&|r| r.counters.stall_ancilla_cycles),
        ),
        (
            "sim.stall_route_cycles",
            mean(&|r| r.counters.stall_route_cycles),
        ),
        (
            "sim.stall_decoder_cycles",
            mean(&|r| r.counters.stall_decoder_cycles),
        ),
        ("core.path_cache_lookups", stats::ratio(lookups, n as f64)),
        ("core.path_cache_hit_ratio", stats::ratio(hits, lookups)),
        ("core.cnot_replans", mean(&|r| r.counters.cnot_replans)),
        (
            "core.preemptions_rejected",
            stats::ratio(rejected, n as f64),
        ),
        (
            "core.preemption_accept_ratio",
            stats::ratio(applied, applied + rejected),
        ),
        (
            "core.mst_computations",
            mean(&|r| r.counters.mst_computations),
        ),
        (
            "core.waitgraph_peak_edges",
            mean(&|r| r.counters.waitgraph_peak_edges),
        ),
        (
            "rus.prep_success_ratio",
            stats::ratio(sum(&|r| r.counters.preps_succeeded), started),
        ),
        ("rus.prep_waste_ratio", stats::ratio(wasted, started)),
        (
            "rus.injection_failure_ratio",
            stats::ratio(
                sum(&|r| r.counters.injection_failures),
                sum(&|r| r.counters.injections),
            ),
        ),
        ("decoder.windows", mean(&|r| r.counters.decode_windows)),
        ("decoder.defects", mean(&|r| r.counters.decode_defects)),
        (
            "decoder.growth_steps",
            mean(&|r| r.counters.decode_growth_steps),
        ),
        ("decoder.failures", mean(&|r| r.counters.decode_failures)),
        (
            "decoder.peak_backlog",
            mean(&|r| r.counters.decoder_peak_backlog),
        ),
        (
            "decoder.stall_rounds",
            mean(&|r| r.counters.decoder_stall_rounds),
        ),
    ];
    for (name, value) in values {
        b.set(name, value, n);
    }
}

/// Runs engine workload `w`: set-up, then the untraced timed pass or the
/// traced pass.
pub fn run(b: &mut Bench, w: &EngineWorkload) {
    let cfg = w.config();
    let seed = b.args.seed;
    let mut setup = Setup::new(&[w.circuit], &[w.compression], derive_seed(seed, 0), &cfg);
    let seeds: Vec<u64> = (1..=w.seeds).map(|i| derive_seed(seed, i)).collect();
    if b.args.trace {
        let Some(inputs) = setup.traced(b) else {
            return;
        };
        let cases: Vec<Case> = seeds[..w.traced_seeds]
            .iter()
            .map(|&s| (&inputs[0], with_run(&cfg, SchedulerKind::Rescq, s)))
            .collect();
        let budget = b.args.seconds;
        traced_pass(b, &cases, budget);
    } else {
        let Some(inputs) = setup.rep(b, None) else {
            return;
        };
        untraced(b, w, &mut setup, &inputs[0], &cfg, &seeds);
    }
}
