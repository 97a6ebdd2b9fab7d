//! The `sim` binary: config-driven RESCQ simulations and figure
//! regeneration, mirroring the paper artifact's workflow.
//!
//! ```text
//! sim run <config-file> [--csv DIR]        one experiment from a config file
//! sim analyze <trace.json|config>          bottleneck report from a trace or config
//! sim sweep <spec.toml> [options]          a declarative parameter sweep (rescq-harness)
//! sim merge-checkpoints <spec.toml> <out.csv> <in.ckpt...>  merge shard checkpoints
//! sim bench <name> [options]               one Table 3 benchmark, all schedulers
//! sim list                                  list Table 3 benchmarks
//! sim fig <3|5|10|11|12|13|14|15|16|a2>     regenerate a figure (--full for paper scale)
//! sim table3                                regenerate Table 3
//! ```

#![forbid(unsafe_code)]

use rescq_bench::experiments::{self, ExperimentScale};
use rescq_cli::{output, parse_config, RunSpec};
use rescq_core::SchedulerKind;
use rescq_sim::runner::run_seeds;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("merge-checkpoints") => cmd_merge_checkpoints(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("list") => cmd_list(),
        Some("table3") => cmd_table3(),
        Some("fig") => cmd_fig(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`; try `sim help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!("sim — RESCQ scheduling simulator (paper reproduction)");
    println!();
    println!("Usage:");
    println!("  sim run <config-file> [--csv DIR]");
    println!("            [--priority-classes SPEC]   class lattice, e.g.");
    println!("                                   factory>injection>compute>speculative | off");
    println!("            [--trace-out FILE]     write a Chrome trace-event JSON of one");
    println!("                                   traced run (base seed; open in");
    println!("                                   chrome://tracing or Perfetto)");
    println!("            [--metrics-out FILE]   write the base-seed metrics snapshot");
    println!("                                   (.json = JSON, else text exposition)");
    println!("                                      run an experiment from a config file");
    println!("  sim analyze <trace.json|config> [--json FILE] [--top K]");
    println!("                                      bottleneck report: critical path with");
    println!("                                   stall-cause attribution, hot ancillas,");
    println!("                                   region utilization. Accepts a --trace-out");
    println!("                                   JSON or a run config (re-runs base seed");
    println!("                                   traced)");
    println!("  sim sweep <spec.toml> [--threads N] [--csv FILE] [--json FILE]");
    println!("            [--checkpoint FILE] [--shard i/n] [--quiet | --progress]");
    println!("            [--layout-cache DIR]  persist layouts across invocations");
    println!("                                      run a declarative parameter sweep");
    println!("  sim merge-checkpoints <spec.toml> <out.csv> <in.ckpt...> [--json FILE]");
    println!("            [--allow-missing]         merge shard checkpoints into one CSV/JSON");
    println!("  sim bench <name> [--seeds N] [--compression F] [--distance D] [--csv DIR]");
    println!("            [--decoder ideal|fixed|adaptive|union_find] [--decoder-throughput F]");
    println!("            [--decoder-workers N] [--decoder-prep]");
    println!("            [--priority-classes SPEC]  class-aware ledger arbitration");
    println!("  sim bench --baseline FILE [--seeds N]   record a perf baseline (BENCH_*.json)");
    println!("            of the standard suite (ising_n420 + factory_n12 @ 25%); with a");
    println!("            positional <name>, record that benchmark instead");
    println!("  sim bench --compare BASE.json NEW.json [--warn-pct P] [--fail-pct P]");
    println!("                                      diff two baselines (exit 1 above fail)");
    println!("  sim list                            list Table 3 benchmarks");
    println!("  sim table3                          regenerate Table 3");
    println!("  sim fig <3|5|10|11|12|13|14|15|16|a2|decoder> [--full]");
}

/// Errors on any `--flag` in `args` that is not in `known`, so a typo or a
/// stale flag fails loudly instead of being silently ignored.
fn reject_unknown_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    for a in args {
        if !a.starts_with("--") || known.contains(&a.as_str()) {
            continue;
        }
        return Err(if a == "--engine-threads" {
            "`--engine-threads` was removed: the engine is single-threaded \
             (seeds and sweep jobs still run in parallel)"
                .into()
        } else {
            format!("unknown flag `{a}`; try `sim help`")
        });
    }
    Ok(())
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn load_circuit(name: &str) -> Result<rescq_circuit::Circuit, String> {
    if let Some(path) = name.strip_prefix("file:") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        return rescq_circuit::parse_circuit(&text, None).map_err(|e| e.to_string());
    }
    rescq_workloads::generate(name, 1)
        .ok_or_else(|| format!("unknown benchmark `{name}`; `sim list` shows the suite"))
}

fn run_spec(
    spec: &RunSpec,
    csv_dir: Option<PathBuf>,
) -> Result<rescq_sim::runner::SweepSummary, String> {
    let circuit = load_circuit(&spec.benchmark)?;
    println!(
        "{}: {} qubits, {} gates ({})",
        spec.benchmark,
        circuit.num_qubits(),
        circuit.len(),
        circuit.stats()
    );
    let summary = run_seeds(
        &circuit,
        &spec.config,
        spec.base_seed,
        spec.seeds,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    )
    .map_err(|e| e.to_string())?;
    for r in &summary.reports {
        println!("  {}", output::summarize(r));
    }
    println!("  => {summary}");
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let base = dir.join(format!("{}_{}", spec.benchmark, spec.config.scheduler));
        output::write_reports_csv(&base.with_extension("csv"), &summary.reports)
            .map_err(|e| e.to_string())?;
        output::write_histogram_csv(
            &base.with_extension("cnot_hist.csv"),
            &summary.merged_cnot_latency(),
        )
        .map_err(|e| e.to_string())?;
        output::write_histogram_csv(
            &base.with_extension("rz_hist.csv"),
            &summary.merged_rz_latency(),
        )
        .map_err(|e| e.to_string())?;
        println!("  csv written under {}", dir.display());
    }
    Ok(summary)
}

/// Applies the shared `--priority-classes` flag (`off` = class-blind).
fn apply_priority_flag(args: &[String], config: &mut rescq_sim::SimConfig) -> Result<(), String> {
    if let Some(spec) = flag_value(args, "--priority-classes") {
        config.priority_classes = rescq_core::ClassLattice::parse_setting(&spec)?;
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(
        args,
        &[
            "--csv",
            "--priority-classes",
            "--trace-out",
            "--metrics-out",
        ],
    )?;
    let path = args.first().filter(|a| !a.starts_with("--")).ok_or(
        "usage: sim run <config-file> [--csv DIR] [--priority-classes SPEC] \
         [--trace-out FILE] [--metrics-out FILE]",
    )?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut spec = parse_config(&text).map_err(|e| e.to_string())?;
    apply_priority_flag(args, &mut spec.config)?;
    let summary = run_spec(&spec, flag_value(args, "--csv").map(PathBuf::from))?;
    if let Some(out) = flag_value(args, "--metrics-out") {
        // The base seed's report, as a versioned snapshot. Every metric in
        // it is schedule-derived, so the file is identical whether or not
        // the run was traced.
        let report = summary
            .reports
            .first()
            .ok_or("run produced no reports to snapshot")?;
        let snapshot = rescq_sim::metrics_snapshot(report);
        let body = if out.ends_with(".json") {
            snapshot.to_json()
        } else {
            snapshot.to_text()
        };
        std::fs::write(&out, body).map_err(|e| format!("{out}: {e}"))?;
        println!("  metrics snapshot written to {out}");
    }
    if let Some(out) = flag_value(args, "--trace-out") {
        write_trace(&spec, &PathBuf::from(out))?;
    }
    Ok(())
}

/// Produces the bottleneck report of `sim analyze`: from a `--trace-out`
/// Chrome trace file (first positional starting with `{`), or from a run
/// config, in which case the base seed re-runs with a recorder attached
/// (tracing is inert, so this reproduces the main run's schedule exactly).
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    use rescq_telemetry::{analyze_events, parse_trace, RingRecorder};
    const USAGE: &str = "usage: sim analyze <trace.json|run-config> [--json FILE] [--top K]";
    reject_unknown_flags(args, &["--json", "--top", "--priority-classes"])?;
    let path = args.first().filter(|a| !a.starts_with("--")).ok_or(USAGE)?;
    let top_k: usize = match flag_value(args, "--top") {
        Some(k) => k.parse().map_err(|_| "bad --top")?,
        None => 8,
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report = if text.trim_start().starts_with('{') {
        let parsed = parse_trace(&text)?;
        analyze_events(&parsed.events, parsed.dropped, parsed.truncated)
    } else {
        let mut spec = parse_config(&text).map_err(|e| e.to_string())?;
        apply_priority_flag(args, &mut spec.config)?;
        let circuit = load_circuit(&spec.benchmark)?;
        let mut config = spec.config.clone();
        config.seed = spec.base_seed;
        let recorder = RingRecorder::new();
        rescq_sim::simulate_traced(&circuit, &config, Some(&recorder))
            .map_err(|e| e.to_string())?;
        let events: Vec<_> = recorder.events().iter().map(|t| t.event).collect();
        analyze_events(&events, recorder.dropped(), false)
    };
    for w in &report.warnings {
        eprintln!("warning: {w}");
    }
    print!("{}", report.render_text(top_k));
    if let Some(json) = flag_value(args, "--json") {
        std::fs::write(&json, report.to_json(top_k)).map_err(|e| format!("{json}: {e}"))?;
        println!("machine-readable report written to {json}");
    }
    Ok(())
}

/// Re-runs the spec's base seed with a [`rescq_telemetry::RingRecorder`]
/// attached and writes the captured stream as Chrome trace-event JSON.
/// Tracing never perturbs the schedule, so this run reproduces the first
/// seed of the main sweep exactly.
fn write_trace(spec: &RunSpec, out: &std::path::Path) -> Result<(), String> {
    use rescq_telemetry::RingRecorder;
    let circuit = load_circuit(&spec.benchmark)?;
    let mut config = spec.config.clone();
    config.seed = spec.base_seed;
    let recorder = RingRecorder::new();
    let report = rescq_sim::simulate_traced(&circuit, &config, Some(&recorder))
        .map_err(|e| e.to_string())?;
    std::fs::write(out, recorder.to_chrome_trace())
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "trace: {} events ({} dropped) written to {}",
        recorder.len(),
        recorder.dropped(),
        out.display()
    );
    let totals = recorder.phase_totals_ns();
    let ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "  phase wall-clock: schedule {:.1}ms, start {:.1}ms, propose {:.1}ms, commit {:.1}ms",
        ms(totals[0]),
        ms(totals[1]),
        ms(totals[2]),
        ms(totals[3]),
    );
    println!(
        "  stall attribution: ancilla {}cy, decoder {}cy, route {}cy, class {}cy",
        report.counters.stall_ancilla_cycles,
        report.counters.stall_decoder_cycles,
        report.counters.stall_route_cycles,
        report.counters.stall_class_cycles,
    );
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    use rescq_harness::{run_sweep, ProgressMode, RunOptions, Shard, SweepSpec};
    reject_unknown_flags(
        args,
        &[
            "--threads",
            "--csv",
            "--json",
            "--checkpoint",
            "--shard",
            "--layout-cache",
            "--quiet",
            "--progress",
        ],
    )?;
    let path = args.first().filter(|a| !a.starts_with("--")).ok_or(
        "usage: sim sweep <spec.toml> [--threads N] [--csv FILE] [--json FILE] \
         [--checkpoint FILE] [--shard i/n] [--layout-cache DIR] [--quiet | --progress]",
    )?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = SweepSpec::parse(&text).map_err(|e| e.to_string())?;
    let mut opts = RunOptions::default();
    if let Some(t) = flag_value(args, "--threads") {
        opts.threads = t.parse().map_err(|_| "bad --threads")?;
    }
    opts.checkpoint = flag_value(args, "--checkpoint").map(PathBuf::from);
    opts.layout_cache_dir = flag_value(args, "--layout-cache").map(PathBuf::from);
    if let Some(shard) = flag_value(args, "--shard") {
        opts.shard = Some(Shard::parse(&shard)?);
    }
    if args.iter().any(|a| a == "--quiet") {
        opts.progress = ProgressMode::Off;
    } else if args.iter().any(|a| a == "--progress") {
        opts.progress = ProgressMode::Always;
    }

    let jobs = spec.num_points() * spec.seeds as usize;
    match opts.shard {
        Some(shard) => println!(
            "sweep: {} points x {} seeds = {} jobs (running shard {shard})",
            spec.num_points(),
            spec.seeds,
            jobs
        ),
        None => println!(
            "sweep: {} points x {} seeds = {} jobs",
            spec.num_points(),
            spec.seeds,
            jobs
        ),
    }
    let results = run_sweep(&spec, &opts).map_err(|e| e.to_string())?;
    print_sweep_results(&results)?;

    if let Some(csv) = flag_value(args, "--csv") {
        std::fs::write(&csv, results.to_csv()).map_err(|e| format!("{csv}: {e}"))?;
        println!("per-job rows written to {csv}");
    }
    if let Some(json) = flag_value(args, "--json") {
        std::fs::write(&json, results.to_json()).map_err(|e| format!("{json}: {e}"))?;
        println!("summary json written to {json}");
    }
    if let Some(first) = results.first_error() {
        let failed = results
            .records
            .iter()
            .filter(|r| r.outcome.is_err())
            .count();
        return Err(format!(
            "{failed} of {} jobs failed; first error: {first}",
            results.records.len()
        ));
    }
    Ok(())
}

fn print_sweep_results(results: &rescq_harness::SweepResults) -> Result<(), String> {
    println!(
        "{:<20} {:<10} {:>5} {:>6} {:>8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>7}",
        "workload",
        "scheduler",
        "d",
        "comp",
        "decoder",
        "mean cy",
        "p50 cy",
        "p99 cy",
        "stall%",
        "preempt",
        "seeds"
    );
    for s in results.summaries() {
        println!(
            "{:<20} {:<10} {:>5} {:>5.0}% {:>8} {:>10.1} {:>10.1} {:>10.1} {:>7.1}% {:>8} {:>7}",
            s.job.workload,
            s.job.config.scheduler.to_string(),
            s.job.config.distance,
            s.job.config.compression * 100.0,
            s.job.decoder.to_string(),
            s.mean_cycles,
            s.p50_cycles,
            s.p99_cycles,
            s.stall_fraction * 100.0,
            s.preemptions,
            s.completed,
        );
    }
    let resumed = results.resumed_count();
    println!(
        "{} jobs in {:.2}s ({} resumed from checkpoint); cache: {}",
        results.records.len(),
        results.elapsed_secs,
        resumed,
        results.cache
    );
    Ok(())
}

/// Merges shard checkpoint files back into one CSV (and optionally JSON),
/// validating fingerprints against the spec that produced them.
fn cmd_merge_checkpoints(args: &[String]) -> Result<(), String> {
    use rescq_harness::{merge_checkpoints, SweepSpec};
    const USAGE: &str = "usage: sim merge-checkpoints <spec.toml> <out.csv> <in.ckpt...> \
                         [--json FILE] [--allow-missing]";
    // Collect positionals by position, skipping flag *values* by index (a
    // checkpoint path that happens to equal the `--json` value must not be
    // dropped).
    let mut positional: Vec<&String> = Vec::new();
    let mut skip_value = false;
    for a in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        match a.as_str() {
            "--json" => skip_value = true,
            "--allow-missing" => {}
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n{USAGE}"));
            }
            _ => positional.push(a),
        }
    }
    let json_out = flag_value(args, "--json");
    let [spec_path, out, inputs @ ..] = positional.as_slice() else {
        return Err(USAGE.into());
    };
    if inputs.is_empty() {
        return Err(USAGE.into());
    }
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = SweepSpec::parse(&text).map_err(|e| e.to_string())?;
    let input_paths: Vec<PathBuf> = inputs.iter().map(PathBuf::from).collect();
    let results = merge_checkpoints(&spec, &input_paths).map_err(|e| e.to_string())?;

    let missing = results
        .records
        .iter()
        .filter(|r| r.outcome.is_err())
        .count();
    if missing > 0 && !args.iter().any(|a| a == "--allow-missing") {
        return Err(format!(
            "{missing} of {} jobs missing from the inputs (pass --allow-missing to merge anyway)",
            results.records.len()
        ));
    }
    print_sweep_results(&results)?;
    std::fs::write(out, results.to_csv()).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "merged {} rows from {} checkpoint(s) into {out}",
        results.resumed_count(),
        input_paths.len()
    );
    if let Some(json) = json_out {
        std::fs::write(&json, results.to_json()).map_err(|e| format!("{json}: {e}"))?;
        println!("summary json written to {json}");
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(
        args,
        &[
            "--seeds",
            "--compression",
            "--distance",
            "--csv",
            "--decoder",
            "--decoder-throughput",
            "--decoder-workers",
            "--decoder-prep",
            "--priority-classes",
            "--baseline",
            "--compare",
            "--warn-pct",
            "--fail-pct",
        ],
    )?;
    if args.iter().any(|a| a == "--compare") {
        return cmd_bench_compare(args);
    }
    let name = args.first().filter(|a| !a.starts_with("--"));
    if let Some(out) = flag_value(args, "--baseline") {
        return cmd_bench_baseline(args, name, &PathBuf::from(out));
    }
    let name = name.ok_or(
        "usage: sim bench <name> [--seeds N] [--compression F] [--distance D] \
         | sim bench --baseline FILE | sim bench --compare BASE.json NEW.json",
    )?;
    let mut spec = RunSpec {
        benchmark: name.clone(),
        ..RunSpec::default()
    };
    if let Some(s) = flag_value(args, "--seeds") {
        spec.seeds = s.parse().map_err(|_| "bad --seeds")?;
    }
    if let Some(c) = flag_value(args, "--compression") {
        spec.config.compression = c.parse().map_err(|_| "bad --compression")?;
    }
    if let Some(d) = flag_value(args, "--distance") {
        spec.config.distance = d.parse().map_err(|_| "bad --distance")?;
    }
    if let Some(d) = flag_value(args, "--decoder") {
        spec.config.decoder.kind = d.parse().map_err(|e: String| e)?;
    }
    if let Some(t) = flag_value(args, "--decoder-throughput") {
        spec.config.decoder.throughput = t.parse().map_err(|_| "bad --decoder-throughput")?;
    }
    if let Some(w) = flag_value(args, "--decoder-workers") {
        spec.config.decoder.workers = w.parse().map_err(|_| "bad --decoder-workers")?;
    }
    if args.iter().any(|a| a == "--decoder-prep") {
        spec.config.decoder.decode_prep = true;
    }
    apply_priority_flag(args, &mut spec.config)?;
    let csv = flag_value(args, "--csv").map(PathBuf::from);
    for sched in SchedulerKind::ALL {
        spec.config.scheduler = sched;
        run_spec(&spec, csv.clone())?;
    }
    Ok(())
}

/// Records a schema-versioned perf baseline (`BENCH_*.json`): wall-clock
/// per run, cycles per wall-second, and the traced per-phase breakdown,
/// averaged over seeds. With no positional benchmark, the standard perf
/// suite runs: `ising_n420` (uncompressed) + `factory_n12` at 25%
/// compression, both under the RESCQ scheduler.
fn cmd_bench_baseline(
    args: &[String],
    name: Option<&String>,
    out: &std::path::Path,
) -> Result<(), String> {
    use rescq_telemetry::{PerfBaseline, PerfEntry, RingRecorder};
    use std::time::Instant;
    let seeds: u32 = match flag_value(args, "--seeds") {
        Some(s) => s.parse().map_err(|_| "bad --seeds")?,
        None => 2,
    };
    let suite: Vec<(String, f64)> = match name {
        Some(n) => {
            let comp = match flag_value(args, "--compression") {
                Some(c) => c.parse().map_err(|_| "bad --compression")?,
                None => 0.0,
            };
            vec![(n.clone(), comp)]
        }
        None => vec![("ising_n420".into(), 0.0), ("factory_n12".into(), 0.25)],
    };
    let mut baseline = PerfBaseline::new();
    for (bench, compression) in suite {
        let circuit = load_circuit(&bench)?;
        let mut config = rescq_sim::SimConfig::builder()
            .compression(compression)
            .build();
        let artifacts = rescq_sim::SimArtifacts::prepare(std::sync::Arc::new(circuit), &config)
            .map_err(|e| e.to_string())?;
        let mut wall_ns = 0u64;
        let mut cycles = 0.0f64;
        let mut phase_ns = [0u64; 4];
        for s in 0..seeds {
            config.seed = 1 + s as u64;
            // A small ring suffices: the phase histograms and totals
            // accumulate outside the ring, and the events themselves are
            // discarded here.
            let recorder = RingRecorder::with_capacity(1024);
            let t0 = Instant::now();
            let report = rescq_sim::simulate_prepared_traced(&artifacts, &config, Some(&recorder))
                .map_err(|e| e.to_string())?;
            wall_ns += t0.elapsed().as_nanos() as u64;
            cycles += report.total_cycles();
            for (acc, ns) in phase_ns.iter_mut().zip(report.phase_nanos) {
                *acc += ns;
            }
        }
        let n = seeds.max(1) as f64;
        let wall_ms = wall_ns as f64 / 1e6 / n;
        let total_cycles = cycles / n;
        let entry = PerfEntry {
            name: bench.clone(),
            scheduler: "rescq".into(),
            seeds,
            total_cycles,
            wall_ms,
            cycles_per_sec: if wall_ms > 0.0 {
                total_cycles / (wall_ms / 1000.0)
            } else {
                0.0
            },
            phase_ms: phase_ns.map(|ns| ns as f64 / 1e6 / n),
        };
        println!(
            "bench {bench}: {:.1} ms/run, {:.0} cycles, {:.0} cycles/s",
            entry.wall_ms, entry.total_cycles, entry.cycles_per_sec
        );
        baseline.entries.push(entry);
    }
    std::fs::write(out, baseline.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("perf baseline written to {}", out.display());
    Ok(())
}

/// Diffs two recorded perf baselines; exits non-zero when any entry is
/// slower than the fail threshold. CI's `perf-baseline` job drives this.
fn cmd_bench_compare(args: &[String]) -> Result<(), String> {
    use rescq_telemetry::{compare, delta_table, DeltaLevel, PerfBaseline};
    const USAGE: &str =
        "usage: sim bench --compare BASE.json NEW.json [--warn-pct P] [--fail-pct P]";
    let i = args
        .iter()
        .position(|a| a == "--compare")
        .expect("caller checked");
    let (Some(base_path), Some(new_path)) = (args.get(i + 1), args.get(i + 2)) else {
        return Err(USAGE.into());
    };
    let warn_pct: f64 = match flag_value(args, "--warn-pct") {
        Some(p) => p.parse().map_err(|_| "bad --warn-pct")?,
        None => 10.0,
    };
    let fail_pct: f64 = match flag_value(args, "--fail-pct") {
        Some(p) => p.parse().map_err(|_| "bad --fail-pct")?,
        None => 25.0,
    };
    let load = |p: &String| -> Result<PerfBaseline, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        PerfBaseline::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let base = load(base_path)?;
    let new = load(new_path)?;
    let deltas = compare(&base, &new, warn_pct, fail_pct);
    if deltas.is_empty() {
        return Err("no matching entries between the two baselines".into());
    }
    print!("{}", delta_table(&deltas));
    if deltas.iter().any(|d| d.level == DeltaLevel::Fail) {
        return Err(format!(
            "perf regression above the {fail_pct:.0}% fail threshold"
        ));
    }
    Ok(())
}

fn cmd_list() -> Result<(), String> {
    println!(
        "{:<28} {:>6} {:>8} {:>8} {:>10}",
        "benchmark", "qubits", "#Rz", "#CNOT", "Rz/CNOT"
    );
    for b in rescq_workloads::ALL_BENCHMARKS {
        println!(
            "{:<28} {:>6} {:>8} {:>8} {:>10.2}",
            b.name,
            b.qubits,
            b.paper_rz,
            b.paper_cnot,
            b.rz_per_cnot()
        );
    }
    Ok(())
}

fn cmd_table3() -> Result<(), String> {
    for r in experiments::table3() {
        let m = if r.paper == r.generated {
            "exact"
        } else {
            "approx"
        };
        println!(
            "{:<28} paper=({}, {}) generated=({}, {}) [{m}]",
            r.name, r.paper.0, r.paper.1, r.generated.0, r.generated.1
        );
    }
    Ok(())
}

fn cmd_fig(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(args, &["--full"])?;
    let which = args.first().ok_or("usage: sim fig <N> [--full]")?;
    let scale = if args.iter().any(|a| a == "--full") {
        ExperimentScale::full()
    } else {
        ExperimentScale::reduced()
    };
    match which.as_str() {
        "3" => {
            let lers: Vec<f64> = (4..=12).map(|e| 10f64.powi(-e)).collect();
            for row in rescq_rus::fig3_series(0.9, &lers) {
                println!(
                    "ler={:.0e} rz={} t={}",
                    row.logical_error_rate, row.rz_rotations, row.t_rotations
                );
            }
        }
        "5" => {
            for d in experiments::fig5(&scale).map_err(|e| e.to_string())? {
                println!(
                    "{}: cnot mean {:.2} (≤2cy {:.0}%), rz mean {:.2}",
                    d.scheduler,
                    d.cnot.mean(),
                    d.cnot.fraction_at_most(2) * 100.0,
                    d.rz.mean()
                );
            }
        }
        "10" => {
            let (rows, gm) = experiments::fig10(&scale).map_err(|e| e.to_string())?;
            for r in &rows {
                println!(
                    "{}: greedy={:.0} autobraid={:.0} rescq*={:.0} (k={}) speedup={:.2}x",
                    r.name,
                    r.mean_cycles[0],
                    r.mean_cycles[1],
                    r.mean_cycles[2],
                    r.best_k,
                    r.speedup()
                );
            }
            println!("geomean speedup: {gm:.2}x");
        }
        "11" => print_sensitivity(experiments::fig11(&scale).map_err(|e| e.to_string())?),
        "12" => print_sensitivity(experiments::fig12(&scale).map_err(|e| e.to_string())?),
        "13" => print_sensitivity(experiments::fig13(&scale).map_err(|e| e.to_string())?),
        "14" => print_sensitivity(experiments::fig14(&scale).map_err(|e| e.to_string())?),
        "15" => {
            for comp in experiments::COMPRESSIONS {
                let mut l = rescq_lattice::Layout::new(rescq_lattice::LayoutKind::Star2x2, 8)
                    .map_err(|e| e.to_string())?;
                let achieved = l.compress(comp, 42);
                println!(
                    "-- {:.0}% requested, {:.0}% achieved --",
                    comp * 100.0,
                    achieved * 100.0
                );
                println!("{}", l.render_ascii());
            }
        }
        "16" => {
            for r in experiments::fig16() {
                println!(
                    "d={} p={:.0e}: E[cycles]={:.3} E[attempts]={:.4}",
                    r.d, r.p, r.expected_cycles, r.expected_attempts
                );
            }
        }
        "decoder" => {
            let (rows, monotone) = experiments::decoder_sweep(&scale).map_err(|e| e.to_string())?;
            for r in &rows {
                println!(
                    "{:<14} {:<10} tp={:<6} {:>8.1} cycles  stall {:>7.1}cy  backlog≤{}",
                    r.name,
                    r.decoder,
                    r.throughput,
                    r.mean_cycles,
                    r.mean_stall_cycles,
                    r.peak_backlog
                );
            }
            println!(
                "cycles monotonically non-decreasing as throughput drops: {}",
                if monotone { "yes" } else { "NO" }
            );
        }
        "a2" => {
            let a2 = experiments::appendix_a2();
            println!(
                "RUS {:.1} cycles vs Clifford+T {}–{} cycles ⇒ {:.0}×–{:.0}×",
                a2.rus_cycles, a2.t_range.0, a2.t_range.1, a2.overhead.0, a2.overhead.1
            );
        }
        other => return Err(format!("unknown figure `{other}`")),
    }
    Ok(())
}

fn print_sensitivity(points: Vec<experiments::SensitivityPoint>) {
    for p in points {
        println!(
            "{} {} x={:.2}: {:.0} cycles (idle {:.0}%)",
            p.name,
            p.scheduler,
            p.x,
            p.mean_cycles,
            p.idle_fraction * 100.0
        );
    }
}
