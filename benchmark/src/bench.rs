//! The state of one benchmark invocation: its arguments, the correctness
//! tally, the metrics measured so far and the spans; and the printing of
//! the result.

use crate::spans::Spans;
use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("gates_per_s", "gates/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("sim_cycles", "cycles"),
    ("speedup_vs_greedy", "x"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not exercise reports 0. Must match `per_layer`
/// in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("circuit.dag_ms", "ms"),
    ("lattice.layout_ms", "ms"),
    ("lattice.graph_ms", "ms"),
    ("sim.traced_run_ms", "ms"),
    ("sim.schedule_ms", "ms"),
    ("sim.start_ms", "ms"),
    ("sim.propose_ms", "ms"),
    ("sim.commit_ms", "ms"),
    ("sim.other_ms", "ms"),
    ("sim.phase_coverage", "ratio"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.greedy_run_ms_p50", "ms"),
    ("sim.stall_ancilla_cycles", "cycles"),
    ("sim.stall_route_cycles", "cycles"),
    ("sim.stall_decoder_cycles", "cycles"),
    ("core.path_cache_lookups", "count"),
    ("core.path_cache_hit_ratio", "ratio"),
    ("core.cnot_replans", "count"),
    ("core.preemptions_rejected", "count"),
    ("core.preemption_accept_ratio", "ratio"),
    ("core.mst_computations", "count"),
    ("core.waitgraph_peak_edges", "count"),
    ("rus.prep_success_ratio", "ratio"),
    ("rus.prep_waste_ratio", "ratio"),
    ("rus.injection_failure_ratio", "ratio"),
    ("decoder.windows", "count"),
    ("decoder.defects", "count"),
    ("decoder.growth_steps", "count"),
    ("decoder.failures", "count"),
    ("decoder.peak_backlog", "count"),
    ("decoder.stall_rounds", "count"),
    ("decoder.ns_per_window.d3.p1e-3", "ns"),
    ("decoder.ns_per_window.d3.p1e-2", "ns"),
    ("decoder.ns_per_window.d5.p1e-3", "ns"),
    ("decoder.ns_per_window.d5.p1e-2", "ns"),
    ("decoder.ns_per_window.d7.p1e-3", "ns"),
    ("decoder.ns_per_window.d7.p1e-2", "ns"),
    ("harness.run_sweep_ms", "ms"),
    ("harness.to_csv_ms", "ms"),
    ("harness.jobs", "count"),
    ("telemetry.trace_overhead_pct", "%"),
    ("telemetry.events", "count"),
];

/// One invocation's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (see `BENCHMARK.json`).
    pub workload: String,
    /// Workload seed; every input and run seed derives from it.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) pass.
    pub trace: bool,
}

/// The `i`-th seed derived from the workload seed (SplitMix64 finalizer),
/// so the program only ever sees generated inputs.
pub fn derive_seed(workload_seed: u64, i: u64) -> u64 {
    let mut z = workload_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The state of one benchmark invocation.
#[derive(Debug)]
pub struct Bench {
    /// The invocation's arguments.
    pub args: Args,
    /// Benchmark-side spans (recording only on the traced pass).
    pub spans: Spans,
    /// Engine worker counts the RESCQ reports resolved to.
    pub engine_threads: BTreeSet<u32>,
    /// Sweep worker count, when the workload runs the harness.
    pub harness_workers: Option<usize>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, (f64, usize)>,
    notes: Vec<String>,
}

impl Bench {
    /// A fresh invocation.
    pub fn new(args: Args) -> Self {
        let spans = if args.trace {
            Spans::enabled()
        } else {
            Spans::disabled()
        };
        Bench {
            args,
            spans,
            engine_threads: BTreeSet::new(),
            harness_workers: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one attempted operation; it failed if any problem is listed.
    pub fn settle(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Records metric `name` (which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`]) with the number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.metrics.insert(name, (value, samples));
    }

    /// Adds a line to the printed notes.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the result, writes the spans and returns the exit code.
    pub fn finish(mut self) -> ExitCode {
        let registry = if self.args.trace {
            PER_LAYER
        } else {
            match peak_rss_mib() {
                Some(mib) => self.set("peak_rss_mb", mib, 1),
                None => self.settle(vec!["peak RSS unreadable (/proc/self/status)".into()]),
            }
            // Placeholder until every check below has been counted.
            self.set("ok_frac", 1.0, 0);
            END_TO_END
        };
        for (name, _) in registry {
            if !self.metrics.contains_key(name) && !self.args.trace {
                self.settle(vec![format!("end-to-end metric {name} was not measured")]);
            }
            if !self.metrics.get(name).is_none_or(|(v, _)| v.is_finite()) {
                self.settle(vec![format!("metric {name} is not a finite number")]);
            }
            let entry = self.metrics.entry(name).or_insert((0.0, 0));
            if !entry.0.is_finite() {
                *entry = (0.0, 0);
            }
        }
        if self.attempted == 0 {
            self.settle(vec!["nothing was attempted".into()]);
        }
        if !self.args.trace {
            let ok = 1.0 - stats::ratio(self.failed as f64, self.attempted as f64);
            self.set("ok_frac", ok, self.attempted as usize);
        }

        let conditions = self.conditions();
        println!("# rescq benchmark");
        for (k, v) in &conditions {
            println!("#   {k} = {v}");
        }
        for line in &self.notes {
            println!("# {line}");
        }
        println!(
            "# failed_frac = {} ({} of {} checked operations failed)",
            stats::ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for p in self.problems.iter().take(20) {
            println!("# FAILED: {p}");
        }
        println!("# {:<34} {:>16} {:<8} samples", "metric", "value", "unit");
        for (name, unit) in registry {
            let (value, samples) = self.metrics[name];
            let shown = if samples == 0 && self.args.trace {
                "  (layer not exercised by this workload)".to_string()
            } else {
                format!("  {samples}")
            };
            println!("# {name:<34} {value:>16.4} {unit:<8}{shown}");
        }
        if let Err(e) = self.write_spans(&conditions, registry) {
            eprintln!("warning: could not write the span file: {e}");
        }

        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in registry.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = self.metrics[name].0;
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
        if self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    /// The run conditions printed and stored with every result.
    fn conditions(&self) -> Vec<(&'static str, String)> {
        let threads = if self.engine_threads.is_empty() {
            "-".to_string()
        } else {
            let v: Vec<String> = self.engine_threads.iter().map(u32::to_string).collect();
            v.join(",")
        };
        vec![
            ("workload", self.args.workload.clone()),
            ("workload_seed", self.args.seed.to_string()),
            ("seconds", self.args.seconds.as_secs_f64().to_string()),
            ("trace", u8::from(self.args.trace).to_string()),
            (
                "available_parallelism",
                std::thread::available_parallelism().map_or("unknown".into(), |n| n.to_string()),
            ),
            ("engine_threads", threads),
            (
                "harness_workers",
                self.harness_workers.map_or("-".into(), |n| n.to_string()),
            ),
            ("rustc", env!("BENCH_RUSTC_VERSION").to_string()),
            ("git_commit", git_commit()),
        ]
    }

    /// Writes conditions, metrics and every span to
    /// `out/<workload>-seed<seed>-trace<0|1>.json` beside this package.
    fn write_spans(
        &self,
        conditions: &[(&str, String)],
        registry: &[(&str, &str)],
    ) -> std::io::Result<()> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let mut doc = String::from("{\"conditions\": {");
        for (i, (k, v)) in conditions.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(doc, "{sep}\"{k}\": \"{}\"", v.replace('"', "'"));
        }
        doc.push_str("},\n\"metrics\": {");
        for (i, (name, unit)) in registry.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let (value, samples) = self.metrics[name];
            let _ = write!(
                doc,
                "{sep}\n\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"samples\": {samples}}}"
            );
        }
        let _ = write!(doc, "}},\n\"spans\": {}}}\n", self.spans.to_json());
        let file = dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.args.workload,
            self.args.seed,
            u8::from(self.args.trace)
        ));
        std::fs::write(file, doc)
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registries above and `BENCHMARK.json` must name the same metrics
    /// with the same units.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = doc.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
