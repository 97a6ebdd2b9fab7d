//! Cross-crate integration: Table 3 generation → mapping → scheduling →
//! simulation for every scheduler, with determinism and report sanity.

use rescq_repro::core::SchedulerKind;
use rescq_repro::sim::{simulate, SimConfig};

const SMALL_BENCHMARKS: &[&str] = &["VQE_n13", "wstate_n27", "qft_n18", "ising_n34"];

#[test]
fn every_scheduler_completes_every_small_benchmark() {
    for name in SMALL_BENCHMARKS {
        let circuit = rescq_repro::workloads::generate(name, 1).unwrap();
        for scheduler in SchedulerKind::ALL {
            let config = SimConfig::builder().scheduler(scheduler).seed(3).build();
            let report =
                simulate(&circuit, &config).unwrap_or_else(|e| panic!("{name}/{scheduler}: {e}"));
            assert_eq!(report.gates_executed, circuit.len(), "{name}/{scheduler}");
            assert!(report.total_cycles() > 0.0);
            assert!((0.0..=1.0).contains(&report.idle_fraction()));
        }
    }
}

#[test]
fn simulation_is_deterministic_across_repeats() {
    let circuit = rescq_repro::workloads::generate("gcm_n13", 1).unwrap();
    for scheduler in SchedulerKind::ALL {
        let config = SimConfig::builder().scheduler(scheduler).seed(11).build();
        let a = simulate(&circuit, &config).unwrap();
        let b = simulate(&circuit, &config).unwrap();
        assert_eq!(a, b, "{scheduler} is not deterministic");
    }
}

#[test]
fn uncompressed_benchmark_run_matches_pre_ledger_golden() {
    // Cross-crate pin of the reservation-ledger refactor's bit-identity
    // guarantee on an unconstrained fabric (golden from the PR 2 tree).
    let circuit = rescq_repro::workloads::generate("wstate_n27", 1).unwrap();
    let config = SimConfig::builder().seed(7).build();
    let report = simulate(&circuit, &config).unwrap();
    assert_eq!(report.total_rounds, 2391);
}

/// A constrained-fabric golden: `(workload, compression, seed)` and the
/// pinned `(total_rounds, preemptions, preemptions_rejected_cycle,
/// cnot_replans, path-cache lookups)` of its RESCQ run.
type ConstrainedGolden = (&'static str, f64, u64, [u64; 5]);

/// Runs each golden case and compares the schedule and the start-phase
/// decision counters. The counters pin how often the engine preempted,
/// was refused by the cycle check, re-planned and consulted the path
/// cache — any change to the start phase that skips work must leave all
/// of them (and the makespan) exactly where they were.
fn assert_constrained_goldens(cases: &[ConstrainedGolden]) {
    for &(name, compression, seed, want) in cases {
        let circuit = rescq_repro::workloads::generate(name, 1).unwrap();
        let config = SimConfig::builder()
            .compression(compression)
            .seed(seed)
            .build();
        let r = simulate(&circuit, &config).unwrap();
        let c = &r.counters;
        let got = [
            r.total_rounds,
            c.preemptions,
            c.preemptions_rejected_cycle,
            c.cnot_replans,
            c.path_cache_hits + c.path_cache_misses,
        ];
        assert_eq!(
            got, want,
            "{name}@{compression} seed {seed}: [rounds, preemptions, rejected, replans, lookups]"
        );
    }
}

#[test]
fn constrained_fabric_runs_match_pre_incremental_golden() {
    // Compressed fabrics are where the start phase preempts, is refused by
    // the cycle check and re-plans stalled routes. Goldens recorded before
    // the start phase became incremental (touch-epoch-gated preemption
    // retries, on-demand route-cost estimates).
    assert_constrained_goldens(&[
        ("qft_n18", 0.5, 1, [4939, 1, 0, 15, 3589]),
        ("qft_n18", 0.5, 2, [4868, 0, 44, 11, 3294]),
        ("qft_n18", 0.5, 3, [5247, 0, 0, 12, 3906]),
        ("gcm_n13", 0.75, 1, [23098, 0, 0, 5, 4634]),
        ("gcm_n13", 0.75, 2, [23418, 1, 0, 11, 4826]),
        ("gcm_n13", 0.75, 3, [23127, 1, 0, 13, 4712]),
    ]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; runs in the release constrained-fabric gate"
)]
fn constrained_ising_n420_matches_pre_incremental_golden() {
    // The benchmark's constrained workload (ising_n420 at 50% compression):
    // thousands of preemption attempts, hundreds to over a thousand of them
    // cycle-rejected, per run.
    assert_constrained_goldens(&[
        ("ising_n420", 0.5, 1, [2824, 8, 1218, 96, 97_748]),
        ("ising_n420", 0.5, 2, [3291, 10, 400, 86, 112_746]),
        ("ising_n420", 0.5, 3, [2628, 9, 16, 82, 90_579]),
    ]);
}

#[test]
fn sharded_engine_matches_the_golden_on_every_thread_count() {
    // The engine's determinism contract pinned on a paper workload: the
    // historical golden round count, and a same-seed replay reproducing the
    // full report. (The name predates the single-threaded engine; the
    // 1-thread golden is the one that survived.)
    let circuit = rescq_repro::workloads::generate("wstate_n27", 1).unwrap();
    let config = SimConfig::builder().seed(7).build();
    let reference = simulate(&circuit, &config).unwrap();
    assert_eq!(reference.total_rounds, 2391, "golden moved");
    let replay = simulate(&circuit, &config).unwrap();
    assert_eq!(replay, reference, "same-seed replay diverged");
}

#[test]
fn stall_breaker_retargets_lost_current_angle_states() {
    // Regression: on factory_n12 at 25% compression, seed 8, the stall
    // breaker used to discard a task's only |mθ⟩ holder *after* its sibling
    // queue entries had been rewritten to the |m2θ⟩ correction state —
    // nothing retargeted them back, so every restarted preparation
    // reproduced the stale correction angle and the run livelocked through
    // the stall breaker until the watchdog fired. The breaker now retargets
    // surviving entries to the ladder's current angle whenever it discards
    // holders. (Class-blind run: the priority lattice is not involved.)
    let circuit = rescq_repro::workloads::generate("factory_n12", 1).unwrap();
    let config = SimConfig::builder()
        .compression(0.25)
        .seed(8)
        .max_cycles(300_000)
        .build();
    let report = simulate(&circuit, &config).expect("run must terminate");
    assert_eq!(report.gates_executed, circuit.len());
}

#[test]
fn rotation_counters_track_eq1() {
    // Generic angles average ≈2 injections; the engine's counters must
    // reflect the RUS ladder (Eq. 1) within Monte-Carlo noise.
    let circuit = rescq_repro::workloads::generate("gcm_n13", 1).unwrap();
    let rz = circuit.stats().rz as f64;
    let config = SimConfig::builder().seed(5).build();
    let report = simulate(&circuit, &config).unwrap();
    let per_rz = report.counters.injections as f64 / rz;
    assert!(
        (1.7..2.3).contains(&per_rz),
        "observed {per_rz:.2} injections per rotation"
    );
    // Roughly half of injections fail.
    let fail = report.counters.injection_failures as f64 / report.counters.injections as f64;
    assert!((0.4..0.6).contains(&fail), "failure rate {fail:.2}");
}

#[test]
fn artifact_round_trip_through_text_format() {
    let circuit = rescq_repro::workloads::generate("wstate_n27", 1).unwrap();
    let text = rescq_repro::circuit::write_circuit(&circuit);
    let parsed = rescq_repro::circuit::parse_circuit(&text, Some(27)).unwrap();
    assert_eq!(parsed.gates().len(), circuit.gates().len());
    let a = simulate(&circuit, &SimConfig::default()).unwrap();
    let b = simulate(&parsed, &SimConfig::default()).unwrap();
    assert_eq!(a.total_rounds, b.total_rounds);
}

#[test]
fn distance_sweep_reduces_cycles() {
    // §5.2.1: execution time improves as d increases (more measurement
    // rounds per cycle ⇒ faster RUS attempts in cycle units).
    let circuit = rescq_repro::workloads::generate("VQE_n13", 1).unwrap();
    let mut last = f64::INFINITY;
    for d in [3u32, 7, 13] {
        let config = SimConfig::builder().distance(d).seed(9).build();
        let mean: f64 = (0..5)
            .map(|i| {
                let mut c = config.clone();
                c.seed = 9 + i;
                simulate(&circuit, &c).unwrap().total_cycles()
            })
            .sum::<f64>()
            / 5.0;
        assert!(mean < last, "d={d}: {mean:.0} should be below {last:.0}");
        last = mean;
    }
}
