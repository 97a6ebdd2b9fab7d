//! Cross-scheduler engine tests: determinism, baseline-vs-RESCQ ordering on
//! rotation-heavy programs, compression robustness, and failure injection.

use rescq_circuit::{Angle, Circuit};
use rescq_core::{KPolicy, SchedulerKind};
use rescq_decoder::DecoderConfig;
use rescq_rus::PrepCalibration;
use rescq_sim::{simulate, SimConfig};

/// A rotation-heavy program: alternating single-qubit rotation layers and a
/// CNOT chain, like the dnn benchmark family.
fn rz_heavy(num_qubits: u32, layers: u32) -> Circuit {
    let mut c = Circuit::new(num_qubits);
    for l in 0..layers {
        for q in 0..num_qubits {
            c.rz(q, Angle::radians(0.1 + 0.01 * (l * num_qubits + q) as f64));
        }
        for q in 0..num_qubits.saturating_sub(1) {
            c.cnot(q, q + 1);
        }
    }
    c
}

fn config(s: SchedulerKind, seed: u64) -> SimConfig {
    SimConfig::builder().scheduler(s).seed(seed).build()
}

#[test]
fn deterministic_per_seed() {
    let c = rz_heavy(6, 3);
    for s in SchedulerKind::ALL {
        let a = simulate(&c, &config(s, 11)).unwrap();
        let b = simulate(&c, &config(s, 11)).unwrap();
        assert_eq!(a, b, "{s} not deterministic");
        let other = simulate(&c, &config(s, 12)).unwrap();
        // Different seeds draw different RUS outcomes; the makespan almost
        // surely differs on an Rz-heavy circuit.
        assert_eq!(other.gates_executed, a.gates_executed);
    }
}

#[test]
fn all_gates_execute() {
    let c = rz_heavy(5, 4);
    for s in SchedulerKind::ALL {
        let r = simulate(&c, &config(s, 3)).unwrap();
        assert_eq!(r.gates_executed, c.len(), "{s} lost gates");
        assert!(r.total_cycles() > 0.0);
    }
}

#[test]
fn rescq_beats_baselines_on_rz_heavy_workload() {
    let c = rz_heavy(9, 4);
    let mean = |s: SchedulerKind| -> f64 {
        (0..5)
            .map(|i| simulate(&c, &config(s, 40 + i)).unwrap().total_cycles())
            .sum::<f64>()
            / 5.0
    };
    let rescq = mean(SchedulerKind::Rescq);
    let greedy = mean(SchedulerKind::Greedy);
    let autobraid = mean(SchedulerKind::Autobraid);
    assert!(
        rescq < greedy,
        "RESCQ ({rescq:.0} cycles) should beat greedy ({greedy:.0})"
    );
    assert!(
        rescq < autobraid,
        "RESCQ ({rescq:.0} cycles) should beat AutoBraid ({autobraid:.0})"
    );
}

#[test]
fn clifford_only_program_is_scheduler_insensitive() {
    // §5.1: programs without continuous rotations "behave identically in the
    // static and realtime cases" — we allow a small constant factor for the
    // layer barrier but no RUS-driven gap.
    let mut c = Circuit::new(6);
    for q in 0..6u32 {
        c.h(q);
    }
    for q in 0..5u32 {
        c.cnot(q, q + 1);
    }
    let rescq = simulate(&c, &config(SchedulerKind::Rescq, 5)).unwrap();
    let greedy = simulate(&c, &config(SchedulerKind::Greedy, 5)).unwrap();
    assert!(rescq.total_cycles() <= greedy.total_cycles());
    assert!(greedy.total_cycles() <= rescq.total_cycles() * 2.0);
    assert_eq!(rescq.counters.injections, 0);
    assert_eq!(greedy.counters.injections, 0);
}

#[test]
fn compressed_grid_still_completes() {
    let c = rz_heavy(8, 3);
    for s in SchedulerKind::ALL {
        for compression in [0.25, 0.5, 0.75, 1.0] {
            let cfg = SimConfig::builder()
                .scheduler(s)
                .compression(compression)
                .seed(9)
                .build();
            let r = simulate(&c, &cfg).expect("compressed run completes");
            assert_eq!(r.gates_executed, c.len(), "{s} at {compression}");
            assert!(r.achieved_compression > 0.0);
        }
    }
}

#[test]
fn rescq_holds_up_fully_compressed() {
    // On *this* synthetic workload — a fully serialized CNOT chain whose
    // dependency structure already hands greedy all available parallelism —
    // the two schedulers share the critical path, so near-parity is the
    // correct expectation and this test pins it against regressions (the
    // pre-ledger engine briefly hit 0.85× here). The paper's actual
    // constrained-fabric claim (1.65× on the benchmark suite, Fig 9) is
    // asserted as a strict ≥1.15× win in
    // `tests/paper_claims.rs::rescq_wins_on_compressed_fabrics`.
    let c = rz_heavy(12, 5);
    let mean = |s: SchedulerKind| -> f64 {
        (0..4)
            .map(|i| {
                let cfg = SimConfig::builder()
                    .scheduler(s)
                    .compression(1.0)
                    .seed(60 + i)
                    .build();
                simulate(&c, &cfg).unwrap().total_cycles()
            })
            .sum::<f64>()
            / 4.0
    };
    let rescq = mean(SchedulerKind::Rescq);
    let greedy = mean(SchedulerKind::Greedy);
    assert!(
        rescq <= greedy * 1.05,
        "RESCQ ({rescq:.0}) fell behind greedy ({greedy:.0}) at 100% compression"
    );
}

#[test]
fn uncompressed_runs_bit_identical_to_pre_ledger_engine() {
    // The reservation-ledger refactor rewrote every queue access in the
    // realtime engine and re-enabled eager correction preparation on
    // constrained fabrics. Uncompressed fabrics are unconstrained, so their
    // schedules — and therefore their RNG streams and exact round counts —
    // must be bit-identical to the pre-refactor engine. Golden values
    // captured from the PR 2 tree.
    for (qubits, layers, seed, rounds) in [
        (9u32, 4u32, 11u64, 411u64),
        (9, 4, 40, 421),
        (9, 4, 41, 449),
        (6, 3, 11, 306),
        (6, 3, 40, 284),
        (6, 3, 41, 248),
    ] {
        let c = rz_heavy(qubits, layers);
        let r = simulate(&c, &config(SchedulerKind::Rescq, seed)).unwrap();
        assert_eq!(
            r.total_rounds, rounds,
            "rz_heavy({qubits},{layers}) seed={seed} diverged from the pre-ledger engine"
        );
    }
}

#[test]
fn golden_schedules_replay_identically() {
    // The golden rounds pinned in
    // `uncompressed_runs_bit_identical_to_pre_ledger_engine`, and a second
    // run of the same seed, must give the same full report.
    for (qubits, layers, seed, rounds) in [
        (9u32, 4u32, 11u64, 411u64),
        (6, 3, 40, 284),
        (9, 4, 41, 449),
    ] {
        let c = rz_heavy(qubits, layers);
        let reference = simulate(&c, &config(SchedulerKind::Rescq, seed)).unwrap();
        assert_eq!(reference.total_rounds, rounds, "golden moved");
        assert_eq!(reference.engine_threads, 1);
        let replay = simulate(&c, &config(SchedulerKind::Rescq, seed)).unwrap();
        assert_eq!(
            replay, reference,
            "rz_heavy({qubits},{layers}) seed={seed} replay diverged"
        );
    }
    // Compressed fabrics drive the preemption machinery; identical there too.
    let c = rz_heavy(8, 3);
    let cfg = SimConfig::builder().compression(1.0).seed(3).build();
    let reference = simulate(&c, &cfg).unwrap();
    assert_eq!(
        simulate(&c, &cfg).unwrap(),
        reference,
        "compressed run replay diverged"
    );
}

#[test]
fn constrained_fabric_counters_are_wired() {
    // The ledger's counters flow into the report: compressed RESCQ runs
    // populate the wait-graph peak, and the static baseline reports its
    // (preemption-free) ledger accounting too.
    let c = rz_heavy(8, 3);
    let cfg = SimConfig::builder().compression(1.0).seed(3).build();
    let r = simulate(&c, &cfg).unwrap();
    assert!(r.counters.waitgraph_peak_edges > 0);
    let mut gcfg = cfg.clone();
    gcfg.scheduler = SchedulerKind::Greedy;
    let g = simulate(&c, &gcfg).unwrap();
    assert_eq!(g.counters.preemptions, 0, "static engines never preempt");
    assert_eq!(g.counters.preemptions_rejected_cycle, 0);
}

#[test]
fn dyadic_ladders_need_fewer_injections() {
    // T-gate ladders terminate after one injection; generic angles need ~2.
    let mut dyadic = Circuit::new(4);
    let mut generic = Circuit::new(4);
    for q in 0..4u32 {
        for _ in 0..8 {
            dyadic.t(q);
            dyadic.h(q); // prevent merging semantics confusion; H is cheap
            generic.rz(q, Angle::radians(0.377));
            generic.h(q);
        }
    }
    let cfg = config(SchedulerKind::Rescq, 23);
    let rd = simulate(&dyadic, &cfg).unwrap();
    let rg = simulate(&generic, &cfg).unwrap();
    let per_rz_d = rd.counters.injections as f64 / 32.0;
    let per_rz_g = rg.counters.injections as f64 / 32.0;
    assert!(per_rz_d <= 1.05, "T ladder used {per_rz_d} injections/gate");
    assert!(
        per_rz_g > 1.5 && per_rz_g < 2.6,
        "generic ladder used {per_rz_g} injections/gate (Eq. 1 says ≈2)"
    );
}

#[test]
fn harsh_error_rate_failure_injection() {
    // Force long preparation streaks: high p, small d. The engines must
    // still terminate with every gate executed.
    let c = rz_heavy(4, 2);
    for s in SchedulerKind::ALL {
        let cfg = SimConfig::builder()
            .scheduler(s)
            .distance(3)
            .physical_error_rate(5e-3)
            .calibration(PrepCalibration {
                c1: 40.0,
                c2: 6.0,
                rounds_round1: 5,
                rounds_round2: 5,
            })
            .seed(2)
            .build();
        let r = simulate(&c, &cfg).unwrap();
        assert_eq!(r.gates_executed, c.len());
        assert!(r.counters.preps_started >= r.counters.preps_succeeded);
    }
}

#[test]
fn k_policy_variants_run() {
    let c = rz_heavy(6, 3);
    for k in [
        KPolicy::Fixed(25),
        KPolicy::Fixed(200),
        KPolicy::Dynamic { max_concurrent: 2 },
    ] {
        let cfg = SimConfig::builder().k_policy(k).seed(4).build();
        let r = simulate(&c, &cfg).unwrap();
        assert!(r.k_used >= 1);
        assert!(r.tau_used >= 1);
        assert_eq!(r.gates_executed, c.len());
    }
}

#[test]
fn single_qubit_program() {
    let mut c = Circuit::new(1);
    c.rz(0, Angle::radians(1.0)).h(0).rz(0, Angle::radians(0.5));
    for s in SchedulerKind::ALL {
        let r = simulate(&c, &config(s, 8)).unwrap();
        assert_eq!(r.gates_executed, 3, "{s}");
    }
}

#[test]
fn prep_decoding_flag_adds_windows_and_never_speeds_up() {
    // ROADMAP follow-on: |mθ⟩ preparation verification is itself a decoded
    // measurement. With `decode_prep` every successful preparation submits a
    // window; under a slow decoder the makespan cannot shrink, and with the
    // flag off behaviour is bit-identical to the decoder-less baseline.
    let c = rz_heavy(5, 3);
    for s in SchedulerKind::ALL {
        let base = SimConfig::builder()
            .scheduler(s)
            .decoder(DecoderConfig::fixed(0.5))
            .seed(17)
            .build();
        let mut with_prep = base.clone();
        with_prep.decoder = with_prep.decoder.with_prep_decoding();
        let off = simulate(&c, &base).unwrap();
        let on = simulate(&c, &with_prep).unwrap();
        assert!(
            on.counters.decode_windows > off.counters.decode_windows,
            "{s}: prep windows must add decode traffic"
        );
        assert!(
            on.total_cycles() >= off.total_cycles(),
            "{s}: decoding preps cannot make the run faster ({} < {})",
            on.total_cycles(),
            off.total_cycles()
        );
        // Flag off stays bit-identical to a decoder-config round-trip.
        assert_eq!(off, simulate(&c, &base).unwrap());
    }
}

#[test]
fn prep_decoding_with_ideal_decoder_is_cycle_neutral() {
    // An ideal decoder answers in-round: enabling prep verification adds
    // windows to the accounting but cannot move any event.
    let c = rz_heavy(4, 2);
    let base = SimConfig::builder().seed(5).build();
    let mut with_prep = base.clone();
    with_prep.decoder = with_prep.decoder.with_prep_decoding();
    let off = simulate(&c, &base).unwrap();
    let on = simulate(&c, &with_prep).unwrap();
    assert_eq!(off.total_rounds, on.total_rounds);
    assert_eq!(off.counters.injections, on.counters.injections);
    assert!(on.counters.decode_windows > off.counters.decode_windows);
}

#[test]
fn idle_fraction_in_unit_range() {
    let c = rz_heavy(6, 3);
    for s in SchedulerKind::ALL {
        let r = simulate(&c, &config(s, 31)).unwrap();
        let idle = r.idle_fraction();
        assert!((0.0..=1.0).contains(&idle), "{s}: idle={idle}");
        assert!(idle > 0.0, "some idleness is inevitable");
    }
}
