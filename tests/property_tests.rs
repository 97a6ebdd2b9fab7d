//! Property-based tests spanning crates: parser round-trips, DAG ordering,
//! compression safety, engine determinism on random circuits, decode-backlog
//! conservation, and ideal-decoder equivalence.
//!
//! The container builds offline, so instead of `proptest` these use a small
//! seeded-case harness: every property runs against `CASES` randomly
//! generated inputs drawn from a fixed-seed ChaCha8 stream, making failures
//! reproducible by case index.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rescq_decoder::{DecodeBacklog, DecoderConfig};
use rescq_repro::circuit::{parse_circuit, write_circuit, Angle, Circuit, DependencyDag, Gate};
use rescq_repro::core::SchedulerKind;
use rescq_repro::lattice::{Layout, LayoutKind};
use rescq_repro::sim::{simulate, SimConfig};

const CASES: u64 = 24;

/// Runs `body` once per case with a per-case RNG; panics name the case seed
/// so failures replay exactly.
fn for_each_case(name: &str, body: impl Fn(&mut ChaCha8Rng)) {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0000 ^ case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            eprintln!("property `{name}` failed at case {case}");
            std::panic::resume_unwind(e);
        }
    }
}

fn arb_gate(rng: &mut ChaCha8Rng, num_qubits: u32) -> Gate {
    let q = rng.gen_range(0..num_qubits);
    match rng.gen_range(0..6u32) {
        0 => Gate::h(q),
        1 => Gate::x(q),
        2 => Gate::z(q),
        3 => Gate::rz(q, Angle::radians(rng.gen_range(0.01f64..3.0))),
        4 => Gate::rz(
            q,
            Angle::dyadic_pi(rng.gen_range(1i64..16), rng.gen_range(0u32..6)),
        ),
        _ => {
            let c = rng.gen_range(0..num_qubits);
            let mut t = rng.gen_range(0..num_qubits - 1);
            if t >= c {
                t += 1;
            }
            Gate::cnot(c, t)
        }
    }
}

fn arb_circuit(rng: &mut ChaCha8Rng) -> Circuit {
    let n = rng.gen_range(2u32..8);
    let len = rng.gen_range(1usize..40);
    let gates: Vec<Gate> = (0..len).map(|_| arb_gate(rng, n)).collect();
    Circuit::from_gates(n, gates).unwrap()
}

#[test]
fn text_format_round_trips() {
    for_each_case("text_format_round_trips", |rng| {
        let circuit = arb_circuit(rng);
        let text = write_circuit(&circuit);
        let parsed = parse_circuit(&text, Some(circuit.num_qubits())).unwrap();
        assert_eq!(parsed.gates(), circuit.gates());
    });
}

#[test]
fn dag_layers_respect_dependencies() {
    for_each_case("dag_layers_respect_dependencies", |rng| {
        let circuit = arb_circuit(rng);
        let dag = DependencyDag::new(&circuit);
        let order: Vec<_> = dag.layers().iter().flatten().copied().collect();
        assert!(dag.respects_dependencies(&order));
    });
}

#[test]
fn compression_preserves_routability() {
    for_each_case("compression_preserves_routability", |rng| {
        let n = rng.gen_range(2u32..20);
        let fraction = rng.gen_range(0.0f64..1.0);
        let seed = rng.gen_range(0u64..1000);
        let mut layout = Layout::new(LayoutKind::Star2x2, n).unwrap();
        layout.compress(fraction, seed);
        assert!(layout.is_routable());
    });
}

#[test]
fn engines_are_deterministic() {
    for_each_case("engines_are_deterministic", |rng| {
        let circuit = arb_circuit(rng);
        let seed = rng.gen_range(0u64..50);
        for scheduler in [SchedulerKind::Rescq, SchedulerKind::Greedy] {
            let config = SimConfig::builder()
                .scheduler(scheduler)
                .seed(seed)
                .max_cycles(500_000)
                .build();
            let a = simulate(&circuit, &config).unwrap();
            let b = simulate(&circuit, &config).unwrap();
            assert_eq!(a.total_rounds, b.total_rounds);
            assert_eq!(a.gates_executed, circuit.len());
        }
    });
}

#[test]
fn doubling_ladder_always_terminates_for_dyadics() {
    for_each_case("doubling_ladder_always_terminates_for_dyadics", |rng| {
        let mut a = Angle::dyadic_pi(rng.gen_range(1i64..1000), rng.gen_range(0u32..40));
        let mut steps = 0;
        while !a.is_clifford() {
            a = a.double();
            steps += 1;
            assert!(steps <= 40, "ladder failed to terminate");
        }
    });
}

/// Decode-backlog conservation: under random interleavings of enqueues and
/// retirements, `enqueued == decoded + in-flight` at every step.
#[test]
fn decode_backlog_conserves_windows() {
    for_each_case("decode_backlog_conserves_windows", |rng| {
        let mut backlog = DecodeBacklog::new();
        let mut live = Vec::new();
        for step in 0..rng.gen_range(10u32..200) {
            let retire = !live.is_empty() && rng.gen_bool(0.4);
            if retire {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                backlog.retire(id);
            } else {
                let tile = rng.gen_range(0u32..8);
                let rounds = rng.gen_range(1u32..64);
                let id = backlog.enqueue(tile, rounds, step as u64, step as u64 + 5);
                live.push(id);
            }
            assert!(backlog.is_conserved(), "conservation broken at step {step}");
            assert_eq!(backlog.in_flight(), live.len());
        }
        for id in live {
            backlog.retire(id);
        }
        assert!(backlog.is_conserved());
        assert_eq!(backlog.total_enqueued(), backlog.total_decoded());
    });
}

/// The engines keep the backlog conserved end to end: every window submitted
/// during a run is decoded by the time the run completes.
#[test]
fn simulated_runs_drain_the_decode_backlog() {
    for_each_case("simulated_runs_drain_the_decode_backlog", |rng| {
        let circuit = arb_circuit(rng);
        let seed = rng.gen_range(0u64..50);
        let decoder = match rng.gen_range(0u32..3) {
            0 => DecoderConfig::fixed(rng.gen_range(0.25f64..2.0)),
            1 => DecoderConfig::adaptive(rng.gen_range(0.25f64..2.0), rng.gen_range(1usize..5)),
            _ => DecoderConfig::union_find(rng.gen_range(2.0f64..16.0)),
        };
        for scheduler in [SchedulerKind::Rescq, SchedulerKind::Greedy] {
            let config = SimConfig::builder()
                .scheduler(scheduler)
                .decoder(decoder)
                .seed(seed)
                .max_cycles(500_000)
                .build();
            let r = simulate(&circuit, &config).unwrap();
            assert_eq!(
                r.counters.decode_windows,
                r.decode_latency.count(),
                "{scheduler}: every submitted window must be decoded and consumed"
            );
            assert_eq!(r.counters.decode_windows, r.counters.injections);
        }
    });
}

/// The tentpole invariant of the reservation-ledger scheduling core: with
/// preemption enabled on constrained (compressed) fabrics, every run
/// terminates with all gates executed — no deadlock — and the wait-for
/// graph stays acyclic throughout (the engine `debug_assert`s
/// `ReservationLedger::is_acyclic()` after every applied preemption, so in
/// these debug-profile runs a violation aborts the case). 104 seeded cases
/// of random rotation+CNOT workloads across compression levels, plus the
/// preemption counters accumulated to prove the mechanism is exercised.
#[test]
fn constrained_preemption_terminates_and_stays_acyclic() {
    let mut preemption_activity: u64 = 0;
    for case in 0..104u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xACE5_0000 ^ case);
        let n = rng.gen_range(4u32..10);
        let len = rng.gen_range(10usize..60);
        let gates: Vec<Gate> = (0..len).map(|_| arb_gate(&mut rng, n)).collect();
        let circuit = Circuit::from_gates(n, gates).unwrap();
        let compression = [0.5, 0.75, 1.0][(case % 3) as usize];
        let config = SimConfig::builder()
            .scheduler(SchedulerKind::Rescq)
            .compression(compression)
            .seed(rng.gen_range(0u64..1000))
            .max_cycles(500_000)
            .build();
        let report = simulate(&circuit, &config).unwrap_or_else(|e| {
            panic!("case {case} (compression {compression}) did not terminate: {e}")
        });
        assert_eq!(
            report.gates_executed,
            circuit.len(),
            "case {case}: gates lost"
        );
        preemption_activity +=
            report.counters.preemptions + report.counters.preemptions_rejected_cycle;
    }
    // Small random circuits rarely pile routes behind preparations, so the
    // corpus ends with structured benchmark workloads whose compressed
    // fabrics are known to provoke preemption attempts (both applied and
    // cycle-rejected ones); the same termination/completeness assertions
    // apply.
    for (name, compression, seed) in [
        ("qft_n18", 0.75, 60u64),
        ("qft_n18", 0.5, 62),
        ("gcm_n13", 0.75, 60),
    ] {
        let circuit = rescq_repro::workloads::generate(name, 1).unwrap();
        let config = SimConfig::builder()
            .scheduler(SchedulerKind::Rescq)
            .compression(compression)
            .seed(seed)
            .max_cycles(500_000)
            .build();
        let report = simulate(&circuit, &config)
            .unwrap_or_else(|e| panic!("{name}@{compression}: did not terminate: {e}"));
        assert_eq!(report.gates_executed, circuit.len());
        preemption_activity +=
            report.counters.preemptions + report.counters.preemptions_rejected_cycle;
    }
    assert!(
        preemption_activity > 0,
        "the corpus must exercise the preemption machinery at least once"
    );
}

/// The engine's determinism contract on random constrained workloads:
/// every run terminates with every gate executed, the ledger stays acyclic
/// across cross-shard preemptions (the engine `debug_assert`s
/// `ReservationLedger::is_acyclic()` after every applied preemption, so
/// these debug-profile runs abort on a violation), and a same-seed replay
/// reproduces the full report — total rounds, latency histograms,
/// RNG-dependent failure counts, every counter. (The name predates the
/// single-threaded engine.)
#[test]
fn sharded_engine_is_thread_count_invariant() {
    let mut cross_shard_activity = 0u64;
    let mut cross_shard_preemptions = 0u64;
    for case in 0..20u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5AAD_0000 ^ case);
        let n = rng.gen_range(4u32..12);
        let len = rng.gen_range(10usize..50);
        let gates: Vec<Gate> = (0..len).map(|_| arb_gate(&mut rng, n)).collect();
        let circuit = Circuit::from_gates(n, gates).unwrap();
        let compression = [0.0, 0.5, 0.75, 1.0][(case % 4) as usize];
        let seed = rng.gen_range(0u64..1000);
        let config = SimConfig::builder()
            .scheduler(SchedulerKind::Rescq)
            .compression(compression)
            .seed(seed)
            .max_cycles(500_000)
            .build();
        let reference =
            simulate(&circuit, &config).unwrap_or_else(|e| panic!("case {case}: run failed: {e}"));
        assert_eq!(reference.gates_executed, circuit.len(), "case {case}");
        let replay = simulate(&circuit, &config).unwrap();
        assert_eq!(replay, reference, "case {case}: replay diverged");
        cross_shard_activity +=
            reference.counters.claims_cross_shard + reference.counters.preemptions_cross_shard;
    }
    // Structured benchmarks whose paths are known to span several regions,
    // so the corpus provably exercises cross-shard arbitration.
    for (name, compression, seed) in [
        ("qft_n18", 0.5, 7u64),
        ("qft_n18", 0.75, 11),
        ("wstate_n27", 0.0, 7),
        ("wstate_n27", 0.5, 3),
    ] {
        let circuit = rescq_repro::workloads::generate(name, 1).unwrap();
        let config = SimConfig::builder()
            .scheduler(SchedulerKind::Rescq)
            .compression(compression)
            .seed(seed)
            .max_cycles(500_000)
            .build();
        let reference = simulate(&circuit, &config).unwrap();
        assert_eq!(
            reference.gates_executed,
            circuit.len(),
            "{name}@{compression}"
        );
        let replay = simulate(&circuit, &config).unwrap();
        assert_eq!(replay, reference, "{name}@{compression}: replay diverged");
        cross_shard_activity +=
            reference.counters.claims_cross_shard + reference.counters.preemptions_cross_shard;
        cross_shard_preemptions += reference.counters.preemptions_cross_shard;
    }
    assert!(
        cross_shard_activity > 0,
        "the corpus must cross shard boundaries at least once"
    );
    assert!(
        cross_shard_preemptions > 0,
        "the corpus must exercise cross-shard preemption"
    );
    // Class-aware runs: classification, region overrides and class
    // preemptions are pure functions of circuit + fabric, and the factory
    // workload provably exercises class preemptions.
    {
        use rescq_repro::core::ClassLattice;
        let circuit = rescq_repro::workloads::generate("factory_n12", 1).unwrap();
        let config = SimConfig::builder()
            .scheduler(SchedulerKind::Rescq)
            .compression(0.25)
            .priority_classes(Some(ClassLattice::default()))
            .seed(5)
            .max_cycles(500_000)
            .build();
        let reference = simulate(&circuit, &config).unwrap();
        assert_eq!(reference.gates_executed, circuit.len(), "factory_n12");
        assert!(
            reference.counters.preemptions_class > 0,
            "the priority case must exercise class preemption"
        );
        let replay = simulate(&circuit, &config).unwrap();
        assert_eq!(replay, reference, "factory_n12 priority replay diverged");
    }
}

/// Regression: the naive move-top-entry-to-back yield that was tried before
/// the ledger existed deadlocks on exactly this shape — one task's route
/// entries re-planned behind another task's preparations on two ancillas.
/// Reordering either queue alone would leave `1 → 2` on one ancilla and
/// `2 → 1` on the other: a wait-for cycle. The ledger must refuse both
/// reorders, and must allow the preemption again once the cross-queue
/// conflict is gone.
#[test]
fn ledger_rejects_naive_yield_deadlock_counterexample() {
    use rescq_repro::circuit::Angle as A;
    use rescq_repro::core::{Preemption, QueueEntry, ReservationLedger, Role, TaskId};
    let mut ledger = ReservationLedger::new(2);
    for a in 0..2u32 {
        ledger.push(a, QueueEntry::new(TaskId(2), Role::PrepZz, A::T));
        ledger.push(a, QueueEntry::new(TaskId(1), Role::Route, A::ZERO));
    }
    assert_eq!(ledger.try_preempt(TaskId(1), 0), Preemption::RejectedCycle);
    assert_eq!(ledger.try_preempt(TaskId(1), 1), Preemption::RejectedCycle);
    assert!(
        ledger.is_acyclic(),
        "rejected preemptions must change nothing"
    );
    assert_eq!(ledger.stats().preemptions_rejected_cycle, 2);
    // Once task 2's prep leaves the other ancilla, the same reorder is safe.
    ledger.remove_task(1, TaskId(2));
    assert!(matches!(
        ledger.try_preempt(TaskId(1), 0),
        Preemption::Applied { .. }
    ));
    assert!(ledger.is_acyclic());
    assert_eq!(ledger.stats().preemptions, 1);
}

/// The class-lattice degeneracy contract: when every entry carries the SAME
/// class — whichever class that is — the class-aware arbitration behaves
/// exactly like the seed (class-blind) ledger. Random op sequences (pushes,
/// pops, removals, preemption attempts with the default seniority test) are
/// replayed against one ledger per uniform class and against the default
/// ledger; every preemption outcome and every queue order must match, and
/// no class-granted preemption may ever be counted.
#[test]
fn uniform_class_ledgers_reproduce_the_seed_arbitration() {
    use rescq_repro::core::{QueueEntry, ReservationLedger, Role, TaskClass, TaskId};

    const ANCILLAS: usize = 4;
    let classes = [
        None, // the seed ledger: entries keep their default class
        Some(TaskClass::SPECULATIVE),
        Some(TaskClass::COMPUTE),
        Some(TaskClass::INJECTION),
        Some(TaskClass::FACTORY),
    ];
    for_each_case(
        "uniform_class_ledgers_reproduce_the_seed_arbitration",
        |rng| {
            // One RNG drives one op sequence, replayed against every ledger.
            let ops: Vec<(u32, u32, u32)> = (0..rng.gen_range(20usize..80))
                .map(|_| {
                    (
                        rng.gen_range(0u32..4),
                        rng.gen_range(0u32..ANCILLAS as u32),
                        rng.gen_range(0u32..12),
                    )
                })
                .collect();
            let mut ledgers: Vec<ReservationLedger> = classes
                .iter()
                .map(|_| ReservationLedger::new(ANCILLAS))
                .collect();
            for &(op, a, task) in &ops {
                let mut outcomes = Vec::new();
                for (ledger, class) in ledgers.iter_mut().zip(&classes) {
                    match op {
                        0 => {
                            let role = if task % 3 == 0 {
                                Role::Route
                            } else {
                                Role::PrepZz
                            };
                            let angle = rescq_repro::circuit::Angle::T;
                            let mut entry = QueueEntry::new(TaskId(task), role, angle);
                            if let Some(c) = class {
                                entry = entry.with_class(*c);
                            }
                            ledger.push(a, entry);
                        }
                        1 => {
                            ledger.pop(a);
                        }
                        2 => {
                            ledger.remove_task(a, TaskId(task));
                        }
                        _ => {
                            outcomes.push(ledger.try_preempt(TaskId(task), a));
                        }
                    }
                }
                assert!(
                    outcomes.windows(2).all(|w| w[0] == w[1]),
                    "uniform-class preemption outcomes diverged: {outcomes:?}"
                );
            }
            // Every ledger ends in the same queue state with the same counters.
            let reference = &ledgers[0];
            for (ledger, class) in ledgers.iter().zip(&classes).skip(1) {
                for a in 0..ANCILLAS as u32 {
                    let got: Vec<_> = ledger.queue(a).iter().map(|e| e.task).collect();
                    let want: Vec<_> = reference.queue(a).iter().map(|e| e.task).collect();
                    assert_eq!(got, want, "queue {a} diverged under {class:?}");
                }
                assert_eq!(ledger.stats().preemptions, reference.stats().preemptions);
                assert_eq!(
                    ledger.stats().preemptions_rejected_cycle,
                    reference.stats().preemptions_rejected_cycle
                );
                assert_eq!(
                    ledger.stats().preemptions_class,
                    0,
                    "uniform classes must never grant a class preemption ({class:?})"
                );
            }
        },
    );
}

/// The union-find decoder is deterministic: its sampled error stream,
/// cluster-growth work and emergent window latencies are keyed on
/// (channel seed, tile, per-tile window index), all functions of the
/// schedule — so a same-seed replay's report, decode-work counters
/// included, is byte-identical. The corpus must provably exercise the real
/// decoder (nonzero defects and growth steps). (The name predates the
/// single-threaded engine.)
#[test]
fn union_find_decoder_is_thread_count_invariant() {
    let mut decode_activity = 0u64;
    for case in 0..12u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0F1D_0000 ^ case);
        let n = rng.gen_range(4u32..10);
        let len = rng.gen_range(10usize..40);
        let gates: Vec<Gate> = (0..len).map(|_| arb_gate(&mut rng, n)).collect();
        let circuit = Circuit::from_gates(n, gates).unwrap();
        // High physical error rates make every window carry defects, so the
        // determinism claim covers real cluster growth, not empty syndromes.
        let p = [1e-4, 0.02, 0.05][(case % 3) as usize];
        let seed = rng.gen_range(0u64..1000);
        let throughput = [2.0, 4.0, 8.0, 16.0][(case % 4) as usize];
        let config = SimConfig::builder()
            .scheduler(SchedulerKind::Rescq)
            .decoder(DecoderConfig::union_find(throughput))
            .physical_error_rate(p)
            .seed(seed)
            .max_cycles(500_000)
            .build();
        let reference =
            simulate(&circuit, &config).unwrap_or_else(|e| panic!("case {case}: run failed: {e}"));
        assert_eq!(reference.gates_executed, circuit.len(), "case {case}");
        decode_activity +=
            reference.counters.decode_defects + reference.counters.decode_growth_steps;
        let replay = simulate(&circuit, &config).unwrap();
        assert_eq!(replay, reference, "case {case}: union-find replay diverged");
    }
    assert!(
        decode_activity > 0,
        "the corpus must exercise real decode work at least once"
    );
}

/// The union-find decoder's latency is emergent, so it must respond to the
/// physics: mean window decode latency is monotone non-decreasing in the
/// physical error rate (more defects → more growth/peeling work) and in
/// the code distance (bigger detector graphs → more syndrome words and
/// longer windows). This is the honesty check on the whole
/// emergent-latency design — a hardcoded latency table would fail it.
#[test]
fn union_find_window_latency_is_monotone_in_p_and_d() {
    let circuit = rescq_repro::workloads::generate("dnn_n16", 1).unwrap();
    let mean_latency = |p: f64, d: u32| {
        let config = SimConfig::builder()
            .scheduler(SchedulerKind::Rescq)
            .decoder(DecoderConfig::union_find(4.0))
            .physical_error_rate(p)
            .distance(d)
            .seed(3)
            .max_cycles(500_000)
            .build();
        let r = simulate(&circuit, &config).unwrap();
        assert!(
            r.counters.decode_windows > 0,
            "p={p} d={d}: run must decode windows"
        );
        r.decode_latency.mean()
    };
    let by_p: Vec<f64> = [1e-4, 0.01, 0.05]
        .iter()
        .map(|&p| mean_latency(p, 5))
        .collect();
    for w in by_p.windows(2) {
        assert!(
            w[0] <= w[1],
            "mean window latency must not decrease with p: {by_p:?}"
        );
    }
    assert!(
        by_p[0] < by_p[2],
        "the p sweep must actually move the latency: {by_p:?}"
    );
    let by_d: Vec<f64> = [3u32, 5, 7]
        .iter()
        .map(|&d| mean_latency(0.02, d))
        .collect();
    for w in by_d.windows(2) {
        assert!(
            w[0] <= w[1],
            "mean window latency must not decrease with d: {by_d:?}"
        );
    }
    assert!(
        by_d[0] < by_d[2],
        "the d sweep must actually move the latency: {by_d:?}"
    );
}

/// The ideal decoder is invisible: explicitly configuring it reproduces the
/// default configuration's reports bit for bit, with zero stall rounds.
#[test]
fn ideal_decoder_reproduces_existing_results_exactly() {
    for_each_case("ideal_decoder_reproduces_existing_results_exactly", |rng| {
        let circuit = arb_circuit(rng);
        let seed = rng.gen_range(0u64..50);
        for scheduler in [
            SchedulerKind::Rescq,
            SchedulerKind::Greedy,
            SchedulerKind::Autobraid,
        ] {
            let base = SimConfig::builder()
                .scheduler(scheduler)
                .seed(seed)
                .max_cycles(500_000)
                .build();
            let explicit = SimConfig::builder()
                .scheduler(scheduler)
                .decoder(DecoderConfig::ideal())
                .seed(seed)
                .max_cycles(500_000)
                .build();
            let a = simulate(&circuit, &base).unwrap();
            let b = simulate(&circuit, &explicit).unwrap();
            assert_eq!(a, b, "{scheduler}: ideal decoder must be invisible");
            assert_eq!(a.counters.decoder_stall_rounds, 0);
            assert_eq!(a.decoder_stall_cycles(), 0.0);
        }
    });
}
