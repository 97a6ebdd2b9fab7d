//! The static baseline engine: greedy [18] and AutoBraid [16] scheduling.
//!
//! Both baselines execute the dependency DAG layer by layer — "execution of
//! the next layer is stalled until the gate with the highest execution time
//! of the current layer is completed" (§3.1) — and use the naive Rz protocol:
//! exactly one designated ancilla per data qubit prepares `|mθ⟩`, preparation
//! starts only when the gate's layer begins (no eager prep), and an injection
//! failure restarts preparation from scratch with the doubled angle (§5.1,
//! Fig 1d).
//!
//! The two baselines differ in routing order within a layer: greedy routes in
//! program order with the current shortest free path; AutoBraid sorts the
//! layer's CNOTs by endpoint distance and routes them as an edge-disjoint
//! batch, which extracts more parallelism.

use crate::engine::region::RegionPartition;
use crate::engine::EventQueue;
use crate::fabric::Fabric;
use crate::metrics::{ExecutionReport, LatencyHistogram, RunCounters};
use crate::{SimConfig, SimError};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rescq_circuit::{Angle, Circuit, DependencyDag, Gate, GateId, QubitId};
use rescq_core::{
    plan_static_route, LedgerEvent, QueueEntry, ReservationLedger, Role, SchedulerKind,
    StaticRouteOutcome, TaskId,
};
use rescq_decoder::{DecoderRuntime, WindowId};
use rescq_lattice::AncillaIndex;
use rescq_rus::{InjectionLadder, PreparationModel};
use rescq_telemetry::{Event as TraceEvent, Recorder};
use std::sync::Arc;

/// Per-gate state within the current layer.
#[derive(Debug)]
enum LayerGate {
    Hadamard {
        qubit: QubitId,
        running: bool,
    },
    Rz {
        qubit: QubitId,
        ladder: InjectionLadder,
        designated: AncillaIndex,
        phase: RzPhase,
    },
    Cnot {
        control: QubitId,
        target: QubitId,
        phase: CnotPhase,
    },
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RzPhase {
    NeedPrep,
    Prepping,
    ReadyToInject,
    Injecting,
}

#[derive(Debug, Clone, PartialEq)]
enum CnotPhase {
    NeedRoute,
    Rotating,
    /// Surgery in flight over this path (released at `SurgeryDone`).
    Surgery(Vec<AncillaIndex>),
}

#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(clippy::enum_variant_names)] // the shared postfix is the point: each is a completion
enum Ev {
    HDone(usize),
    PrepDone(usize),
    InjectDone {
        idx: usize,
        helper: Option<AncillaIndex>,
        rounds: u32,
    },
    /// The classical decoder finished an injection's syndrome window; its
    /// outcome becomes visible to the ladder now.
    DecodeDone {
        idx: usize,
        success: bool,
        window: WindowId,
    },
    /// The classical decoder finished a preparation-verification window
    /// (`DecoderConfig::decode_prep`); the prepared state is usable now.
    PrepDecoded {
        idx: usize,
        window: WindowId,
    },
    RotationDone {
        idx: usize,
        qubit: QubitId,
    },
    SurgeryDone(usize),
}

/// Runs a static baseline schedule. `recorder` attaches a structured
/// trace sink (ledger claims/wait edges and ancilla occupancy; the
/// static engines have no phase loop, so no phase spans); `None` runs
/// untraced with zero instrumentation cost. Task ids in static-engine
/// events are per-layer slot indices, reused across layers.
pub(crate) fn run_static(
    circuit: &Circuit,
    dag: Arc<DependencyDag>,
    config: &SimConfig,
    kind: SchedulerKind,
    mut fabric: Fabric,
    mut rng: ChaCha8Rng,
    recorder: Option<&dyn Recorder>,
) -> Result<ExecutionReport, SimError> {
    let d = config.rounds_per_cycle();
    let prep_model = PreparationModel::with_calibration(config.rus_params(), config.calibration);
    let costs = config.costs;
    let max_rounds = config.max_cycles.saturating_mul(d as u64);

    let mut clock: u64 = 0;
    let mut counters = RunCounters::default();
    // Mirror of the realtime engine's reservation ledger: static baselines
    // never reorder (no preemption), but their designated-ancilla claims and
    // in-flight routes go through the same API so the wait-graph counters
    // are comparable across schedulers. Accounting only — no decision below
    // reads the ledger.
    let mut ledger = ReservationLedger::new(fabric.num_ancillas());
    // Occupancy/ledger tracing mirrors the realtime engine: the same
    // fabric-derived region partition, the same transition-only
    // AncillaState stream, all sampled from pure schedule state.
    let partition = RegionPartition::for_fabric(fabric.num_ancillas());
    let mut traced_occupancy = if recorder.is_some() {
        ledger.enable_event_log();
        vec![(0u32, false); fabric.num_ancillas()]
    } else {
        Vec::new()
    };
    let mut cnot_latency = LatencyHistogram::new();
    let mut rz_latency = LatencyHistogram::new();
    let mut decoder = DecoderRuntime::with_channel(&config.decoder, d, config.decoder_channel());
    let mut decode_latency = LatencyHistogram::new();
    let mut gates_executed = 0usize;
    let achieved_compression = fabric.layout.compression();

    for layer in dag.layers() {
        let layer_start = clock;
        let mut gates: Vec<(GateId, LayerGate)> = Vec::new();
        for &gid in layer {
            let gate = circuit.gate(gid);
            gates_executed += 1;
            if gate.is_free() {
                continue; // software gate: zero cycles
            }
            let state = match gate {
                Gate::H { qubit } => LayerGate::Hadamard {
                    qubit,
                    running: false,
                },
                Gate::Rz { qubit, angle } => {
                    let tile = fabric
                        .layout
                        .designated_prep_ancilla(qubit)
                        .ok_or(SimError::NoAncillaForQubit(qubit))?;
                    let designated = fabric
                        .graph
                        .index_of(tile)
                        .ok_or(SimError::NoAncillaForQubit(qubit))?;
                    LayerGate::Rz {
                        qubit,
                        ladder: InjectionLadder::new(angle),
                        designated,
                        phase: RzPhase::NeedPrep,
                    }
                }
                Gate::Cnot { control, target } => LayerGate::Cnot {
                    control,
                    target,
                    phase: CnotPhase::NeedRoute,
                },
                _ => unreachable!("free gates filtered above"),
            };
            gates.push((gid, state));
        }

        // AutoBraid sorts the layer's gates by routing distance; greedy keeps
        // program order.
        if kind == SchedulerKind::Autobraid {
            gates.sort_by_key(|(gid, s)| match s {
                LayerGate::Cnot {
                    control, target, ..
                } => {
                    let a = fabric.layout.data_tile(*control);
                    let b = fabric.layout.data_tile(*target);
                    (fabric.layout.grid().manhattan(a, b), gid.index())
                }
                _ => (0, gid.index()),
            });
        }

        // Register the layer's designated-ancilla claims with the ledger
        // (after the AutoBraid sort so task ids match slot indices). The
        // naive protocol claims its designated ancilla for the gate's whole
        // lifetime; two same-layer rotations sharing one ancilla show up as
        // a ledger wait edge.
        for (idx, (_, state)) in gates.iter().enumerate() {
            if let LayerGate::Rz {
                designated, ladder, ..
            } = state
            {
                ledger.push(
                    *designated,
                    QueueEntry::new(TaskId(idx as u32), Role::PrepZz, ladder.current_angle()),
                );
            }
        }

        let mut remaining = gates
            .iter()
            .filter(|(_, s)| !matches!(s, LayerGate::Done))
            .count();
        let mut events: EventQueue<Ev> = EventQueue::new();

        while remaining > 0 {
            // Dispatch pass: try to advance every unfinished gate.
            for i in 0..gates.len() {
                dispatch_gate(
                    i,
                    &mut gates,
                    &mut fabric,
                    &mut ledger,
                    &mut events,
                    &mut rng,
                    &prep_model,
                    &mut counters,
                    clock,
                    d,
                    &costs,
                )?;
            }
            drain_trace(
                recorder,
                &mut ledger,
                &fabric,
                &partition,
                &mut traced_occupancy,
                clock,
            );
            if remaining == 0 {
                break;
            }
            let Some((t, ev)) = events.pop() else {
                return Err(SimError::Deadlock {
                    round: clock,
                    detail: format!("layer stalled with {remaining} gates pending"),
                });
            };
            clock = t;
            if clock > max_rounds {
                return Err(SimError::WatchdogExceeded {
                    cycles: clock / d as u64,
                });
            }
            handle_event(
                ev,
                &mut gates,
                &mut fabric,
                &mut ledger,
                &mut events,
                &mut rng,
                &mut counters,
                &mut remaining,
                &mut cnot_latency,
                &mut rz_latency,
                &mut decoder,
                &mut decode_latency,
                layer_start,
                clock,
                d,
            );
        }
        // Catch the final completions of the layer (releases, pops).
        drain_trace(
            recorder,
            &mut ledger,
            &fabric,
            &partition,
            &mut traced_occupancy,
            clock,
        );
    }

    let dec = decoder.stats();
    debug_assert!(decoder.backlog().is_conserved());
    debug_assert_eq!(decoder.backlog().in_flight(), 0);
    counters.decode_windows = dec.windows_submitted;
    counters.decoder_stall_rounds = dec.stall_rounds;
    counters.decoder_peak_backlog = dec.peak_backlog;
    counters.decode_defects = dec.defects;
    counters.decode_growth_steps = dec.growth_steps;
    counters.decode_failures = dec.logical_failures;
    counters.waitgraph_peak_edges = ledger.stats().waitgraph_peak_edges;
    debug_assert_eq!(
        ledger.stats().preemptions,
        0,
        "static engines never preempt"
    );

    Ok(ExecutionReport {
        scheduler: kind,
        seed: config.seed,
        engine_threads: 1,
        distance: d,
        total_rounds: clock,
        gates_executed,
        cnot_latency,
        rz_latency,
        decode_latency,
        data_busy_rounds: fabric.total_qubit_busy_rounds(),
        num_qubits: circuit.num_qubits(),
        achieved_compression,
        k_used: 0,
        tau_used: 0,
        counters,
        // Static engines are untraced: no phase loop to time.
        phase_nanos: [0; 4],
    })
}

/// Forwards buffered ledger events (stamped with the current round) and
/// emits ancilla-occupancy transitions, mirroring the realtime engine's
/// `drain_ledger_events` + `sample_occupancy`. A no-op — one check —
/// when no recorder is attached.
fn drain_trace(
    recorder: Option<&dyn Recorder>,
    ledger: &mut ReservationLedger,
    fabric: &Fabric,
    partition: &RegionPartition,
    occupancy: &mut [(u32, bool)],
    round: u64,
) {
    let Some(rec) = recorder else { return };
    for ev in ledger.take_events() {
        rec.record(match ev {
            LedgerEvent::Claim {
                task,
                ancilla,
                cross_shard,
            } => TraceEvent::Claim {
                round,
                task: task.0 as u64,
                ancilla,
                cross_shard,
            },
            LedgerEvent::Preempted {
                task,
                ancilla,
                class_won,
            } => TraceEvent::Preemption {
                round,
                task: task.0 as u64,
                ancilla,
                class_won,
            },
            LedgerEvent::Rejected { task, ancilla } => TraceEvent::PreemptionRejected {
                round,
                task: task.0 as u64,
                ancilla,
            },
            LedgerEvent::WaitEdge {
                waiter,
                holder,
                ancilla,
            } => TraceEvent::WaitEdge {
                round,
                waiter: waiter.0 as u64,
                holder: holder.0 as u64,
                ancilla,
            },
        });
    }
    for a in 0..fabric.num_ancillas() as u32 {
        let busy = !fabric.ancilla_free(a, round);
        let depth = ledger.queue(a).len() as u32;
        let last = &mut occupancy[a as usize];
        if *last != (depth, busy) {
            *last = (depth, busy);
            rec.record(TraceEvent::AncillaState {
                round,
                ancilla: a,
                region: partition.region_of(a),
                depth,
                busy,
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch_gate(
    idx: usize,
    gates: &mut [(GateId, LayerGate)],
    fabric: &mut Fabric,
    ledger: &mut ReservationLedger,
    events: &mut EventQueue<Ev>,
    rng: &mut ChaCha8Rng,
    prep_model: &PreparationModel,
    counters: &mut RunCounters,
    now: u64,
    d: u32,
    costs: &rescq_core::SurgeryCosts,
) -> Result<(), SimError> {
    // Split borrows: read geometry immutably, mutate the single state slot.
    let (_, ref mut state) = gates[idx];
    match state {
        LayerGate::Done => {}
        LayerGate::Hadamard { qubit, running } => {
            if !*running && fabric.qubit_free(*qubit, now) {
                let until = now + costs.hadamard_cycles as u64 * d as u64;
                fabric.occupy_qubit(*qubit, now, until);
                events.push(until, Ev::HDone(idx));
                *running = true;
            }
        }
        LayerGate::Rz {
            qubit,
            designated,
            phase,
            ..
        } => match *phase {
            RzPhase::NeedPrep => {
                let a = *designated;
                let owner = idx as u64;
                if fabric.ancilla_free(a, now) || fabric.is_held_by(a, owner) {
                    if !fabric.is_held_by(a, owner) {
                        fabric.hold_ancilla(a, owner);
                    }
                    let rounds = prep_model.sample_prep_rounds(rng);
                    counters.preps_started += 1;
                    events.push(now + rounds, Ev::PrepDone(idx));
                    *phase = RzPhase::Prepping;
                }
            }
            RzPhase::ReadyToInject => {
                let qubit = *qubit;
                let a = *designated;
                if !fabric.qubit_free(qubit, now) {
                    return Ok(());
                }
                let data = fabric.layout.data_tile(qubit);
                let a_tile = fabric.graph.tile(a);
                let orient = fabric.orientation[qubit.index()];
                let side = fabric.layout.grid().side_towards(data, a_tile);
                let (cycles, helper) = match side {
                    Some(s) if orient.edge_at(s) == rescq_lattice::EdgeType::Z => {
                        (costs.zz_injection_cycles, None)
                    }
                    Some(_) => (costs.cnot_injection_cycles, None),
                    None => {
                        // Diagonal prep ancilla: CNOT injection through a free
                        // side-adjacent helper touching both tiles.
                        let helper = fabric
                            .layout
                            .data_adjacency(qubit)
                            .side
                            .iter()
                            .filter_map(|&(_, t)| fabric.graph.index_of(t))
                            .find(|&h| {
                                fabric.ancilla_free(h, now)
                                    && fabric.graph.neighbors(h).contains(&a)
                            });
                        match helper {
                            Some(h) => (costs.cnot_injection_cycles, Some(h)),
                            None => {
                                // All geometric helpers held by other preps →
                                // solo fallback keeps the run live; merely
                                // busy helpers → wait.
                                let any_transiently_busy = fabric
                                    .layout
                                    .data_adjacency(qubit)
                                    .side
                                    .iter()
                                    .filter_map(|&(_, t)| fabric.graph.index_of(t))
                                    .any(|h| !fabric.is_held(h) && !fabric.ancilla_free(h, now));
                                if any_transiently_busy {
                                    return Ok(());
                                }
                                (costs.cnot_injection_cycles, None)
                            }
                        }
                    }
                };
                let until = now + cycles as u64 * d as u64;
                fabric.occupy_qubit(qubit, now, until);
                if let Some(h) = helper {
                    fabric.occupy_ancilla(h, now, until);
                }
                counters.injections += 1;
                events.push(
                    until,
                    Ev::InjectDone {
                        idx,
                        helper,
                        rounds: (until - now) as u32,
                    },
                );
                *phase = RzPhase::Injecting;
            }
            RzPhase::Prepping | RzPhase::Injecting => {}
        },
        LayerGate::Cnot {
            control,
            target,
            phase,
        } => {
            if *phase != CnotPhase::NeedRoute {
                return Ok(());
            }
            let (control, target) = (*control, *target);
            if !fabric.qubit_free(control, now) || !fabric.qubit_free(target, now) {
                return Ok(());
            }
            let outcome = plan_static_route(
                &fabric.layout,
                &fabric.graph,
                control,
                target,
                &fabric.orientation,
                |a| !fabric.ancilla_free(a, now),
            );
            match outcome {
                StaticRouteOutcome::Route { path } => {
                    let until = now + costs.cnot_cycles as u64 * d as u64;
                    fabric.occupy_qubit(control, now, until);
                    fabric.occupy_qubit(target, now, until);
                    for &a in &path {
                        fabric.occupy_ancilla(a, now, until);
                        ledger.push(
                            a,
                            QueueEntry::new(TaskId(idx as u32), Role::Route, Angle::ZERO),
                        );
                    }
                    counters.cnot_surgeries += 1;
                    events.push(until, Ev::SurgeryDone(idx));
                    *phase = CnotPhase::Surgery(path);
                }
                StaticRouteOutcome::NeedRotation { qubit, using } => {
                    let until = now + costs.edge_rotation_cycles as u64 * d as u64;
                    fabric.occupy_qubit(qubit, now, until);
                    fabric.occupy_ancilla(using, now, until);
                    counters.edge_rotations += 1;
                    events.push(until, Ev::RotationDone { idx, qubit });
                    *phase = CnotPhase::Rotating;
                }
                StaticRouteOutcome::Blocked => {}
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn handle_event(
    ev: Ev,
    gates: &mut [(GateId, LayerGate)],
    fabric: &mut Fabric,
    ledger: &mut ReservationLedger,
    events: &mut EventQueue<Ev>,
    rng: &mut ChaCha8Rng,
    counters: &mut RunCounters,
    remaining: &mut usize,
    cnot_latency: &mut LatencyHistogram,
    rz_latency: &mut LatencyHistogram,
    decoder: &mut DecoderRuntime,
    decode_latency: &mut LatencyHistogram,
    layer_start: u64,
    now: u64,
    d: u32,
) {
    let latency_cycles = (now - layer_start).div_ceil(d as u64);
    match ev {
        Ev::HDone(idx) => {
            if let (_, LayerGate::Hadamard { qubit, .. }) = &gates[idx] {
                fabric.flip_orientation(*qubit);
            }
            gates[idx].1 = LayerGate::Done;
            *remaining -= 1;
        }
        Ev::PrepDone(idx) => {
            // With `decode_prep` on, the verification measurement's window
            // must be decoded before the state counts as prepared.
            if decoder.decodes_prep() {
                let tile = match &gates[idx].1 {
                    LayerGate::Rz { designated, .. } => *designated,
                    _ => 0,
                };
                let (window, ready_at) = decoder.submit(tile, d, now);
                if ready_at > now {
                    events.push(ready_at, Ev::PrepDecoded { idx, window });
                    return;
                }
                decode_latency.record(decoder.retire(window, now));
            }
            counters.preps_succeeded += 1;
            if let (_, LayerGate::Rz { phase, .. }) = &mut gates[idx] {
                *phase = RzPhase::ReadyToInject;
            }
        }
        Ev::PrepDecoded { idx, window } => {
            decode_latency.record(decoder.retire(window, now));
            counters.preps_succeeded += 1;
            if let (_, LayerGate::Rz { phase, .. }) = &mut gates[idx] {
                *phase = RzPhase::ReadyToInject;
            }
        }
        Ev::InjectDone { idx, rounds, .. } => {
            // The measurement happens now; the outcome is visible to the
            // ladder only once its syndrome window is decoded.
            let success = rng.gen_bool(0.5);
            if !success {
                counters.injection_failures += 1;
            }
            let tile = match &gates[idx].1 {
                LayerGate::Rz { designated, .. } => *designated,
                _ => 0,
            };
            let (window, ready_at) = decoder.submit(tile, rounds.max(1), now);
            if ready_at > now {
                events.push(
                    ready_at,
                    Ev::DecodeDone {
                        idx,
                        success,
                        window,
                    },
                );
            } else {
                decode_latency.record(decoder.retire(window, now));
                apply_rz_outcome(
                    idx,
                    success,
                    gates,
                    fabric,
                    ledger,
                    remaining,
                    rz_latency,
                    latency_cycles,
                    now,
                );
            }
        }
        Ev::DecodeDone {
            idx,
            success,
            window,
        } => {
            decode_latency.record(decoder.retire(window, now));
            apply_rz_outcome(
                idx,
                success,
                gates,
                fabric,
                ledger,
                remaining,
                rz_latency,
                latency_cycles,
                now,
            );
        }
        Ev::RotationDone { idx, qubit } => {
            fabric.flip_orientation(qubit);
            if let (_, LayerGate::Cnot { phase, .. }) = &mut gates[idx] {
                *phase = CnotPhase::NeedRoute;
            }
        }
        Ev::SurgeryDone(idx) => {
            if let (
                _,
                LayerGate::Cnot {
                    phase: CnotPhase::Surgery(path),
                    ..
                },
            ) = &gates[idx]
            {
                for &a in path {
                    ledger.remove_task(a, TaskId(idx as u32));
                }
            }
            cnot_latency.record(latency_cycles);
            gates[idx].1 = LayerGate::Done;
            *remaining -= 1;
        }
    }
}

/// Advances an Rz ladder with a decoded injection outcome.
#[allow(clippy::too_many_arguments)]
fn apply_rz_outcome(
    idx: usize,
    success: bool,
    gates: &mut [(GateId, LayerGate)],
    fabric: &mut Fabric,
    ledger: &mut ReservationLedger,
    remaining: &mut usize,
    rz_latency: &mut LatencyHistogram,
    latency_cycles: u64,
    now: u64,
) {
    if let (
        _,
        LayerGate::Rz {
            ladder,
            designated,
            phase,
            ..
        },
    ) = &mut gates[idx]
    {
        match ladder.record_outcome(success) {
            rescq_rus::LadderStep::Done => {
                fabric.release_ancilla(*designated, now);
                ledger.remove_task(*designated, TaskId(idx as u32));
                rz_latency.record(latency_cycles);
                gates[idx].1 = LayerGate::Done;
                *remaining -= 1;
            }
            rescq_rus::LadderStep::NeedCorrection(_) => {
                // Naive protocol: restart preparation from scratch for the
                // doubled angle on the same ancilla.
                *phase = RzPhase::NeedPrep;
            }
        }
    }
}
