//! The cycle-accurate symbolic execution engine.
//!
//! [`simulate`] builds the fabric from the configuration (layout +
//! compression), then dispatches to the realtime RESCQ engine
//! ([`realtime`]) or the layer-synchronized static baseline engine
//! ([`static_sched`]). Time is tracked in *measurement rounds*; one
//! lattice-surgery cycle is `d` rounds (§5.2.1).

mod realtime;
mod region;
mod static_sched;

use crate::artifacts::SimArtifacts;
use crate::fabric::Fabric;
use crate::metrics::ExecutionReport;
use crate::SimConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rescq_circuit::{Circuit, QubitId};
use rescq_core::SchedulerKind;
use rescq_telemetry::Recorder;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Errors from a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The circuit is empty or the layout could not host it.
    BadInput(String),
    /// A data qubit has no adjacent ancilla (over-compressed layout).
    NoAncillaForQubit(QubitId),
    /// No event is pending but gates remain — a scheduling deadlock.
    Deadlock {
        /// Round at which progress stopped.
        round: u64,
        /// Human-readable context.
        detail: String,
    },
    /// The watchdog cycle limit was exceeded.
    WatchdogExceeded {
        /// Cycles executed when the watchdog fired.
        cycles: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadInput(m) => write!(f, "bad input: {m}"),
            SimError::NoAncillaForQubit(q) => {
                write!(f, "data qubit {q} has no adjacent ancilla")
            }
            SimError::Deadlock { round, detail } => {
                write!(f, "scheduling deadlock at round {round}: {detail}")
            }
            SimError::WatchdogExceeded { cycles } => {
                write!(f, "watchdog exceeded after {cycles} cycles")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A deterministic min-heap event queue keyed by `(round, insertion order)`.
///
/// Payload slots are recycled through a free list, so a long run's queue
/// memory plateaus at the pending-event high-water mark instead of growing
/// one slot per event ever pushed — part of the zero-allocation
/// steady-state contract of the cycle loop. The heap key carries the slot
/// alongside `(round, seq)`; `seq` is globally unique, so the slot index
/// never participates in ordering.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    payloads: Vec<Option<E>>,
    free: Vec<u32>,
    seq: u64,
}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `ev` at `round`. Ties break by insertion order, keeping the
    /// simulation deterministic.
    pub(crate) fn push(&mut self, round: u64, ev: E) {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.payloads.push(None);
                (self.payloads.len() - 1) as u32
            }
        };
        self.payloads[slot as usize] = Some(ev);
        self.seq += 1;
        self.heap.push(Reverse((round, self.seq, slot)));
    }

    /// Pops the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        loop {
            let Reverse((round, _, slot)) = self.heap.pop()?;
            if let Some(ev) = self.payloads[slot as usize].take() {
                self.free.push(slot);
                return Some((round, ev));
            }
        }
    }

    /// The round of the earliest pending event.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn peek_round(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((r, _, _))| *r)
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Runs the engines over a pre-built artifact bundle (the shared path; the
/// bundle's pieces are only read, never mutated). `recorder` attaches a
/// structured trace sink: the realtime engine streams its full taxonomy;
/// the static baselines (no phase loop) stream ledger claims/wait edges
/// and ancilla occupancy so utilization analytics compare across
/// schedulers.
pub(crate) fn run_with_artifacts(
    artifacts: &SimArtifacts,
    config: &SimConfig,
    recorder: Option<&dyn Recorder>,
) -> Result<ExecutionReport, SimError> {
    run_with_artifacts_probed(artifacts, config, recorder, None)
}

/// [`run_with_artifacts`] with an optional per-cycle probe (realtime engine
/// only; see [`simulate_with_cycle_probe`]).
pub(crate) fn run_with_artifacts_probed(
    artifacts: &SimArtifacts,
    config: &SimConfig,
    recorder: Option<&dyn Recorder>,
    cycle_probe: Option<&dyn Fn(u64)>,
) -> Result<ExecutionReport, SimError> {
    let fabric = Fabric::new(
        artifacts.layout.clone(),
        artifacts.graph.clone(),
        config.rounds_per_cycle(),
    );
    // Separate RNG stream per (seed, scheduler) so schedulers see the same
    // seed namespace but their own draw sequences don't alias.
    let rng = ChaCha8Rng::seed_from_u64(config.seed);
    let circuit = &artifacts.circuit;
    let dag = artifacts.dag.clone();
    match config.scheduler {
        SchedulerKind::Rescq => {
            realtime::run_realtime(circuit, dag, config, fabric, rng, recorder, cycle_probe)
        }
        kind => static_sched::run_static(circuit, dag, config, kind, fabric, rng, recorder),
    }
}

/// [`simulate`] with a hook invoked once per completed fabric cycle (the
/// cycle index is passed). The probe observes only — the schedule is
/// byte-identical with or without one. Realtime scheduler only; static
/// baselines ignore it.
///
/// This exists for the allocation-regression harness (`tests/alloc_count.rs`
/// reads a counting global allocator from inside the probe to pin "zero
/// heap allocations per steady-state cycle"); it is not a stable API.
///
/// # Errors
///
/// Same as [`simulate`].
#[doc(hidden)]
pub fn simulate_with_cycle_probe(
    circuit: &Circuit,
    config: &SimConfig,
    probe: &dyn Fn(u64),
) -> Result<ExecutionReport, SimError> {
    let artifacts = SimArtifacts::prepare(Arc::new(circuit.clone()), config)?;
    run_with_artifacts_probed(&artifacts, config, None, Some(probe))
}

/// Runs one seeded simulation of `circuit` under `config` and returns its
/// [`ExecutionReport`].
///
/// The run is fully deterministic: the same circuit, configuration and seed
/// always produce the same report.
///
/// # Errors
///
/// Returns [`SimError`] on empty circuits, unroutable layouts, scheduling
/// deadlocks, or watchdog expiry.
///
/// # Example
///
/// ```
/// use rescq_circuit::{Angle, Circuit};
/// use rescq_sim::{simulate, SimConfig};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1).rz(1, Angle::radians(0.4));
/// let report = simulate(&c, &SimConfig::default()).unwrap();
/// assert!(report.total_cycles() > 0.0);
/// ```
pub fn simulate(circuit: &Circuit, config: &SimConfig) -> Result<ExecutionReport, SimError> {
    simulate_traced(circuit, config, None)
}

/// [`simulate`] with an optional structured-trace [`Recorder`] attached.
///
/// The recorder only *observes*: the schedule — and every schedule-derived
/// field of the report — is byte-identical with or without one
/// (property-tested in `tests/telemetry.rs`). Tracing adds
/// per-phase wall-clock to [`ExecutionReport::phase_nanos`] and streams
/// cycle-scoped events (phases, ledger arbitration and wait edges,
/// decoder windows, route plans, stalls, ancilla occupancy) into the
/// recorder.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_traced(
    circuit: &Circuit,
    config: &SimConfig,
    recorder: Option<&dyn Recorder>,
) -> Result<ExecutionReport, SimError> {
    let artifacts = SimArtifacts::prepare(Arc::new(circuit.clone()), config)?;
    run_with_artifacts(&artifacts, config, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_queue_orders_by_time_then_insertion() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.push(10, "b");
        q.push(5, "a");
        q.push(10, "c");
        assert_eq!(q.peek_round(), Some(5));
        assert_eq!(q.pop(), Some((5, "a")));
        assert_eq!(q.pop(), Some((10, "b")));
        assert_eq!(q.pop(), Some((10, "c")));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn empty_circuit_rejected() {
        let c = Circuit::new(0);
        let err = simulate(&c, &SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::BadInput(_)));
    }
}
