//! # rescq-repro
//!
//! Meta-crate for the RESCQ reproduction workspace. Re-exports every member
//! crate under a stable set of names so that examples and integration tests can
//! exercise the full public API through a single dependency.
//!
//! The interesting code lives in the member crates:
//!
//! - [`circuit`] — Clifford+Rz gate IR, angles, DAGs, parsers
//! - [`workloads`] — Table 3 benchmark generators
//! - [`lattice`] — surface-code tile fabric, STAR layouts, MST
//! - [`rus`] — repeat-until-success preparation / injection models
//! - [`core`] — ancilla queues, dynamic MST, routing, the schedulers
//! - [`decoder`] — realtime classical-decoder models and back-pressure
//! - [`sim`] — cycle-accurate engine, metrics, multi-seed runner
//! - [`harness`] — parallel sweep orchestration with shared artifact caching
//! - [`telemetry`] — cycle-level tracing, stall attribution, perf baselines
//!
//! # Example
//!
//! ```
//! use rescq_repro::prelude::*;
//!
//! let circuit = rescq_repro::workloads::vqe::generate(13, 777);
//! let config = SimConfig::builder()
//!     .distance(7)
//!     .physical_error_rate(1e-4)
//!     .scheduler(SchedulerKind::Rescq)
//!     .seed(42)
//!     .build();
//! let report = simulate(&circuit, &config).expect("simulation runs");
//! assert!(report.total_cycles() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use rescq_circuit as circuit;
pub use rescq_core as core;
pub use rescq_decoder as decoder;
pub use rescq_harness as harness;
pub use rescq_lattice as lattice;
pub use rescq_rus as rus;
pub use rescq_sim as sim;
pub use rescq_telemetry as telemetry;
pub use rescq_workloads as workloads;

/// Commonly used items across the workspace, for glob import in examples.
pub mod prelude {
    pub use rescq_circuit::{Angle, Circuit, Gate, QubitId};
    pub use rescq_core::{KPolicy, SchedulerKind};
    pub use rescq_lattice::{Layout, LayoutKind};
    pub use rescq_sim::{simulate, ExecutionReport, SimConfig};
}
