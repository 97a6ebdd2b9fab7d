//! # rescq-circuit
//!
//! Clifford+Rz circuit intermediate representation for the RESCQ reproduction:
//! exact dyadic-π [`Angle`]s (so repeat-until-success correction ladders
//! terminate when `2^k·θ` hits a Clifford), the [`Gate`] and [`Circuit`]
//! types, the [`DependencyDag`] used by the schedulers, parsers for the
//! artifact text format ([`parser`]) and a minimal OpenQASM 2 subset
//! ([`qasm`]), and basis-gate decompositions ([`transpile`]).
//!
//! # Quick example
//!
//! ```
//! use rescq_circuit::{Angle, Circuit, DependencyDag};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cnot(0, 1).rz(1, Angle::radians(0.37));
//! assert_eq!(c.stats().rz, 1);
//!
//! let dag = DependencyDag::new(&c);
//! assert_eq!(dag.layers().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod angle;
#[allow(clippy::module_inception)]
mod circuit;
mod dag;
mod gate;
mod hash;
pub mod parser;
pub mod qasm;
pub mod transpile;

pub use angle::Angle;
pub use circuit::{Circuit, GateStats, QubitOutOfRange};
pub use dag::{asap_layers, DependencyDag};
pub use gate::{Gate, GateId, GateQubits, QubitId};
pub use hash::fnv1a_64;
pub use parser::{parse_circuit, write_circuit, ParseCircuitError};
