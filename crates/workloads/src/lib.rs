//! # rescq-workloads
//!
//! Regenerated benchmark circuits for every row of the RESCQ paper's Table 3
//! (QASMBench medium/large and SupermarQ families), compiled to the
//! Clifford+Rz basis `{rz, h, x, cx}`. Most families reproduce the paper's
//! `#Rz` / `#CNOT` counts exactly; see [`ALL_BENCHMARKS`] for the registry
//! and the per-family modules in [`families`] for the constructions.
//!
//! # Quick example
//!
//! ```
//! use rescq_workloads::{generate, ALL_BENCHMARKS};
//!
//! let qft = generate("qft_n29", 1).unwrap();
//! assert_eq!(qft.stats().cnot, 680); // Table 3, exactly
//! assert_eq!(ALL_BENCHMARKS.len(), 23);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod common;
pub mod families;
mod suite;

pub use common::AngleStream;
pub use families::{
    decoder_stress, dnn, factory, gcm, hamiltonian_simulation, ising, multiplier,
    qaoa_fermionic_swap, qaoa_vanilla, qft, qugan, vqe, wstate,
};
pub use suite::{find, generate, BenchmarkSpec, Family, Suite, ALL_BENCHMARKS, REPRESENTATIVE};
