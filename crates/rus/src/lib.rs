//! # rescq-rus
//!
//! Repeat-until-success (RUS) models for continuous-angle magic-state
//! architectures: non-deterministic `|mθ⟩` preparation
//! ([`PreparationModel`], paper Appendix A.1 / Fig 16), the two injection
//! strategies and their correction ladder ([`InjectionLadder`], §3.2 /
//! Table 1 / Eq. 1), and the Clifford+T comparator used by Fig 3 and
//! Appendix A.2 ([`clifford_t`]).
//!
//! # Quick example
//!
//! ```
//! use rand::SeedableRng;
//! use rescq_rus::{PreparationModel, RusParams};
//!
//! let model = PreparationModel::new(RusParams::new(7, 1e-4));
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let rounds = model.sample_prep_rounds(&mut rng);
//! assert!(rounds >= 1);
//! assert!(model.expected_cycles() < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clifford_t;
mod inject;
mod params;
mod prep;

pub use clifford_t::{
    clifford_t_overhead, fig3_series, max_rotations, rus_rz_expected_cycles, CompilationScheme,
    Fig3Row, TFactoryModel,
};
pub use inject::{expected_injections, InjectionLadder, InjectionStrategy, LadderStep};
pub use params::{PrepCalibration, RusParams};
pub use prep::PreparationModel;
