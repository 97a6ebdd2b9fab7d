//! # rescq-cli
//!
//! Library side of the `sim` binary: the config-file dialect
//! ([`config_file`]) and the output helpers. The binary mirrors the paper
//! artifact's workflow: a config file (or a Table 3 benchmark name) in, a
//! summary plus optional CSV out, with subcommands regenerating each figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config_file;
pub mod output;

pub use config_file::{parse_config, write_config, ConfigError, RunSpec};
