//! The `sim` binary's config-file format: a tiny documented `key = value`
//! dialect with `#` comments, mirroring the artifact's workflow without
//! pulling a TOML dependency (see `DESIGN.md` §4.9).
//!
//! ```text
//! # rescq simulation config
//! benchmark = dnn_n16
//! scheduler = rescq        # rescq | greedy | autobraid
//! distance = 7
//! physical_error_rate = 1e-4
//! k = 25                   # or `k = dynamic`
//! activity_window = 100
//! compression = 0.0
//! seeds = 10
//! base_seed = 1
//! priority_classes = factory>injection>compute>speculative  # or `off` (default)
//! decoder = adaptive       # ideal | fixed | adaptive | union_find
//! decoder_throughput = 0.5 # syndrome rounds decoded per round
//! decoder_workers = 4      # adaptive only
//! ```

use rescq_core::{ClassLattice, KPolicy, SchedulerKind};
use rescq_decoder::DecoderKind;
use rescq_sim::SimConfig;
use std::fmt;

/// A parsed experiment request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Benchmark name from Table 3 (or `file:<path>` for a circuit file).
    pub benchmark: String,
    /// Simulation configuration.
    pub config: SimConfig,
    /// Number of seeded runs.
    pub seeds: u64,
    /// First seed.
    pub base_seed: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            benchmark: "dnn_n16".to_string(),
            config: SimConfig::default(),
            seeds: 10,
            base_seed: 1,
        }
    }
}

/// Error from config parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Parses the config text into a [`RunSpec`]. Unknown keys are errors so
/// typos surface immediately. The retired `engine_threads` key is still
/// accepted and ignored, with a warning on stderr.
pub fn parse_config(text: &str) -> Result<RunSpec, ConfigError> {
    let mut spec = RunSpec::default();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
        let (key, value) = (key.trim(), value.trim());
        let parse_f64 = |v: &str| -> Result<f64, ConfigError> {
            v.parse()
                .map_err(|_| err(lineno, format!("bad number `{v}`")))
        };
        let parse_u64 = |v: &str| -> Result<u64, ConfigError> {
            v.parse()
                .map_err(|_| err(lineno, format!("bad integer `{v}`")))
        };
        match key {
            "benchmark" => spec.benchmark = value.to_string(),
            "scheduler" => {
                spec.config.scheduler =
                    value.parse::<SchedulerKind>().map_err(|e| err(lineno, e))?;
            }
            "distance" | "d" => spec.config.distance = parse_u64(value)? as u32,
            "physical_error_rate" | "p" => {
                spec.config.physical_error_rate = parse_f64(value)?;
            }
            "k" => {
                spec.config.k_policy = if value.eq_ignore_ascii_case("dynamic") {
                    KPolicy::Dynamic { max_concurrent: 2 }
                } else {
                    KPolicy::Fixed(parse_u64(value)? as u32)
                };
            }
            "activity_window" | "c" => {
                spec.config.activity_window = parse_u64(value)? as u32;
            }
            "compression" => spec.config.compression = parse_f64(value)?,
            "compression_seed" => spec.config.compression_seed = parse_u64(value)?,
            "seeds" | "number_of_runs" => spec.seeds = parse_u64(value)?.max(1),
            "base_seed" | "seed" => spec.base_seed = parse_u64(value)?,
            "max_cycles" => spec.config.max_cycles = parse_u64(value)?,
            "engine_threads" => eprintln!(
                "warning: config line {lineno}: `engine_threads` is ignored: the engine is \
                 single-threaded, and as a sweep axis it no longer multiplies jobs"
            ),
            "priority_classes" => {
                spec.config.priority_classes =
                    ClassLattice::parse_setting(value).map_err(|e| err(lineno, e))?;
            }
            "block_columns" => {
                spec.config.block_columns = Some(parse_u64(value)? as u32);
            }
            "decoder" => {
                spec.config.decoder.kind =
                    value.parse::<DecoderKind>().map_err(|e| err(lineno, e))?;
            }
            "decoder_throughput" => spec.config.decoder.throughput = parse_f64(value)?,
            "decoder_base_latency" => spec.config.decoder.base_latency = parse_u64(value)?,
            "decoder_workers" => {
                spec.config.decoder.workers = parse_u64(value)?.max(1) as usize;
            }
            "decoder_ring_capacity" => {
                spec.config.decoder.ring_capacity = parse_u64(value)?.max(1) as usize;
            }
            "decoder_prep" => {
                spec.config.decoder.decode_prep = match value.to_ascii_lowercase().as_str() {
                    "true" | "1" | "on" | "yes" => true,
                    "false" | "0" | "off" | "no" => false,
                    other => return Err(err(lineno, format!("bad bool `{other}`"))),
                };
            }
            other => return Err(err(lineno, format!("unknown key `{other}`"))),
        }
    }
    Ok(spec)
}

/// Serializes a [`RunSpec`] back to config text (round-trip tested).
pub fn write_config(spec: &RunSpec) -> String {
    let k = match spec.config.k_policy {
        KPolicy::Fixed(k) => k.to_string(),
        KPolicy::Dynamic { .. } => "dynamic".to_string(),
    };
    let mut out = format!(
        "benchmark = {}\nscheduler = {}\ndistance = {}\nphysical_error_rate = {:e}\nk = {}\nactivity_window = {}\ncompression = {}\nseeds = {}\nbase_seed = {}\n",
        spec.benchmark,
        spec.config.scheduler,
        spec.config.distance,
        spec.config.physical_error_rate,
        k,
        spec.config.activity_window,
        spec.config.compression,
        spec.seeds,
        spec.base_seed,
    );
    if let Some(cols) = spec.config.block_columns {
        out.push_str(&format!("block_columns = {cols}\n"));
    }
    if let Some(lattice) = &spec.config.priority_classes {
        out.push_str(&format!("priority_classes = {lattice}\n"));
    }
    if spec.config.decoder != rescq_decoder::DecoderConfig::default() {
        let d = &spec.config.decoder;
        out.push_str(&format!(
            "decoder = {}\ndecoder_throughput = {}\ndecoder_base_latency = {}\ndecoder_workers = {}\ndecoder_ring_capacity = {}\n",
            d.kind, d.throughput, d.base_latency, d.workers, d.ring_capacity
        ));
        if d.decode_prep {
            out.push_str("decoder_prep = true\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let text = r#"
# an experiment
benchmark = qft_n18
scheduler = autobraid   # baseline
distance = 9
physical_error_rate = 1e-5
k = 50
activity_window = 100
compression = 0.5
seeds = 4
base_seed = 7
"#;
        let spec = parse_config(text).unwrap();
        assert_eq!(spec.benchmark, "qft_n18");
        assert_eq!(spec.config.scheduler, SchedulerKind::Autobraid);
        assert_eq!(spec.config.distance, 9);
        assert_eq!(spec.config.k_policy, KPolicy::Fixed(50));
        assert_eq!(spec.seeds, 4);
        assert_eq!(spec.base_seed, 7);
        assert!((spec.config.compression - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dynamic_k() {
        let spec = parse_config("k = dynamic\n").unwrap();
        assert!(matches!(spec.config.k_policy, KPolicy::Dynamic { .. }));
    }

    #[test]
    fn unknown_key_rejected() {
        let e = parse_config("warp_speed = 9\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("warp_speed"));
    }

    #[test]
    fn bad_value_reports_line() {
        let e = parse_config("benchmark = x\ndistance = seven\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn round_trip() {
        let mut spec = RunSpec {
            benchmark: "wstate_n27".into(),
            seeds: 3,
            ..RunSpec::default()
        };
        spec.config.distance = 11;
        spec.config.compression = 0.25;
        let parsed = parse_config(&write_config(&spec)).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn decoder_keys_parse_and_round_trip() {
        let spec = parse_config(
            "decoder = adaptive\ndecoder_throughput = 0.5\ndecoder_workers = 8\ndecoder_ring_capacity = 32\ndecoder_base_latency = 3\ndecoder_prep = true\n",
        )
        .unwrap();
        assert_eq!(spec.config.decoder.kind, DecoderKind::Adaptive);
        assert!((spec.config.decoder.throughput - 0.5).abs() < 1e-12);
        assert_eq!(spec.config.decoder.workers, 8);
        assert_eq!(spec.config.decoder.ring_capacity, 32);
        assert_eq!(spec.config.decoder.base_latency, 3);
        assert!(spec.config.decoder.decode_prep);
        let parsed = parse_config(&write_config(&spec)).unwrap();
        assert_eq!(parsed, spec);
        assert!(parse_config("decoder = warp\n").is_err());
        assert!(parse_config("decoder_prep = maybe\n").is_err());
    }

    #[test]
    fn default_config_omits_decoder_keys() {
        assert!(!write_config(&RunSpec::default()).contains("decoder"));
    }

    #[test]
    fn retired_engine_threads_key_is_ignored() {
        // Configs written before the engine became single-threaded still
        // parse, to the same spec as without the key.
        let base = "benchmark = ising_n34\nseeds = 2\n";
        let without = parse_config(base).unwrap();
        for value in ["1", "4", "0"] {
            let with = parse_config(&format!("{base}engine_threads = {value}\n")).unwrap();
            assert_eq!(with, without, "engine_threads = {value}");
        }
        assert!(!write_config(&without).contains("engine_threads"));
    }

    #[test]
    fn priority_classes_key_parses_and_round_trips() {
        let spec =
            parse_config("priority_classes = factory>injection>compute>speculative\n").unwrap();
        assert_eq!(spec.config.priority_classes, Some(ClassLattice::default()));
        let text = write_config(&spec);
        assert!(text.contains("priority_classes = factory>injection>compute>speculative"));
        assert_eq!(parse_config(&text).unwrap(), spec);
        // `off` and absence both mean class-blind; the default stays out of
        // written configs.
        assert_eq!(
            parse_config("priority_classes = off\n")
                .unwrap()
                .config
                .priority_classes,
            None
        );
        assert!(!write_config(&RunSpec::default()).contains("priority_classes"));
        // A lattice missing a canonical class is rejected with the line.
        let e = parse_config("priority_classes = factory>compute>speculative\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("injection"));
    }

    #[test]
    fn artifact_alias_number_of_runs() {
        let spec = parse_config("number_of_runs = 50\n").unwrap();
        assert_eq!(spec.seeds, 50);
    }
}
