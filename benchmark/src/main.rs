//! The RESCQ reproduction's benchmark: one workload per invocation,
//! end-to-end metrics from an untraced pass (`--trace 0`) or per-layer
//! metrics from a traced pass (`--trace 1`). See README.md.
//!
//! ```text
//! rescq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod bench;
mod calib;
mod decoder;
mod engine;
mod spans;
mod stats;
mod sweep;

use bench::{Args, Bench};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: rescq-benchmark --workload <ising420_c50|qft160_full|stress160_uf|table3_sweep> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| bad("expected whole seconds"))?;
                if !(1..=3600).contains(&s) {
                    return Err(bad("expected 1..=3600"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let known = engine::WORKLOADS.iter().any(|w| w.name == workload) || workload == "table3_sweep";
    if !known {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut b = Bench::new(args);
    match engine::WORKLOADS.iter().find(|w| w.name == b.args.workload) {
        Some(w) => engine::run(&mut b, w),
        None => sweep::run(&mut b),
    }
    if b.args.trace {
        decoder::run(&mut b);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload qft160_full --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("qft160_full", 7, true)
        );
        assert_eq!(a.seconds, Duration::from_secs(10));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload table3_sweep --seed x --seconds 1 --trace 0").is_err());
        assert!(parse("--workload table3_sweep --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload table3_sweep --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload table3_sweep --seed 1 --seconds 1").is_err());
        assert!(parse("--workload table3_sweep --seed").is_err());
    }
}
