//! Formatting and sizing helpers shared by the experiment benches.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How large an experiment to run.
///
/// `cargo bench` runs at [`BenchScale::Reduced`] by default so the full
/// workspace bench suite terminates in minutes; set `RESCQ_BENCH_FULL=1` to
/// run the paper-sized sweep (all benchmarks, more seeds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// Few seeds, representative benchmark subset.
    Reduced,
    /// Paper-sized sweep.
    Full,
}

impl BenchScale {
    /// Number of seeded runs per configuration.
    pub fn seeds(self) -> u64 {
        match self {
            BenchScale::Reduced => 3,
            BenchScale::Full => 10,
        }
    }
}

/// Reads the scale from the `RESCQ_BENCH_FULL` environment variable.
pub fn bench_scale() -> BenchScale {
    match std::env::var("RESCQ_BENCH_FULL") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => BenchScale::Full,
        _ => BenchScale::Reduced,
    }
}

/// Prints an experiment header box.
pub fn print_header(title: &str, detail: &str) {
    println!();
    println!("=== {title} ===");
    if !detail.is_empty() {
        println!("    {detail}");
    }
}

/// Prints one aligned row of `label: value` pairs.
pub fn print_row(label: &str, cols: &[(&str, &dyn Display)]) {
    print!("{label:<28}");
    for (name, value) in cols {
        print!("  {name}={value}");
    }
    println!();
}

/// Times `routine` over `samples` calls after one untimed warm-up call and
/// prints one aligned row with the mean and minimum time per call.
pub fn time_calls<O>(label: &str, samples: usize, mut routine: impl FnMut() -> O) {
    black_box(routine());
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        black_box(routine());
        let t = start.elapsed();
        total += t;
        min = min.min(t);
    }
    let mean = total / samples.max(1) as u32;
    println!("{label:<44} mean {mean:>12.2?}   min {min:>12.2?}   ({samples} samples)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_by_default() {
        // Does not read the env var: explicit values only.
        assert_eq!(BenchScale::Reduced.seeds(), 3);
        assert!(BenchScale::Full.seeds() > BenchScale::Reduced.seeds());
    }
}
