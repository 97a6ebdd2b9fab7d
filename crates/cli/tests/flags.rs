//! `sim` rejects flags it does not know instead of silently ignoring them.

use std::process::{Command, Output};

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sim"))
        .args(args)
        .output()
        .expect("sim binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flags_are_errors_on_every_subcommand() {
    for args in [
        &["bench", "wstate_n27", "--seeds", "1", "--bogus-flag", "3"][..],
        &["run", "missing.cfg", "--bogus-flag"],
        &["analyze", "missing.json", "--bogus-flag"],
        &["sweep", "missing.toml", "--bogus-flag"],
        &["fig", "3", "--bogus-flag"],
    ] {
        let out = sim(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr(&out).contains("unknown flag `--bogus-flag`"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn engine_threads_flag_names_its_removal() {
    for sub in [
        &["bench", "wstate_n27", "--seeds", "1"][..],
        &["run", "missing.cfg"],
        &["analyze", "missing.json"],
    ] {
        let args: Vec<&str> = sub
            .iter()
            .copied()
            .chain(["--engine-threads", "2"])
            .collect();
        let out = sim(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(
            err.contains("`--engine-threads` was removed") && err.contains("single-threaded"),
            "{args:?}: {err}"
        );
    }
}
