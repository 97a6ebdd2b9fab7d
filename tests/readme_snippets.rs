//! The README's code and config snippets, compiled and executed so the
//! examples cannot rot. Each test body mirrors one fenced block in
//! `README.md` — when you edit one, edit the other.

/// README "Quick start": the Rust snippet, verbatim.
#[test]
fn quick_start_snippet_runs() {
    use rescq_repro::prelude::*;

    let circuit = rescq_repro::workloads::vqe::generate(13, 777);
    let config = SimConfig::builder()
        .distance(7)
        .physical_error_rate(1e-4)
        .scheduler(SchedulerKind::Rescq)
        .seed(42)
        .build();
    let report = simulate(&circuit, &config).expect("simulation runs");
    assert!(report.total_cycles() > 0.0);
}

/// README "Priority classes": the config-file snippet, verbatim, through
/// the real parser.
#[test]
fn priority_classes_config_snippet_parses() {
    let snippet = "\
# rescq simulation config
benchmark = factory_n12
compression = 0.25
priority_classes = factory>injection>compute>speculative
seeds = 10
";
    let spec = rescq_cli::parse_config(snippet).expect("README config snippet must parse");
    assert_eq!(spec.benchmark, "factory_n12");
    assert!((spec.config.compression - 0.25).abs() < 1e-12);
    assert_eq!(spec.seeds, 10);
    let lattice = spec
        .config
        .priority_classes
        .expect("snippet enables the lattice");
    assert_eq!(lattice.to_string(), "factory>injection>compute>speculative");
    // The workload the snippet names must exist.
    assert!(rescq_repro::workloads::generate(&spec.benchmark, 1).is_some());
}

/// README "Parameter sweeps": the spec-file snippet, verbatim, through the
/// real parser.
#[test]
fn sweep_spec_snippet_parses() {
    let snippet = r#"
[sweep]
workloads    = ["dnn_n16", "gcm_n13"]    # Table 3 names or "file:<path>"
schedulers   = ["rescq", "greedy"]       # default ["rescq"]
distances    = [7]                       # default [7]
error_rates  = [1e-4]                    # default [1e-4]
k            = [25, "dynamic"]           # default [25]
compressions = [0.0, 0.5]                # default [0.0]
decoders     = ["ideal", "fixed:0.5", "adaptive:1x4"]  # default ["ideal"]
priority_classes = ["off", "factory>injection>compute>speculative"]  # default ["off"]
seeds        = 10                        # runs per point, default 3
base_seed    = 1
decode_prep  = false                     # route prep verification through the decoder
"#;
    let spec = rescq_repro::harness::SweepSpec::parse(snippet).expect("README sweep spec parses");
    // 2 workloads x 2 schedulers x 2 k x 2 compressions x 3 decoders x
    // 2 priority points.
    assert_eq!(spec.num_points(), 2 * 2 * 2 * 2 * 3 * 2);
    assert_eq!(spec.seeds, 10);
    assert_eq!(spec.priority.len(), 2);
    assert!(spec.priority[0].is_none());
    assert!(spec.priority[1].is_some());
}
