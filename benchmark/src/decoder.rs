//! The decoder layer on its own: timed `decode_chain` calls on the per-tile
//! detector graph, at the distances and error rates that bracket the
//! `union_find` workload.

use crate::bench::{derive_seed, Bench};
use crate::stats;
use rescq_decoder::{decode_chain, sample_error, DetectorGraph};
use std::time::{Duration, Instant};

/// `(distance, error rate, windows per timed batch, metric)`. Batch sizes
/// keep each batch in the millisecond range.
const POINTS: [(u32, f64, usize, &str); 6] = [
    (3, 1e-3, 4096, "decoder.ns_per_window.d3.p1e-3"),
    (3, 1e-2, 4096, "decoder.ns_per_window.d3.p1e-2"),
    (5, 1e-3, 1024, "decoder.ns_per_window.d5.p1e-3"),
    (5, 1e-2, 1024, "decoder.ns_per_window.d5.p1e-2"),
    (7, 1e-3, 256, "decoder.ns_per_window.d7.p1e-3"),
    (7, 1e-2, 256, "decoder.ns_per_window.d7.p1e-2"),
];
/// Distinct sampled errors per point; batches cycle through them.
const ERRORS: usize = 256;
/// Each point is timed for at least this long and this many batches.
const MIN_TIME: Duration = Duration::from_millis(150);
const MIN_BATCHES: usize = 5;

/// Times every point and checks every correction: it must reproduce the
/// syndrome of the sampled error.
pub fn run(b: &mut Bench) {
    for (k, &(d, p, batch, metric)) in POINTS.iter().enumerate() {
        let graph = DetectorGraph::new(d, d);
        let errors: Vec<_> = (0..ERRORS)
            .map(|i| {
                sample_error(
                    &graph,
                    p,
                    derive_seed(b.args.seed, (1000 * (k + 1) + i) as u64),
                )
            })
            .collect();
        let syndromes: Vec<_> = errors.iter().map(|e| graph.syndrome_of(e)).collect();
        let span = format!("decoder.decode_chain.d{d}.p{p:e}");
        let mut per_window_ns = Vec::new();
        let started = Instant::now();
        while per_window_ns.len() < MIN_BATCHES || started.elapsed() < MIN_TIME {
            let t0 = Instant::now();
            let outcomes = b.spans.root(&span, |_| {
                (0..batch)
                    .map(|i| decode_chain(&graph, &errors[i % ERRORS]))
                    .collect::<Vec<_>>()
            });
            per_window_ns.push(t0.elapsed().as_nanos() as f64 / batch as f64);
            for (i, outcome) in outcomes.iter().enumerate() {
                let reproduced = graph.syndrome_of(&outcome.correction) == syndromes[i % ERRORS];
                b.settle(if reproduced {
                    Vec::new()
                } else {
                    vec![format!(
                        "d={d} p={p} error #{}: correction misses the syndrome",
                        i % ERRORS
                    )]
                });
            }
        }
        b.set(metric, stats::median(&per_window_ns), per_window_ns.len());
    }
}
