//! §5.4.1 micro-benchmark: MST maintenance and tree-path query cost.
//!
//! The paper reports ≈92 µs per k=200 update batch on a 100×100 grid and
//! ≈330 µs on 1000×1000 (M2 MacBook Air) for its per-edge update scheme.
//! This bench times what the simulator runs instead: one
//! `IncrementalMst::set_weights` batch Kruskal rebuild with 200 changed
//! edge weights, and `tree_path_into` queries on the rooted tree.
//! `RESCQ_BENCH_FULL=1` adds the 1000×1000 grid.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rescq_bench::{bench_scale, print_header, time_calls, BenchScale};
use rescq_lattice::IncrementalMst;

/// Changed edge weights per rebuild (the paper's k = 200 batch).
const CHANGES: usize = 200;
/// Tree-path queries per timed call.
const QUERIES: usize = 1000;

fn grid_edges(side: u32, rng: &mut ChaCha8Rng) -> Vec<(u32, u32, u32)> {
    let mut edges = Vec::new();
    for y in 0..side {
        for x in 0..side {
            let i = y * side + x;
            if x + 1 < side {
                edges.push((i, i + 1, rng.gen_range(0..100u32)));
            }
            if y + 1 < side {
                edges.push((i, i + side, rng.gen_range(0..100u32)));
            }
        }
    }
    edges
}

fn bench_grid(side: u32, samples: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(54);
    let edges = grid_edges(side, &mut rng);
    let num_nodes = (side * side) as usize;
    let mut mst = IncrementalMst::new(num_nodes, &edges);
    let mut weights: Vec<u32> = edges.iter().map(|e| e.2).collect();

    // Every call redraws CHANGES edge weights to a different value, then
    // applies the snapshot: one full Kruskal pass plus re-rooting.
    let changes: Vec<u32> = (0..CHANGES)
        .map(|_| rng.gen_range(0..edges.len() as u32))
        .collect();
    let mut round = 0u32;
    time_calls(
        &format!("set_weights_{side}x{side}_{CHANGES}_changed"),
        samples,
        || {
            round += 1;
            for &e in &changes {
                let w = &mut weights[e as usize];
                *w = (*w + 1 + round % 99) % 100;
            }
            mst.set_weights(&weights)
        },
    );

    let pairs: Vec<(u32, u32)> = (0..QUERIES)
        .map(|_| {
            (
                rng.gen_range(0..num_nodes as u32),
                rng.gen_range(0..num_nodes as u32),
            )
        })
        .collect();
    let mut path = Vec::with_capacity(num_nodes);
    time_calls(
        &format!("tree_path_into_{side}x{side}_x{QUERIES}"),
        samples,
        || {
            let mut nodes = 0;
            for &(a, b) in &pairs {
                mst.tree_path_into(a, b, &mut path);
                nodes += path.len();
            }
            nodes
        },
    );
}

fn main() {
    print_header(
        "MST micro-benchmark — batch Kruskal rebuild and rooted-tree paths",
        "paper §5.4.1 per-edge scheme: ~92 us / k=200 batch at 100x100, ~330 us at 1000x1000",
    );
    // A fabric-sized grid (420-qubit benchmark ⇒ ~36×36 ancilla network)
    // and the paper's two measurement points.
    bench_grid(36, 20);
    bench_grid(100, 10);
    if bench_scale() == BenchScale::Full {
        bench_grid(1000, 10);
    }
}
