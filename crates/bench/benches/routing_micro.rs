//! §5.4.2 micro-benchmark: Algorithm-1 path selection with the per-MST
//! path cache (amortized O(1) per CNOT), plus ancilla-queue operations.

use rescq_bench::{print_header, time_calls};
use rescq_circuit::{Angle, QubitId};
use rescq_core::{
    plan_cnot_route, AncillaQueue, PathCache, QueueEntry, Role, SurgeryCosts, TaskId,
};
use rescq_lattice::{AncillaGraph, IncrementalMst, Layout, LayoutKind, Orientation};

fn setup(n: u32) -> (Layout, AncillaGraph, IncrementalMst) {
    let layout = Layout::new(LayoutKind::Star2x2, n).unwrap();
    let graph = AncillaGraph::from_grid(layout.grid());
    let edges: Vec<(u32, u32, u32)> = graph.edges().iter().map(|&(a, b)| (a, b, 0)).collect();
    let mst = IncrementalMst::new(graph.len(), &edges);
    (layout, graph, mst)
}

const SAMPLES: usize = 20;

fn main() {
    print_header(
        "Routing micro-benchmark — Algorithm 1 and ancilla queues",
        "100-qubit Star2x2 fabric, CNOT q3 -> q87",
    );
    let (layout, graph, mst) = setup(100);
    let orientations = vec![Orientation::Standard; 100];
    let costs = SurgeryCosts::default();

    time_calls("algorithm1_cold_cache", SAMPLES, || {
        let mut cache = PathCache::new();
        plan_cnot_route(
            &layout,
            &graph,
            &mst,
            0,
            &mut cache,
            QubitId(3),
            QubitId(87),
            &orientations,
            &costs,
            7,
            |_| 0,
        )
    });

    let mut cache = PathCache::new();
    time_calls("algorithm1_warm_cache", SAMPLES, || {
        plan_cnot_route(
            &layout,
            &graph,
            &mst,
            0,
            &mut cache,
            QubitId(3),
            QubitId(87),
            &orientations,
            &costs,
            7,
            |_| 0,
        )
    });

    time_calls("queue_push_update_remove", SAMPLES, || {
        let mut q = AncillaQueue::new();
        for i in 0..16u32 {
            q.push(QueueEntry::new(TaskId(i), Role::PrepZz, Angle::T));
        }
        for i in 0..16u32 {
            q.update_angle(TaskId(i), Angle::S);
        }
        for i in 0..16u32 {
            q.remove_task(TaskId(i));
        }
        q
    });
}
