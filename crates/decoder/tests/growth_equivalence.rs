//! Cluster-local growth against the full-edge-scan growth it replaced.
//!
//! `reference_decode_syndrome` below is the union-find decoder as it was
//! when every growth iteration scanned all edge ids of the detector graph
//! and ran two DSU `find`s per edge. The crate's decoder walks only the
//! chosen cluster's member ring and grows its sorted incident edges; the
//! contract is that nothing observable changed. Every `DecodeOutcome`
//! field (correction, defects, growth steps, merges, peeled edges,
//! boundary peels, work units) must be identical on a seeded grid over
//! distance, window length and physical error rate.

use rescq_decoder::{
    decode_chain, decode_syndrome, sample_error, ClusterDsu, DecodeOutcome, DetectorGraph,
    SyndromeBits,
};

/// The decoder before cluster-local growth, verbatim: full-edge-scan
/// growth, then peeling.
fn reference_decode_syndrome(graph: &DetectorGraph, syndrome: &SyndromeBits) -> DecodeOutcome {
    debug_assert_eq!(syndrome.len(), graph.num_detectors());
    let n = graph.num_nodes();
    let mut dsu = ClusterDsu::new(n);
    dsu.set_boundary(graph.top());
    dsu.set_boundary(graph.bottom());
    let defects: Vec<u32> = syndrome.iter_ones().collect();
    for &v in &defects {
        dsu.flip_parity(v);
    }

    // Growth, smallest cluster first (the Delfosse–Nickerson rule): each
    // iteration picks the smallest still-active cluster (odd parity, no
    // boundary contact; ties broken by root id, so growth is fully
    // deterministic) and grows every edge on its boundary by one
    // half-step. Fully grown edges merge their endpoint clusters. Growing
    // one cluster at a time keeps erasures tight — a cluster that reaches
    // even parity or a boundary stops before flooding its neighborhood,
    // which is what makes peeled corrections track minimum-weight ones on
    // low-weight errors.
    //
    // Terminates: an active cluster always has an incident not-fully-grown
    // edge (a cluster closed under full-support adjacency spans the whole
    // connected graph, boundaries included, and boundary contact
    // deactivates it), so every iteration raises some edge's support and
    // total support is bounded by `2·edges`.
    let mut support = vec![0u8; graph.num_edges() as usize];
    let mut growth_steps = 0u64;
    let mut merges = 0u64;
    let mut to_union: Vec<[u32; 2]> = Vec::new();
    loop {
        let mut smallest: Option<(u32, u32)> = None;
        for &v in &defects {
            if dsu.cluster_active(v) {
                let root = dsu.find(v);
                let key = (dsu.cluster_size(root), root);
                if smallest.is_none_or(|best| key < best) {
                    smallest = Some(key);
                }
            }
        }
        let Some((_, root)) = smallest else { break };
        to_union.clear();
        for e in 0..graph.num_edges() {
            if support[e as usize] >= 2 {
                continue;
            }
            let [a, b] = graph.endpoints(e);
            if dsu.find(a) != root && dsu.find(b) != root {
                continue;
            }
            support[e as usize] += 1;
            growth_steps += 1;
            if support[e as usize] >= 2 {
                to_union.push([a, b]);
            }
        }
        for &[a, b] in &to_union {
            if dsu.union(a, b).is_some() {
                merges += 1;
            }
        }
    }

    // Peeling: build a spanning forest of the erasure (fully grown edges),
    // rooting trees at the boundary vertices first so clusters that
    // touched a boundary peel their parity into it. Then walk vertices in
    // reverse discovery order, moving each defect mark up its tree edge.
    let mut parent_edge = vec![u32::MAX; n as usize];
    let mut visited = vec![false; n as usize];
    let mut order: Vec<u32> = Vec::new();
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    let mut erasure_visits = 0u64;
    let roots = [graph.top(), graph.bottom()];
    let starts = roots.iter().copied().chain(0..graph.num_detectors());
    for start in starts {
        if visited[start as usize] {
            continue;
        }
        visited[start as usize] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            erasure_visits += 1;
            for &e in graph.incident(v) {
                if support[e as usize] < 2 {
                    continue;
                }
                let [a, b] = graph.endpoints(e);
                let w = if a == v { b } else { a };
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    parent_edge[w as usize] = e;
                    order.push(w);
                    queue.push_back(w);
                }
            }
        }
    }
    let mut correction = SyndromeBits::new(graph.num_edges());
    let mut marks = syndrome.clone();
    let mut peeled_edges = 0u64;
    let mut boundary_peels = 0u64;
    for &v in order.iter().rev() {
        if graph.is_boundary(v) || !marks.get(v) {
            continue;
        }
        let e = parent_edge[v as usize];
        debug_assert_ne!(e, u32::MAX, "defect {v} outside the erasure forest");
        correction.set(e);
        peeled_edges += 1;
        marks.clear(v);
        let [a, b] = graph.endpoints(e);
        let u = if a == v { b } else { a };
        if graph.is_boundary(u) {
            boundary_peels += 1;
        } else {
            marks.toggle(u);
        }
    }
    debug_assert_eq!(
        marks.popcount(),
        0,
        "peeling must consume every defect (clusters end even or boundary-attached)"
    );
    debug_assert_eq!(
        graph.syndrome_of(&correction),
        *syndrome,
        "correction must reproduce the observed syndrome"
    );

    // The latency work model: unpack the packed syndrome words
    // (O(words) + O(popcount)), then the growth and peeling work.
    let scan_words = syndrome.num_words() as u64;
    let defect_count = defects.len() as u64;
    let work_units = scan_words + 2 * defect_count + growth_steps + erasure_visits + peeled_edges;
    DecodeOutcome {
        correction,
        defects: defect_count as u32,
        growth_steps,
        merges,
        peeled_edges,
        boundary_peels,
        work_units,
    }
}

/// The comparable content of an outcome.
fn key(o: &DecodeOutcome) -> (Vec<u32>, u32, u64, u64, u64, u64, u64) {
    (
        o.correction.iter_ones().collect(),
        o.defects,
        o.growth_steps,
        o.merges,
        o.peeled_edges,
        o.boundary_peels,
        o.work_units,
    )
}

/// Mixes a cell and sample index into a pinned stream seed.
fn cell_seed(d: u32, rounds: u32, p_idx: usize, sample: u64) -> u64 {
    let mut z =
        0x6E0_u64 ^ ((d as u64) << 48) ^ ((rounds as u64) << 40) ^ ((p_idx as u64) << 32) ^ sample;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

const ERROR_RATES: [f64; 5] = [1e-3, 1e-2, 3e-2, 0.1, 0.3];
const SEEDS: u64 = 200;

/// Checks every `(rounds, p, seed)` cell at distance `d`.
fn check_distance(d: u32) {
    let mut round_counts = vec![1, 3, d];
    round_counts.dedup();
    let (mut merged, mut boundary_peeled) = (0, 0);
    for rounds in round_counts {
        let graph = DetectorGraph::new(d, rounds);
        for (p_idx, &p) in ERROR_RATES.iter().enumerate() {
            for sample in 0..SEEDS {
                let error = sample_error(&graph, p, cell_seed(d, rounds, p_idx, sample));
                let syndrome = graph.syndrome_of(&error);
                let want = reference_decode_syndrome(&graph, &syndrome);
                assert_eq!(
                    key(&decode_chain(&graph, &error)),
                    key(&want),
                    "decode_chain: d={d} rounds={rounds} p={p} sample {sample}"
                );
                assert_eq!(
                    key(&decode_syndrome(&graph, &syndrome)),
                    key(&want),
                    "decode_syndrome: d={d} rounds={rounds} p={p} sample {sample}"
                );
                merged += (want.merges > 0) as u64;
                boundary_peeled += (want.boundary_peels > 0) as u64;
            }
        }
    }
    assert!(
        merged > 0 && boundary_peeled > 0,
        "d={d}: the grid must merge clusters and peel into boundaries"
    );
}

#[test]
fn d3_growth_matches_full_edge_scan() {
    check_distance(3);
}

#[test]
fn d5_growth_matches_full_edge_scan() {
    check_distance(5);
}

#[test]
fn d7_growth_matches_full_edge_scan() {
    check_distance(7);
}

#[test]
fn d9_growth_matches_full_edge_scan() {
    check_distance(9);
}
