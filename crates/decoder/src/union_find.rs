//! The real union-find syndrome decoder: seeded error channel → bit-packed
//! syndrome → DSU cluster growth → peeling → Pauli frame.
//!
//! Unlike the latency-model decoders, decode cost here is *emergent*: every
//! window samples a fresh error configuration on the tile's detector graph
//! at physical error rate `p`, and the reported latency is derived from the
//! work the decode actually performed (syndrome-word scans, cluster-growth
//! half-steps, peeled erasure edges). Error rate and code distance thereby
//! set decode latency through the decoder's own dynamics instead of through
//! an assumed throughput curve.
//!
//! Everything is deterministic: the error stream of window `w` on tile `t`
//! is a pure function of `(channel seed, t, w)`, and windows are submitted
//! by the engines in schedule order, which is itself a pure function of the
//! configuration and seed.

use crate::dsu::ClusterDsu;
use crate::graph::DetectorGraph;
use crate::pauli_frame::PauliFrame;
use crate::syndrome::SyndromeBits;
use crate::{DecoderConfig, DecoderModel};
use std::collections::{BTreeMap, VecDeque};

/// The seeded physical error channel a union-find decoder samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorChannel {
    /// Per-edge flip probability per window (data-qubit and measurement
    /// errors alike — the phenomenological model).
    pub error_rate: f64,
    /// Base seed of the channel. Window streams are derived from
    /// `(seed, tile, window index)`, so the channel is independent of the
    /// scheduler's RNG.
    pub seed: u64,
}

impl Default for ErrorChannel {
    fn default() -> Self {
        ErrorChannel {
            error_rate: 1e-3,
            seed: 0xD6C0DE,
        }
    }
}

impl ErrorChannel {
    /// A channel at rate `p` seeded with `seed`.
    pub fn new(error_rate: f64, seed: u64) -> Self {
        ErrorChannel { error_rate, seed }
    }
}

/// Work and outcome accounting of decode activity, accumulated by the
/// runtime into [`DecoderStats`](crate::DecoderStats). Latency-model
/// decoders report all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeWork {
    /// Defects (flipped detectors) observed.
    pub defects: u64,
    /// Cluster-growth half-steps performed.
    pub growth_steps: u64,
    /// Cluster merges (DSU unions of distinct clusters).
    pub merges: u64,
    /// Erasure edges peeled into the correction.
    pub peeled_edges: u64,
    /// Windows whose residual (error ⊕ correction) crossed the logical cut.
    pub logical_failures: u64,
    /// Abstract work units the latency derivation charged.
    pub work_units: u64,
}

impl DecodeWork {
    /// Accumulates another window's work into this total.
    pub fn add(&mut self, other: &DecodeWork) {
        self.defects += other.defects;
        self.growth_steps += other.growth_steps;
        self.merges += other.merges;
        self.peeled_edges += other.peeled_edges;
        self.logical_failures += other.logical_failures;
        self.work_units += other.work_units;
    }
}

/// The full result of decoding one sampled window.
#[derive(Debug, Clone)]
pub struct DecodeOutcome {
    /// The correction chain the decoder produced (edge address space).
    pub correction: SyndromeBits,
    /// Defects in the observed syndrome.
    pub defects: u32,
    /// Cluster-growth half-steps performed.
    pub growth_steps: u64,
    /// DSU merges of distinct clusters during growth.
    pub merges: u64,
    /// Erasure edges peeled into the correction.
    pub peeled_edges: u64,
    /// Correction edges incident to a virtual boundary vertex (a "boundary
    /// peel": parity was absorbed by the code boundary).
    pub boundary_peels: u64,
    /// Work units charged for latency purposes.
    pub work_units: u64,
}

/// SplitMix64: the decoder's own tiny deterministic PRNG, so sampling the
/// channel never touches (or depends on) the scheduler's RNG stream.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// The per-window stream seed: a SplitMix64 finalizer over channel seed,
/// tile and window index.
fn window_seed(channel: u64, tile: u32, window: u64) -> u64 {
    let mut z = channel
        ^ (tile as u64).wrapping_mul(0xA24BAED4963EE407)
        ^ window.wrapping_mul(0x9FB21C651E98DF25);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Samples an iid error configuration over `graph`'s edges at rate `p`
/// from the deterministic stream `seed`.
pub fn sample_error(graph: &DetectorGraph, p: f64, seed: u64) -> SyndromeBits {
    let mut error = SyndromeBits::new(graph.num_edges());
    sample_error_into(graph, p, seed, &mut error);
    error
}

/// [`sample_error`] written into `error`, reusing its allocation.
fn sample_error_into(graph: &DetectorGraph, p: f64, seed: u64, error: &mut SyndromeBits) {
    error.reset(graph.num_edges());
    if p <= 0.0 {
        return;
    }
    let mut rng = SplitMix64::new(seed);
    // Saturating f64→u64 cast: p ≥ 1 flips every edge.
    let threshold = (p * 18_446_744_073_709_551_616.0) as u64;
    for e in 0..graph.num_edges() {
        let draw = rng.next_u64();
        if p >= 1.0 || draw < threshold {
            error.set(e);
        }
    }
}

/// Decodes the syndrome of `error` on `graph` with union-find cluster
/// growth and peeling. Pure and deterministic: the same `(graph, error)`
/// always yields the same correction and work counts.
///
/// The produced correction always reproduces the observed syndrome
/// (`graph.syndrome_of(correction) == graph.syndrome_of(error)`); whether
/// the residual crosses the logical cut is the caller's question (see
/// [`DetectorGraph::crosses_logical_cut`]).
pub fn decode_chain(graph: &DetectorGraph, error: &SyndromeBits) -> DecodeOutcome {
    let mut ws = Workspace::new();
    graph.syndrome_into(error, &mut ws.syndrome);
    ws.decode(graph).outcome(ws.correction)
}

/// Decodes an explicit syndrome on `graph` (see [`decode_chain`]).
pub fn decode_syndrome(graph: &DetectorGraph, syndrome: &SyndromeBits) -> DecodeOutcome {
    let mut ws = Workspace::new();
    ws.syndrome.copy_from(syndrome);
    ws.decode(graph).outcome(ws.correction)
}

/// [`Workspace::support`] flag of an edge already collected in the current
/// growth iteration.
const QUEUED: u8 = 0x80;
/// [`Workspace::parent_edge`] of a vertex the peeling forest has not reached.
const UNSEEN: u32 = u32::MAX;
/// [`Workspace::parent_edge`] of a peeling tree's root.
const TREE_ROOT: u32 = u32::MAX - 1;

/// The counts of one decode; the correction stays in the [`Workspace`].
#[derive(Debug)]
struct DecodeCounts {
    defects: u32,
    growth_steps: u64,
    merges: u64,
    peeled_edges: u64,
    boundary_peels: u64,
    work_units: u64,
}

impl DecodeCounts {
    fn outcome(self, correction: SyndromeBits) -> DecodeOutcome {
        DecodeOutcome {
            correction,
            defects: self.defects,
            growth_steps: self.growth_steps,
            merges: self.merges,
            peeled_edges: self.peeled_edges,
            boundary_peels: self.boundary_peels,
            work_units: self.work_units,
        }
    }
}

/// Every buffer one decode needs. A [`UnionFindDecoder`] keeps one and
/// reuses it for every window, so once it has seen a graph size a decode
/// performs no heap allocation; [`decode_chain`] and [`decode_syndrome`]
/// run the same code on a fresh one.
#[derive(Debug)]
struct Workspace {
    dsu: ClusterDsu,
    /// Defect detector ids of the syndrome, ascending.
    defects: Vec<u32>,
    /// Growth support per edge: 0, 1 (half-grown) or 2 (fully grown), with
    /// [`QUEUED`] set while the edge is in `candidates`.
    support: Vec<u8>,
    /// Edges one growth iteration grows, ascending once sorted.
    candidates: Vec<u32>,
    /// Endpoints of the edges one growth iteration fully grew.
    to_union: Vec<[u32; 2]>,
    /// Endpoints of every fully grown edge (the erasure) of the decode.
    erasure_ends: Vec<u32>,
    /// Peeling forest: the tree edge to each vertex's parent, [`UNSEEN`]
    /// before the vertex is reached, [`TREE_ROOT`] at a tree's root.
    parent_edge: Vec<u32>,
    /// Peeling forest vertices in discovery order.
    order: Vec<u32>,
    queue: VecDeque<u32>,
    /// A window's sampled error chain; after the decode, the residual.
    error: SyndromeBits,
    /// The decode input.
    syndrome: SyndromeBits,
    /// The decode output.
    correction: SyndromeBits,
    /// Peeling's defect marks.
    marks: SyndromeBits,
}

impl Workspace {
    fn new() -> Self {
        Workspace {
            dsu: ClusterDsu::new(0),
            defects: Vec::new(),
            support: Vec::new(),
            candidates: Vec::new(),
            to_union: Vec::new(),
            erasure_ends: Vec::new(),
            parent_edge: Vec::new(),
            order: Vec::new(),
            queue: VecDeque::new(),
            error: SyndromeBits::new(0),
            syndrome: SyndromeBits::new(0),
            correction: SyndromeBits::new(0),
            marks: SyndromeBits::new(0),
        }
    }

    /// Reserves every list's bound on `graph`, so that no later decode on
    /// it allocates, however many defects its window holds.
    fn reserve_for(&mut self, graph: &DetectorGraph) {
        let (n, num_edges) = (graph.num_nodes() as usize, graph.num_edges() as usize);
        self.defects.clear();
        self.defects.reserve(n);
        self.candidates.reserve(num_edges);
        self.to_union.reserve(num_edges);
        self.erasure_ends.clear();
        self.erasure_ends.reserve(2 * num_edges);
        self.order.clear();
        self.order.reserve(n);
        self.queue.reserve(n);
    }

    /// Decodes `self.syndrome` on `graph` into `self.correction`.
    fn decode(&mut self, graph: &DetectorGraph) -> DecodeCounts {
        debug_assert_eq!(self.syndrome.len(), graph.num_detectors());
        let n = graph.num_nodes();
        let num_edges = graph.num_edges() as usize;
        self.defects.clear();
        self.erasure_ends.clear();
        self.order.clear();
        let dsu = &mut self.dsu;
        dsu.reset(n);
        dsu.set_boundary(graph.top());
        dsu.set_boundary(graph.bottom());
        self.defects.extend(self.syndrome.iter_ones());
        for &v in &self.defects {
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
        // An iteration costs O(defects + edges incident to the cluster): it
        // walks the chosen cluster's member ring and collects each incident
        // edge with support < 2 once. An active cluster never contains
        // `TOP`/`BOTTOM` (boundary contact deactivates it), so the walk never
        // expands a boundary vertex's adjacency. The candidates are sorted
        // ascending before any support changes, which makes the unions,
        // their order and every count identical to growing the matching
        // edges in a scan over all edge ids.
        //
        // Terminates: an active cluster always has an incident not-fully-grown
        // edge (a cluster closed under full-support adjacency spans the whole
        // connected graph, boundaries included, and boundary contact
        // deactivates it), so every iteration raises some edge's support and
        // total support is bounded by `2·edges`.
        let support = &mut self.support;
        support.clear();
        support.resize(num_edges, 0);
        let mut growth_steps = 0u64;
        let mut merges = 0u64;
        loop {
            let mut smallest: Option<(u32, u32)> = None;
            for &v in &self.defects {
                if dsu.cluster_active(v) {
                    let root = dsu.find(v);
                    let key = (dsu.cluster_size(root), root);
                    if smallest.is_none_or(|best| key < best) {
                        smallest = Some(key);
                    }
                }
            }
            let Some((_, root)) = smallest else { break };
            let mut v = root;
            loop {
                for &e in graph.incident(v) {
                    // A queued edge reads as >= 2, so it is collected once.
                    if support[e as usize] < 2 {
                        support[e as usize] |= QUEUED;
                        self.candidates.push(e);
                    }
                }
                v = dsu.next_member(v);
                if v == root {
                    break;
                }
            }
            self.candidates.sort_unstable();
            for &e in &self.candidates {
                let grown = (support[e as usize] & !QUEUED) + 1;
                support[e as usize] = grown;
                growth_steps += 1;
                if grown >= 2 {
                    self.to_union.push(graph.endpoints(e));
                }
            }
            for &[a, b] in &self.to_union {
                self.erasure_ends.extend([a, b]);
                if dsu.union(a, b).is_some() {
                    merges += 1;
                }
            }
            self.candidates.clear();
            self.to_union.clear();
        }

        // Peeling: build a spanning forest of the erasure (fully grown edges),
        // breadth first from `TOP`, `BOTTOM` and then every detector in
        // ascending order, so clusters that touched a boundary root at it
        // and peel their parity into it. Then walk vertices in reverse
        // discovery order, moving each defect mark up its tree edge.
        //
        // A vertex with no fully grown edge is a one-vertex tree that adds
        // nothing to the forest, so only the boundaries and the endpoints
        // of grown edges (ascending) are tried as roots. The forest still
        // visits all `n` vertices once, which is what the work model
        // charges.
        self.parent_edge.clear();
        self.parent_edge.resize(n as usize, UNSEEN);
        self.erasure_ends.sort_unstable();
        let starts = [graph.top(), graph.bottom()];
        for &start in starts.iter().chain(&self.erasure_ends) {
            if self.parent_edge[start as usize] != UNSEEN {
                continue;
            }
            self.parent_edge[start as usize] = TREE_ROOT;
            self.queue.push_back(start);
            while let Some(v) = self.queue.pop_front() {
                for &e in graph.incident(v) {
                    if support[e as usize] < 2 {
                        continue;
                    }
                    let [a, b] = graph.endpoints(e);
                    let w = if a == v { b } else { a };
                    if self.parent_edge[w as usize] == UNSEEN {
                        self.parent_edge[w as usize] = e;
                        self.order.push(w);
                        self.queue.push_back(w);
                    }
                }
            }
        }
        let erasure_visits = n as u64;
        let correction = &mut self.correction;
        let marks = &mut self.marks;
        correction.reset(num_edges as u32);
        marks.copy_from(&self.syndrome);
        let mut peeled_edges = 0u64;
        let mut boundary_peels = 0u64;
        for &v in self.order.iter().rev() {
            if graph.is_boundary(v) || !marks.get(v) {
                continue;
            }
            let e = self.parent_edge[v as usize];
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
        if cfg!(debug_assertions) {
            // `marks` is all zero now: reuse it for the check, so debug
            // builds stay allocation-free too.
            graph.syndrome_into(correction, marks);
            assert_eq!(
                *marks, self.syndrome,
                "correction must reproduce the observed syndrome"
            );
        }

        // The latency work model: unpack the packed syndrome words
        // (O(words) + O(popcount)), then the growth and peeling work.
        let scan_words = self.syndrome.num_words() as u64;
        let defect_count = self.defects.len() as u64;
        let work_units =
            scan_words + 2 * defect_count + growth_steps + erasure_visits + peeled_edges;
        DecodeCounts {
            defects: defect_count as u32,
            growth_steps,
            merges,
            peeled_edges,
            boundary_peels,
            work_units,
        }
    }
}

/// Per-tile decoder state.
#[derive(Debug)]
struct TileState {
    frame: PauliFrame,
    windows: u64,
    busy_until: u64,
}

/// A real union-find syndrome decoder over per-tile detector graphs.
///
/// Implements [`DecoderModel`]: each submitted window samples a seeded
/// error configuration at the channel's rate `p`, decodes it (DSU growth +
/// peeling), folds the correction into the tile's [`PauliFrame`], and
/// reports a latency derived from the work actually performed:
///
/// ```text
/// latency = base_latency + ceil(work_units / throughput)
/// work_units = syndrome words + 2·defects + growth half-steps
///            + erasure-forest visits + peeled edges
/// ```
///
/// Each tile is one sequential decode pipeline (windows on a busy tile
/// queue behind each other), so back-pressure emerges when the sampled
/// error rate produces more work than `throughput` clears per round.
/// Windows longer than `d` rounds decode as a stream of `≤ d`-round chunks
/// (Triage-style sliding windows).
#[derive(Debug)]
pub struct UnionFindDecoder {
    distance: u32,
    channel: ErrorChannel,
    base_latency: u64,
    throughput: f64,
    /// Detector graphs cached per chunk length (1..=d rounds).
    graphs: BTreeMap<u32, DetectorGraph>,
    tiles: BTreeMap<u32, TileState>,
    last_work: DecodeWork,
    /// Decode buffers shared by every window.
    ws: Workspace,
}

impl UnionFindDecoder {
    /// Builds the decoder for distance-`d` tiles fed by `channel`.
    /// `throughput`/`base_latency` come from the configuration and define
    /// the work→rounds conversion.
    pub fn new(config: &DecoderConfig, distance: u32, channel: ErrorChannel) -> Self {
        UnionFindDecoder {
            distance: distance.max(2),
            channel,
            base_latency: config.base_latency,
            throughput: config.throughput.max(1e-6),
            graphs: BTreeMap::new(),
            tiles: BTreeMap::new(),
            last_work: DecodeWork::default(),
            ws: Workspace::new(),
        }
    }

    /// The channel this decoder samples.
    pub fn channel(&self) -> ErrorChannel {
        self.channel
    }

    /// The accumulated Pauli frame of `tile`, if it has decoded anything.
    pub fn frame(&self, tile: u32) -> Option<&PauliFrame> {
        self.tiles.get(&tile).map(|t| &t.frame)
    }

    /// Decodes one `rounds`-round window on `tile`, returning the work
    /// performed (streamed as `≤ d`-round chunks).
    fn decode_window(&mut self, tile: u32, rounds: u32) -> DecodeWork {
        let mut total = DecodeWork::default();
        let mut remaining = rounds.max(1);
        while remaining > 0 {
            let chunk = remaining.min(self.distance);
            remaining -= chunk;
            // Split borrows: the graph cache, tile map and workspace are
            // disjoint.
            let graph = self.graphs.entry(chunk).or_insert_with(|| {
                let graph = DetectorGraph::new(self.distance, chunk);
                self.ws.reserve_for(&graph);
                graph
            });
            let tile_state = self.tiles.entry(tile).or_insert_with(|| TileState {
                frame: PauliFrame::new(graph),
                windows: 0,
                busy_until: 0,
            });
            let seed = window_seed(self.channel.seed, tile, tile_state.windows);
            tile_state.windows += 1;
            let ws = &mut self.ws;
            sample_error_into(graph, self.channel.error_rate, seed, &mut ws.error);
            graph.syndrome_into(&ws.error, &mut ws.syndrome);
            let counts = ws.decode(graph);
            tile_state.frame.absorb(graph, &ws.correction);
            // The error becomes the residual, error ⊕ correction.
            ws.error.xor_with(&ws.correction);
            total.add(&DecodeWork {
                defects: counts.defects as u64,
                growth_steps: counts.growth_steps,
                merges: counts.merges,
                peeled_edges: counts.peeled_edges,
                logical_failures: graph.crosses_logical_cut(&ws.error) as u64,
                work_units: counts.work_units,
            });
        }
        total
    }
}

impl DecoderModel for UnionFindDecoder {
    fn name(&self) -> &'static str {
        "union_find"
    }

    fn decode_ready_at(&mut self, tile: u32, rounds: u32, now: u64) -> u64 {
        let work = self.decode_window(tile, rounds);
        let latency = self.base_latency + (work.work_units as f64 / self.throughput).ceil() as u64;
        let tile_state = self.tiles.get_mut(&tile).expect("tile seen in decode");
        let ready = now.max(tile_state.busy_until) + latency;
        tile_state.busy_until = ready;
        self.last_work.add(&work);
        ready
    }

    fn take_work(&mut self) -> DecodeWork {
        std::mem::take(&mut self.last_work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uf(d: u32, p: f64, seed: u64) -> UnionFindDecoder {
        let cfg = DecoderConfig {
            kind: crate::DecoderKind::UnionFind,
            ..DecoderConfig::default()
        };
        UnionFindDecoder::new(&cfg, d, ErrorChannel::new(p, seed))
    }

    #[test]
    fn zero_error_rate_decodes_to_identity() {
        let g = DetectorGraph::new(3, 2);
        let error = sample_error(&g, 0.0, 7);
        assert_eq!(error.popcount(), 0);
        let out = decode_chain(&g, &error);
        assert_eq!(out.correction.popcount(), 0);
        assert_eq!(out.defects, 0);
        assert_eq!(out.growth_steps, 0);
        // Work never reaches zero: the decoder still scans the packed
        // syndrome words.
        assert!(out.work_units > 0);
    }

    #[test]
    fn correction_always_reproduces_the_syndrome() {
        for seed in 0..50u64 {
            let g = DetectorGraph::new(5, 3);
            let error = sample_error(&g, 0.04, seed);
            let out = decode_chain(&g, &error);
            assert_eq!(
                g.syndrome_of(&out.correction),
                g.syndrome_of(&error),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn single_data_error_is_corrected_exactly() {
        let g = DetectorGraph::new(5, 1);
        // One internal vertical edge: two defects one edge apart. The
        // decoder must remove it with a weight-1 correction and no logical
        // residue.
        let e = g.distance() + 1; // an internal vertical edge (after d top edges)
        let mut error = SyndromeBits::new(g.num_edges());
        error.set(e);
        let out = decode_chain(&g, &error);
        let mut residual = error.clone();
        residual.xor_with(&out.correction);
        assert_eq!(g.syndrome_of(&residual).popcount(), 0);
        assert!(!g.crosses_logical_cut(&residual));
        assert_eq!(out.defects, 2);
        assert!(out.merges >= 1, "the two defect clusters must merge");
    }

    #[test]
    fn equal_rank_merge_order_decides_the_next_grown_cluster() {
        // On the d = 11 one-round graph (detector `i * 11 + j` sits at row i,
        // column j), defects 63 and 64 grow into one cluster rooted at 52,
        // defect 72 into one rooted at 61, both of rank 1. In one growth
        // iteration of the cluster rooted at 61 its edges (62, 73) and
        // (61, 62) both reach cluster 52: a rank tie, so the first union
        // decides the surviving root. Unioning the candidates in ascending
        // edge order makes (62, 73) first, so root 52 survives. The merged
        // cluster then has 16 vertices, as does the cluster rooted at 55
        // (defect 66), and the `(size, root)` tie-break grows the one rooted
        // at 52 first. Unioning in member-ring order makes (61, 62) first,
        // root 61 survives, cluster 55 grows first and the decode does less
        // growth (120 half-steps, 43 merges).
        let g = DetectorGraph::new(11, 1);
        let mut syndrome = SyndromeBits::new(g.num_detectors());
        for v in [8, 63, 64, 66, 72] {
            syndrome.set(v);
        }
        let out = decode_syndrome(&g, &syndrome);
        assert_eq!(
            (out.growth_steps, out.merges, out.peeled_edges),
            (138, 48, 8)
        );
        assert_eq!(
            out.correction.iter_ones().collect::<Vec<_>>(),
            [8, 179, 181, 182, 183, 184, 185, 186]
        );
        assert_eq!(g.syndrome_of(&out.correction), syndrome);
    }

    #[test]
    fn boundary_defect_peels_into_the_boundary() {
        let g = DetectorGraph::new(3, 1);
        // A top boundary edge error: a single defect adjacent to TOP. The
        // cluster grows into the boundary and peels its parity there.
        let mut error = SyndromeBits::new(g.num_edges());
        error.set(0);
        let out = decode_chain(&g, &error);
        assert_eq!(out.defects, 1);
        assert!(out.boundary_peels >= 1);
        let mut residual = error.clone();
        residual.xor_with(&out.correction);
        assert_eq!(g.syndrome_of(&residual).popcount(), 0);
        assert!(!g.crosses_logical_cut(&residual));
    }

    #[test]
    fn reused_workspace_matches_fresh_decodes() {
        // One workspace over interleaved graph sizes and error rates: no
        // state left by a larger or denser window may leak into the next.
        let graphs: Vec<DetectorGraph> = [(7, 7), (3, 1), (5, 3), (7, 2), (3, 3)]
            .iter()
            .map(|&(d, rounds)| DetectorGraph::new(d, rounds))
            .collect();
        let mut ws = Workspace::new();
        for g in &graphs {
            ws.reserve_for(g);
        }
        for w in 0..300u64 {
            let g = &graphs[(w % 5) as usize];
            let p = [0.3, 0.01, 0.1][(w % 3) as usize];
            let error = sample_error(g, p, w);
            sample_error_into(g, p, w, &mut ws.error);
            assert_eq!(ws.error, error);
            g.syndrome_into(&ws.error, &mut ws.syndrome);
            let reused = ws.decode(g);
            let fresh = decode_chain(g, &error);
            assert_eq!(ws.correction, fresh.correction, "window {w}");
            assert_eq!(
                (reused.defects, reused.growth_steps, reused.merges),
                (fresh.defects, fresh.growth_steps, fresh.merges),
                "window {w}"
            );
            assert_eq!(
                (
                    reused.peeled_edges,
                    reused.boundary_peels,
                    reused.work_units
                ),
                (fresh.peeled_edges, fresh.boundary_peels, fresh.work_units),
                "window {w}"
            );
        }
    }

    #[test]
    fn window_streams_are_deterministic_per_tile_and_window() {
        let mut a = uf(3, 0.02, 99);
        let mut b = uf(3, 0.02, 99);
        for (tile, rounds, now) in [(0, 3, 0), (1, 3, 0), (0, 5, 10), (2, 1, 11)] {
            assert_eq!(
                a.decode_ready_at(tile, rounds, now),
                b.decode_ready_at(tile, rounds, now)
            );
            assert_eq!(a.take_work(), b.take_work());
        }
        // A different channel seed produces a different stream somewhere.
        let mut c = uf(3, 0.5, 100);
        let mut d = uf(3, 0.5, 101);
        let differs = (0..20).any(|w| {
            c.decode_ready_at(0, 3, w * 100) != d.decode_ready_at(0, 3, w * 100)
                || c.take_work() != d.take_work()
        });
        assert!(differs, "seeds must matter at p = 0.5");
    }

    #[test]
    fn busy_tile_queues_windows_sequentially() {
        let mut m = uf(3, 0.0, 1);
        let r1 = m.decode_ready_at(0, 3, 100);
        let r2 = m.decode_ready_at(0, 3, 100);
        assert!(r2 > r1, "same tile decodes serially");
        let other = m.decode_ready_at(1, 3, 100);
        assert!(other <= r1, "tiles decode independently");
    }

    #[test]
    fn long_windows_decode_as_chunks() {
        let mut m = uf(3, 0.0, 1);
        m.decode_ready_at(0, 3, 0);
        let one = m.take_work();
        let mut m = uf(3, 0.0, 1);
        m.decode_ready_at(0, 9, 0);
        let three = m.take_work();
        assert_eq!(three.work_units, 3 * one.work_units);
    }

    #[test]
    fn pauli_frame_accumulates() {
        let mut m = uf(3, 0.2, 5);
        for w in 0..20 {
            m.decode_ready_at(7, 3, w * 1000);
        }
        let frame = m.frame(7).expect("tile 7 decoded");
        assert!(frame.total_flips() > 0, "p=0.2 must produce corrections");
        assert!(m.frame(3).is_none());
    }
}
