//! Per-tile detector graphs: the spacetime matching graph one surface-code
//! tile presents to its decoder.
//!
//! The model is the standard phenomenological one-basis planar patch. A
//! distance-`d` tile contributes a `(d−1) × d` grid of stabilizer detectors
//! per measurement round; data-qubit errors flip the pair of detectors their
//! qubit couples (space-like edges), measurement errors flip the same
//! detector in consecutive rounds (time-like edges), and the two rough code
//! boundaries absorb chains through virtual `TOP`/`BOTTOM` vertices. The
//! final round of a window is taken as projectively read out, so no
//! time-like edges dangle past it.
//!
//! A logical failure is a residual chain (error ⊕ correction) connecting
//! `TOP` to `BOTTOM`. Such a chain crosses *every* horizontal cut an odd
//! number of times — in particular the cut directly below `TOP`, which only
//! the top boundary edges cross. The logical check is therefore the parity
//! of residual top-boundary edges, an `O(words)` test.

use crate::syndrome::SyndromeBits;

/// The spacetime detector graph of one tile over one syndrome window.
///
/// Node ids: `(t, i, j) = t·(d−1)·d + i·d + j` for round `t`, stabilizer row
/// `i ∈ 0..d−1`, column `j ∈ 0..d`; the two virtual boundary vertices take
/// the last two ids. Edge ids are assigned in a fixed construction order
/// (per-round space-like edges first, then time-like edges), so every bit
/// vector over edges is comparable across decoders.
#[derive(Debug, Clone)]
pub struct DetectorGraph {
    distance: u32,
    rounds: u32,
    /// `[a, b]` node-id endpoints per edge.
    edges: Vec<[u32; 2]>,
    /// Edge ids incident to each node, virtual boundaries included (the
    /// peeling forest roots at boundary vertices and the exact decoder
    /// routes shortest paths through them).
    adjacency: Vec<Vec<u32>>,
    /// Edge ids crossing the cut below `TOP` (the logical-parity witness).
    top_cut: Vec<u32>,
    /// Space-like edges per round (the per-round Pauli-frame address space).
    spatial_per_round: u32,
}

impl DetectorGraph {
    /// Builds the graph for one distance-`d` tile over `rounds` measurement
    /// rounds. `d ≥ 2`, `rounds ≥ 1`.
    pub fn new(distance: u32, rounds: u32) -> Self {
        assert!(distance >= 2, "detector graphs need d >= 2");
        assert!(rounds >= 1, "windows hold at least one round");
        let d = distance;
        let per_round = (d - 1) * d;
        let real_nodes = per_round * rounds;
        let mut edges = Vec::new();
        let mut top_cut = Vec::new();
        let node = |t: u32, i: u32, j: u32| t * per_round + i * d + j;
        let top = real_nodes;
        let bottom = real_nodes + 1;
        let mut spatial_per_round = 0;
        for t in 0..rounds {
            // Top boundary edges: the logical cut witness set.
            for j in 0..d {
                top_cut.push(edges.len() as u32);
                edges.push([top, node(t, 0, j)]);
            }
            // Internal vertical edges (the logical direction).
            for i in 0..d.saturating_sub(2) {
                for j in 0..d {
                    edges.push([node(t, i, j), node(t, i + 1, j)]);
                }
            }
            // Bottom boundary edges.
            for j in 0..d {
                edges.push([node(t, d - 2, j), bottom]);
            }
            // Horizontal edges (the transverse direction; chains of these
            // never connect the boundaries, matching rough-boundary planar
            // codes where the other error species lives on the dual graph).
            for i in 0..d - 1 {
                for j in 0..d - 1 {
                    edges.push([node(t, i, j), node(t, i, j + 1)]);
                }
            }
            if t == 0 {
                spatial_per_round = edges.len() as u32;
            }
        }
        // Time-like edges: a measurement error in round t flips the same
        // detector in rounds t and t+1. The final round is projective, so
        // the last layer has no outgoing time edge.
        for t in 0..rounds - 1 {
            for v in 0..per_round {
                edges.push([node(t, 0, 0) + v, node(t + 1, 0, 0) + v]);
            }
        }
        let mut adjacency = vec![Vec::new(); real_nodes as usize + 2];
        for (e, ends) in edges.iter().enumerate() {
            for &v in ends {
                adjacency[v as usize].push(e as u32);
            }
        }
        DetectorGraph {
            distance,
            rounds,
            edges,
            adjacency,
            top_cut,
            spatial_per_round,
        }
    }

    /// Code distance of the tile.
    pub fn distance(&self) -> u32 {
        self.distance
    }

    /// Rounds the window covers.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Total nodes, virtual boundaries included.
    pub fn num_nodes(&self) -> u32 {
        (self.distance - 1) * self.distance * self.rounds + 2
    }

    /// Real (detector) nodes, boundaries excluded.
    pub fn num_detectors(&self) -> u32 {
        (self.distance - 1) * self.distance * self.rounds
    }

    /// The virtual `TOP` boundary vertex id.
    pub fn top(&self) -> u32 {
        self.num_detectors()
    }

    /// The virtual `BOTTOM` boundary vertex id.
    pub fn bottom(&self) -> u32 {
        self.num_detectors() + 1
    }

    /// Whether `v` is one of the two virtual boundary vertices.
    pub fn is_boundary(&self, v: u32) -> bool {
        v >= self.num_detectors()
    }

    /// Total edges (error mechanisms) in the window.
    pub fn num_edges(&self) -> u32 {
        self.edges.len() as u32
    }

    /// Endpoint node ids of edge `e`.
    pub fn endpoints(&self, e: u32) -> [u32; 2] {
        self.edges[e as usize]
    }

    /// Edge ids incident to node `v` (boundary vertices included).
    pub fn incident(&self, v: u32) -> &[u32] {
        &self.adjacency[v as usize]
    }

    /// Space-like edges per round; edge `e` is space-like iff
    /// `e < spatial_per_round() * rounds()`, and its per-round (Pauli-frame)
    /// address is `e % spatial_per_round()`.
    pub fn spatial_per_round(&self) -> u32 {
        self.spatial_per_round
    }

    /// Whether edge `e` represents a data-qubit (space-like) error.
    pub fn is_spatial(&self, e: u32) -> bool {
        e < self.spatial_per_round * self.rounds
    }

    /// The syndrome a chain of flipped edges produces: parity, per real
    /// detector, of incident chain edges (boundary vertices absorb parity).
    pub fn syndrome_of(&self, chain: &SyndromeBits) -> SyndromeBits {
        let mut s = SyndromeBits::new(self.num_detectors());
        self.syndrome_into(chain, &mut s);
        s
    }

    /// [`syndrome_of`](DetectorGraph::syndrome_of) written into `out`,
    /// reusing its allocation.
    pub(crate) fn syndrome_into(&self, chain: &SyndromeBits, out: &mut SyndromeBits) {
        debug_assert_eq!(chain.len(), self.num_edges());
        out.reset(self.num_detectors());
        for e in chain.iter_ones() {
            for &v in &self.edges[e as usize] {
                if !self.is_boundary(v) {
                    out.toggle(v);
                }
            }
        }
    }

    /// Parity of `chain`'s top-boundary-cut edges: `true` means the chain
    /// crosses the cut below `TOP` an odd number of times. For a residual
    /// (trivial-syndrome) chain this is exactly the logical-failure test.
    pub fn crosses_logical_cut(&self, chain: &SyndromeBits) -> bool {
        debug_assert_eq!(chain.len(), self.num_edges());
        self.top_cut.iter().filter(|&&e| chain.get(e)).count() % 2 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_construction() {
        // d=3, 2 rounds: 6 detectors/round; per round 3 top + 3 internal
        // vertical + 3 bottom + 4 horizontal = 13 space-like edges; 6
        // time-like edges between the two rounds.
        let g = DetectorGraph::new(3, 2);
        assert_eq!(g.num_detectors(), 12);
        assert_eq!(g.num_nodes(), 14);
        assert_eq!(g.spatial_per_round(), 13);
        assert_eq!(g.num_edges(), 13 * 2 + 6);
        assert!(g.is_spatial(25));
        assert!(!g.is_spatial(26));
        assert!(g.is_boundary(g.top()));
        assert!(g.is_boundary(g.bottom()));
        assert!(!g.is_boundary(11));
    }

    #[test]
    fn single_error_flips_its_endpoints() {
        let g = DetectorGraph::new(3, 1);
        // An internal vertical edge has two real endpoints.
        let internal = (3..6).next().unwrap(); // first internal vertical edge
        let mut chain = SyndromeBits::new(g.num_edges());
        chain.set(internal);
        let s = g.syndrome_of(&chain);
        assert_eq!(s.popcount(), 2);
        let [a, b] = g.endpoints(internal);
        assert!(s.get(a) && s.get(b));
        // A boundary edge flips only its real endpoint.
        chain.clear_all();
        chain.set(0);
        let s = g.syndrome_of(&chain);
        assert_eq!(s.popcount(), 1);
    }

    #[test]
    fn vertical_chain_is_logical_and_weight_d() {
        // A full TOP→BOTTOM chain in column 0 of a d=3 tile: edges
        // top(0,0,0), (0,0,0)-(0,1,0), (0,1,0)-bottom. Weight d = 3,
        // trivial syndrome, crosses the logical cut.
        let g = DetectorGraph::new(3, 1);
        let mut chain = SyndromeBits::new(g.num_edges());
        chain.set(0); // TOP-(0,0)
        chain.set(3); // (0,0)-(1,0)
        chain.set(6); // (1,0)-BOTTOM
        assert_eq!(chain.popcount(), 3);
        assert_eq!(g.syndrome_of(&chain).popcount(), 0, "chain is a cycle");
        assert!(g.crosses_logical_cut(&chain), "connects the boundaries");
        // A trivial loop through TOP (down one column, back up the next)
        // crosses the cut twice: not logical.
        let mut loopy = SyndromeBits::new(g.num_edges());
        loopy.set(0); // TOP-(0,0)
        loopy.set(1); // TOP-(0,1)
        loopy.set(9); // horizontal (0,0)-(0,1)
        assert_eq!(g.syndrome_of(&loopy).popcount(), 0);
        assert!(!g.crosses_logical_cut(&loopy));
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = DetectorGraph::new(5, 3);
        for v in 0..g.num_nodes() {
            for &e in g.incident(v) {
                assert!(g.endpoints(e).contains(&v), "edge {e} not incident {v}");
            }
        }
        // Every edge appears in the adjacency of both endpoints.
        for e in 0..g.num_edges() {
            for v in g.endpoints(e) {
                assert!(g.incident(v).contains(&e));
            }
        }
    }

    #[test]
    fn time_edges_link_identical_detectors() {
        let g = DetectorGraph::new(3, 3);
        let per_round = 6;
        for e in (g.spatial_per_round() * 3)..g.num_edges() {
            let [a, b] = g.endpoints(e);
            assert_eq!(b - a, per_round, "time edge links (t, v) to (t+1, v)");
        }
    }
}
