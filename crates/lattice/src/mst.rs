//! Minimum spanning tree of the activity-weighted ancilla graph (§4.2,
//! §5.4.1).
//!
//! RESCQ routes CNOTs along the MST of the ancilla graph weighted by recent
//! *activity*: the minimax-path property of MSTs guarantees the tree contains,
//! for every node pair, the path minimizing the maximum edge weight — i.e. the
//! path whose busiest ancilla was least busy (§4.2).
//!
//! §5.4.1 keeps the tree current with four per-edge update cases (a cheaper
//! non-tree edge evicts the heaviest edge of its cycle; a heavier tree edge is
//! replaced by the lightest crossing edge; the other two cases are no-ops).
//! That is what a hardware controller runs to bound the classical latency τ.
//! The simulator charges τ through `rescq_core::TauModel` instead, so it may
//! build the tree any way that yields the same one: ties are broken by edge
//! id, which makes the tree the *unique* minimum spanning forest under the
//! `(weight, id)` total order, and [`IncrementalMst::set_weights`] recomputes
//! it with one batch Kruskal pass per weight snapshot — the same edge set the
//! per-edge cases would reach, property-tested in this module.
//!
//! The forest is also kept in rooted form (parent, depth and component root
//! per node), so a tree-path query climbs from both endpoints to their lowest
//! common ancestor in `O(path length)` instead of searching the fabric.

use crate::graph::UnionFind;

/// Identifier of an edge within an [`IncrementalMst`] (its index in the edge
/// list passed at construction).
pub type EdgeId = u32;

/// Dense node index (matches [`crate::AncillaGraph`] indices).
pub type NodeId = u32;

/// Marks a node the rooting pass has not reached yet.
const UNVISITED: NodeId = NodeId::MAX;

#[derive(Debug, Clone, Copy)]
struct Edge {
    a: NodeId,
    b: NodeId,
    weight: u32,
}

/// The minimum spanning forest of a fixed edge set under changing weights.
///
/// Construction and every [`IncrementalMst::set_weights`] batch that changes
/// a weight run Kruskal with `(weight, id)` tie-breaking, so the forest is
/// always the unique minimum one for the current weights. On a connected
/// graph it is a spanning tree. All working buffers (sort keys, union-find,
/// rooting queue) live in the struct, so rebuilds allocate nothing.
///
/// # Example
///
/// ```
/// use rescq_lattice::IncrementalMst;
///
/// // A 4-cycle: 0-1-2-3-0.
/// let edges = vec![(0, 1, 5), (1, 2, 1), (2, 3, 1), (3, 0, 1)];
/// let mut mst = IncrementalMst::new(4, &edges);
/// assert!(!mst.contains_edge(0)); // the weight-5 edge is excluded
///
/// // Its weight drops below the others: it enters, evicting the heaviest
/// // cycle edge (the tie among weight-1 edges goes to the highest id).
/// assert_eq!(mst.set_weights(&[0, 1, 1, 1]), 1);
/// assert!(mst.contains_edge(0));
/// assert!(!mst.contains_edge(3));
/// assert_eq!(mst.total_weight(), 2);
/// assert_eq!(mst.tree_path(0, 3), Some(vec![0, 1, 2, 3]));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalMst {
    num_nodes: usize,
    edges: Vec<Edge>,
    in_tree: Vec<bool>,
    /// Incidence lists of the whole graph in compressed form: node `u`'s
    /// `(neighbor, edge id)` pairs are `adj[adj_start[u]..adj_start[u + 1]]`.
    adj_start: Vec<u32>,
    adj: Vec<(NodeId, EdgeId)>,
    /// Rooted form: each node's tree parent (a root is its own parent), the
    /// edge to that parent, its depth below the root, and the root itself.
    parent: Vec<NodeId>,
    parent_edge: Vec<EdgeId>,
    depth: Vec<u32>,
    root: Vec<NodeId>,
    /// Kruskal scratch: packed `(weight << 32) | id` sort keys and the
    /// union-find, reset in place on every rebuild.
    order: Vec<u64>,
    uf: UnionFind,
    /// Rooting BFS queue (a plain vector read from a moving head).
    queue: Vec<NodeId>,
}

impl IncrementalMst {
    /// Builds the MST of `(a, b, weight)` edges over `num_nodes` nodes via
    /// Kruskal with `(weight, id)` tie-breaking.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `≥ num_nodes`.
    pub fn new(num_nodes: usize, edges: &[(NodeId, NodeId, u32)]) -> Self {
        let edges: Vec<Edge> = edges
            .iter()
            .map(|&(a, b, weight)| {
                assert!((a as usize) < num_nodes && (b as usize) < num_nodes);
                Edge { a, b, weight }
            })
            .collect();
        let mut adj_start = vec![0u32; num_nodes + 1];
        for e in &edges {
            adj_start[e.a as usize + 1] += 1;
            adj_start[e.b as usize + 1] += 1;
        }
        for u in 0..num_nodes {
            adj_start[u + 1] += adj_start[u];
        }
        let mut fill = adj_start.clone();
        let mut adj = vec![(0, 0); 2 * edges.len()];
        for (id, e) in edges.iter().enumerate() {
            for (u, v) in [(e.a, e.b), (e.b, e.a)] {
                adj[fill[u as usize] as usize] = (v, id as EdgeId);
                fill[u as usize] += 1;
            }
        }
        let mut mst = IncrementalMst {
            num_nodes,
            in_tree: vec![false; edges.len()],
            order: Vec::with_capacity(edges.len()),
            edges,
            adj_start,
            adj,
            parent: vec![0; num_nodes],
            parent_edge: vec![0; num_nodes],
            depth: vec![0; num_nodes],
            root: vec![UNVISITED; num_nodes],
            uf: UnionFind::new(num_nodes),
            queue: Vec::with_capacity(num_nodes),
        };
        mst.rebuild();
        mst
    }

    /// Recomputes the forest (Kruskal) and its rooted form from the stored
    /// weights, reusing every held buffer.
    fn rebuild(&mut self) {
        self.order.clear();
        self.order.extend(
            self.edges
                .iter()
                .enumerate()
                .map(|(id, e)| (u64::from(e.weight) << 32) | id as u64),
        );
        self.order.sort_unstable();
        self.uf.reset();
        self.in_tree.fill(false);
        for &key in &self.order {
            let id = key as u32 as usize;
            let e = self.edges[id];
            if self.uf.union(e.a, e.b) {
                self.in_tree[id] = true;
            }
        }

        // Root each component at its smallest node by BFS over tree edges.
        self.root.fill(UNVISITED);
        for start in 0..self.num_nodes as NodeId {
            if self.root[start as usize] != UNVISITED {
                continue;
            }
            self.root[start as usize] = start;
            self.parent[start as usize] = start;
            self.depth[start as usize] = 0;
            self.queue.clear();
            self.queue.push(start);
            let mut head = 0;
            while let Some(&u) = self.queue.get(head) {
                head += 1;
                let span =
                    self.adj_start[u as usize] as usize..self.adj_start[u as usize + 1] as usize;
                for &(v, id) in &self.adj[span] {
                    if self.in_tree[id as usize] && self.root[v as usize] == UNVISITED {
                        self.root[v as usize] = start;
                        self.parent[v as usize] = u;
                        self.parent_edge[v as usize] = id;
                        self.depth[v as usize] = self.depth[u as usize] + 1;
                        self.queue.push(v);
                    }
                }
            }
        }
    }

    /// Stores a full weight snapshot (`weights[id]` for every edge id) and
    /// returns how many weights changed. When any did, the forest is rebuilt
    /// in one Kruskal pass; the result is the same forest that applying the
    /// changes one by one with §5.4.1's update cases would reach.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the edge count.
    pub fn set_weights(&mut self, weights: &[u32]) -> u64 {
        assert_eq!(weights.len(), self.edges.len(), "one weight per edge");
        let mut changed = 0;
        for (e, &w) in self.edges.iter_mut().zip(weights) {
            if e.weight != w {
                e.weight = w;
                changed += 1;
            }
        }
        if changed > 0 {
            self.rebuild();
        }
        changed
    }

    /// Number of edges in the underlying graph.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether edge `id` is currently in the tree.
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.in_tree[id as usize]
    }

    /// Endpoints of edge `id`.
    pub fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let e = self.edges[id as usize];
        (e.a, e.b)
    }

    /// Sum of tree edge weights.
    pub fn total_weight(&self) -> u64 {
        self.edges
            .iter()
            .zip(&self.in_tree)
            .filter(|(_, &t)| t)
            .map(|(e, _)| e.weight as u64)
            .sum()
    }

    /// Number of tree edges (`num_nodes − #components`).
    pub fn tree_size(&self) -> usize {
        self.in_tree.iter().filter(|&&t| t).count()
    }

    /// The unique tree path between `a` and `b` as node ids (inclusive), or
    /// `None` if they are in different components.
    pub fn tree_path(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        let mut out = Vec::new();
        self.tree_path_into(a, b, &mut out).then_some(out)
    }

    /// [`Self::tree_path`] into a caller-provided buffer: writes the path,
    /// oriented from `a`, into `out` (cleared first) and returns whether one
    /// exists. Costs `O(path length)` and allocates nothing once `out` has
    /// grown to the longest path.
    pub fn tree_path_into(&self, a: NodeId, b: NodeId, out: &mut Vec<NodeId>) -> bool {
        out.clear();
        if self.root[a as usize] != self.root[b as usize] {
            return false;
        }
        // Climb the deeper endpoint, then both, to the lowest common
        // ancestor.
        let (mut u, mut v) = (a, b);
        while self.depth[u as usize] > self.depth[v as usize] {
            u = self.parent[u as usize];
        }
        while self.depth[v as usize] > self.depth[u as usize] {
            v = self.parent[v as usize];
        }
        while u != v {
            u = self.parent[u as usize];
            v = self.parent[v as usize];
        }
        let lca = u;
        // `a` up to the ancestor, then `b` up to (excluding) it, reversed.
        let mut x = a;
        while x != lca {
            out.push(x);
            x = self.parent[x as usize];
        }
        out.push(lca);
        let b_side = out.len();
        let mut x = b;
        while x != lca {
            out.push(x);
            x = self.parent[x as usize];
        }
        out[b_side..].reverse();
        true
    }

    /// The edge ids along the tree path between `a` and `b`.
    pub fn tree_path_edges(&self, a: NodeId, b: NodeId) -> Option<Vec<EdgeId>> {
        let nodes = self.tree_path(a, b)?;
        Some(
            nodes
                .windows(2)
                .map(|pair| {
                    let (u, v) = (pair[0], pair[1]);
                    // Consecutive path nodes are parent and child.
                    if self.parent[u as usize] == v {
                        self.parent_edge[u as usize]
                    } else {
                        self.parent_edge[v as usize]
                    }
                })
                .collect(),
        )
    }

    /// Maximum edge weight along the tree path (the minimax bottleneck).
    pub fn bottleneck(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let edges = self.tree_path_edges(a, b)?;
        Some(
            edges
                .iter()
                .map(|&e| self.edges[e as usize].weight)
                .max()
                .unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, VecDeque};

    fn grid_edges(w: u32, h: u32) -> Vec<(NodeId, NodeId, u32)> {
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    edges.push((i, i + 1, 1));
                }
                if y + 1 < h {
                    edges.push((i, i + w, 1));
                }
            }
        }
        edges
    }

    fn tree_edges(mst: &IncrementalMst) -> BTreeSet<EdgeId> {
        (0..mst.num_edges() as EdgeId)
            .filter(|&id| mst.contains_edge(id))
            .collect()
    }

    /// Textbook Kruskal: sort by `(weight, id)`, keep edges joining two sets.
    fn reference_kruskal(num_nodes: usize, edges: &[(NodeId, NodeId, u32)]) -> BTreeSet<EdgeId> {
        fn find(dsu: &mut [usize], mut x: usize) -> usize {
            while dsu[x] != x {
                x = dsu[x];
            }
            x
        }
        let mut ids: Vec<usize> = (0..edges.len()).collect();
        ids.sort_by_key(|&id| (edges[id].2, id));
        let mut dsu: Vec<usize> = (0..num_nodes).collect();
        let mut tree = BTreeSet::new();
        for id in ids {
            let (ra, rb) = (
                find(&mut dsu, edges[id].0 as usize),
                find(&mut dsu, edges[id].1 as usize),
            );
            if ra != rb {
                dsu[ra] = rb;
                tree.insert(id as EdgeId);
            }
        }
        tree
    }

    /// BFS from `a` over the `tree` edges, then walk the parents back from
    /// `b` — the (unique) tree path, oriented from `a`.
    fn reference_path(
        num_nodes: usize,
        edges: &[(NodeId, NodeId, u32)],
        tree: &BTreeSet<EdgeId>,
        a: NodeId,
        b: NodeId,
    ) -> Option<Vec<NodeId>> {
        let mut prev = vec![None; num_nodes];
        prev[a as usize] = Some(a);
        let mut queue = VecDeque::from([a]);
        while let Some(u) = queue.pop_front() {
            for &id in tree {
                let (x, y, _) = edges[id as usize];
                let v = if x == u {
                    y
                } else if y == u {
                    x
                } else {
                    continue;
                };
                if prev[v as usize].is_none() {
                    prev[v as usize] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        prev[b as usize]?;
        let mut path = vec![b];
        let mut cur = b;
        while cur != a {
            cur = prev[cur as usize].expect("reached nodes have parents");
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// A fixed pseudo-random stream (64-bit LCG, high bits).
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn kruskal_spans_connected_graph() {
        let mst = IncrementalMst::new(9, &grid_edges(3, 3));
        assert_eq!(mst.tree_size(), 8);
        for a in 0..9 {
            for b in 0..9 {
                assert!(mst.tree_path(a, b).is_some());
            }
        }
    }

    #[test]
    fn case1_insert_cheaper_edge() {
        // Square cycle with one expensive edge.
        let edges = vec![(0, 1, 10), (1, 2, 1), (2, 3, 1), (3, 0, 1)];
        let mut mst = IncrementalMst::new(4, &edges);
        assert!(!mst.contains_edge(0));
        assert_eq!(mst.total_weight(), 3);
        assert_eq!(mst.set_weights(&[0, 1, 1, 1]), 1);
        assert_eq!(tree_edges(&mst), BTreeSet::from([0, 1, 2]));
        assert_eq!(mst.total_weight(), 2);
        assert_eq!(mst.tree_size(), 3);
    }

    #[test]
    fn case1_no_swap_when_still_heaviest() {
        let edges = vec![(0, 1, 10), (1, 2, 1), (2, 3, 1), (3, 0, 1)];
        let mut mst = IncrementalMst::new(4, &edges);
        mst.set_weights(&[5, 1, 1, 1]); // cheaper but still the worst
        assert_eq!(tree_edges(&mst), BTreeSet::from([1, 2, 3]));
        assert_eq!(mst.total_weight(), 3);
    }

    #[test]
    fn case2_tree_edge_heavier_gets_replaced() {
        let edges = vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 5)];
        let mut mst = IncrementalMst::new(4, &edges);
        assert!(mst.contains_edge(1));
        mst.set_weights(&[1, 100, 1, 5]);
        // The weight-5 edge reconnects.
        assert_eq!(tree_edges(&mst), BTreeSet::from([0, 2, 3]));
        assert_eq!(mst.tree_size(), 3);
        assert_eq!(mst.total_weight(), 1 + 1 + 5);
    }

    #[test]
    fn case2_no_alternative_keeps_edge() {
        // A path graph: removing any edge cannot be repaired.
        let edges = vec![(0, 1, 1), (1, 2, 1)];
        let mut mst = IncrementalMst::new(3, &edges);
        mst.set_weights(&[50, 1]);
        assert_eq!(tree_edges(&mst), BTreeSet::from([0, 1]));
        assert_eq!(mst.tree_size(), 2);
    }

    #[test]
    fn passive_cases_do_not_restructure() {
        let edges = vec![(0, 1, 10), (1, 2, 1), (2, 3, 1), (3, 0, 1)];
        let mut mst = IncrementalMst::new(4, &edges);
        let before = tree_edges(&mst);
        // Tree edge 1 decreases (case 3), non-tree edge 0 increases (case 4).
        assert_eq!(mst.set_weights(&[20, 0, 1, 1]), 2);
        assert_eq!(tree_edges(&mst), before);
        // An identical snapshot changes nothing.
        assert_eq!(mst.set_weights(&[20, 0, 1, 1]), 0);
        assert_eq!(tree_edges(&mst), before);
    }

    #[test]
    fn bottleneck_is_minimax() {
        let mut edges = grid_edges(3, 3);
        // Make the direct edge 0-1 expensive; the detour 0-3-4-1 is cheaper.
        edges[0].2 = 9;
        let mst = IncrementalMst::new(9, &edges);
        assert_eq!(mst.bottleneck(0, 1), Some(1));
    }

    #[test]
    fn single_edge_snapshots_match_fresh_kruskal() {
        let mut edges = grid_edges(4, 4);
        let mut mst = IncrementalMst::new(16, &edges);
        let mut weights: Vec<u32> = edges.iter().map(|e| e.2).collect();
        let mut state = 0x12345678u64;
        for step in 0..200 {
            let eid = lcg(&mut state) as usize % edges.len();
            let w = (lcg(&mut state) % 50) as u32;
            let changed = u64::from(weights[eid] != w);
            weights[eid] = w;
            edges[eid].2 = w;
            assert_eq!(mst.set_weights(&weights), changed, "step {step}");
            let fresh = IncrementalMst::new(16, &edges);
            assert_eq!(
                tree_edges(&mst),
                tree_edges(&fresh),
                "diverged at step {step}"
            );
            assert_eq!(mst.tree_size(), 15);
        }
    }

    #[test]
    fn set_weights_matches_reference_kruskal_and_paths_with_ties() {
        // Grids of several shapes plus a two-component forest (a 3×3 grid
        // next to a 2×4 grid, node ids offset past the first).
        let mut forest = grid_edges(3, 3);
        forest.extend(
            grid_edges(2, 4)
                .into_iter()
                .map(|(a, b, w)| (a + 9, b + 9, w)),
        );
        let graphs = [
            (1, grid_edges(1, 1)),
            (6, grid_edges(2, 3)),
            (16, grid_edges(4, 4)),
            (35, grid_edges(5, 7)),
            (17, forest),
        ];
        let mut state = 0xC0FFEEu64;
        for (n, mut edges) in graphs {
            let mut mst = IncrementalMst::new(n, &edges);
            let mut out = Vec::new();
            for batch in 0..40 {
                // Weights in 0..4 make ties the rule, not the exception;
                // every other batch redraws only about a quarter of them.
                let mut changed = 0;
                for e in &mut edges {
                    if batch % 2 == 0 || lcg(&mut state).is_multiple_of(4) {
                        let w = (lcg(&mut state) % 4) as u32;
                        changed += u64::from(e.2 != w);
                        e.2 = w;
                    }
                }
                let weights: Vec<u32> = edges.iter().map(|e| e.2).collect();
                assert_eq!(mst.set_weights(&weights), changed);
                let reference = reference_kruskal(n, &edges);
                assert_eq!(tree_edges(&mst), reference, "n={n} batch={batch}");
                for a in 0..n as NodeId {
                    for b in 0..n as NodeId {
                        let want = reference_path(n, &edges, &reference, a, b);
                        assert_eq!(mst.tree_path_into(a, b, &mut out), want.is_some());
                        assert_eq!(
                            want.unwrap_or_default(),
                            out,
                            "n={n} batch={batch} {a}->{b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tree_path_endpoints() {
        let mst = IncrementalMst::new(9, &grid_edges(3, 3));
        let p = mst.tree_path(0, 8).unwrap();
        assert_eq!(*p.first().unwrap(), 0);
        assert_eq!(*p.last().unwrap(), 8);
        assert_eq!(mst.tree_path(4, 4).unwrap(), vec![4]);
        let pe = mst.tree_path_edges(0, 8).unwrap();
        assert_eq!(pe.len(), p.len() - 1);
        for (pair, &id) in p.windows(2).zip(&pe) {
            let (a, b) = mst.endpoints(id);
            assert!((a, b) == (pair[0], pair[1]) || (b, a) == (pair[0], pair[1]));
        }
    }

    #[test]
    fn disconnected_components_handled() {
        let edges = vec![(0, 1, 1), (2, 3, 1)];
        let mut mst = IncrementalMst::new(4, &edges);
        assert_eq!(mst.tree_size(), 2);
        assert!(mst.tree_path(0, 3).is_none());
        mst.set_weights(&[5, 1]);
        assert!(mst.contains_edge(0)); // no alternative: stays
        assert!(mst.tree_path(0, 3).is_none());
        assert_eq!(mst.tree_path(1, 0), Some(vec![1, 0]));
    }
}
