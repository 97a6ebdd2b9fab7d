//! Disjoint-set union with the cluster bookkeeping union-find decoding
//! needs: per-root size, defect parity, boundary attachment, and a member
//! ring per cluster.
//!
//! This is deliberately not the bare [`rescq-lattice`] MST union-find — the
//! decoder's clusters carry state that drives growth termination (a cluster
//! stops growing once its defect parity is even or it has touched a code
//! boundary), and merging must combine that state in `O(1)`.

/// Disjoint-set forest with path compression and union by rank, augmented
/// with per-cluster decode state.
///
/// Roots carry the authoritative `size` / `parity` / `boundary` values;
/// non-root slots hold stale copies that are never read.
///
/// Every cluster's members also form a circular singly linked list (the
/// *member ring*): `next_member` steps from any member to the next, and
/// following it from `v` returns to `v` after exactly one visit of each
/// member of `v`'s cluster. A union splices the two rings in `O(1)` by
/// swapping the successors of the two roots, so the decoder can walk one
/// cluster in `O(size)` instead of scanning every element for its root.
#[derive(Debug, Clone)]
pub struct ClusterDsu {
    parent: Vec<u32>,
    rank: Vec<u8>,
    size: Vec<u32>,
    /// Defect parity of the cluster (true = odd = still growing).
    parity: Vec<bool>,
    /// Whether the cluster contains a boundary (virtual) vertex.
    boundary: Vec<bool>,
    /// Successor of each element in its cluster's member ring.
    next: Vec<u32>,
}

impl ClusterDsu {
    /// `n` singleton clusters, all even-parity and non-boundary.
    pub fn new(n: u32) -> Self {
        ClusterDsu {
            parent: (0..n).collect(),
            rank: vec![0; n as usize],
            size: vec![1; n as usize],
            parity: vec![false; n as usize],
            boundary: vec![false; n as usize],
            next: (0..n).collect(),
        }
    }

    /// Resets to `n` singletons, reusing the allocations.
    pub fn reset(&mut self, n: u32) {
        self.parent.clear();
        self.parent.extend(0..n);
        self.rank.clear();
        self.rank.resize(n as usize, 0);
        self.size.clear();
        self.size.resize(n as usize, 1);
        self.parity.clear();
        self.parity.resize(n as usize, false);
        self.boundary.clear();
        self.boundary.resize(n as usize, false);
        self.next.clear();
        self.next.extend(0..n);
    }

    /// Number of elements.
    pub fn len(&self) -> u32 {
        self.parent.len() as u32
    }

    /// Whether the forest has no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Marks `v` as a defect (flips its cluster's parity).
    pub fn flip_parity(&mut self, v: u32) {
        let r = self.find(v) as usize;
        self.parity[r] = !self.parity[r];
    }

    /// Marks `v`'s cluster as boundary-attached.
    pub fn set_boundary(&mut self, v: u32) {
        let r = self.find(v) as usize;
        self.boundary[r] = true;
    }

    /// The root of `v`'s cluster, compressing the path walked.
    pub fn find(&mut self, v: u32) -> u32 {
        let mut root = v;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Full path compression: repoint every node on the walked path.
        let mut cur = v;
        while cur != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// The member after `v` in its cluster's member ring (`v` itself for a
    /// singleton).
    pub(crate) fn next_member(&self, v: u32) -> u32 {
        self.next[v as usize]
    }

    /// Merges the clusters of `a` and `b`. Returns the surviving root if the
    /// clusters were distinct, `None` if they were already one. Size adds,
    /// parity XORs, boundary ORs, member rings splice.
    pub fn union(&mut self, a: u32, b: u32) -> Option<u32> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        let (winner, loser) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        if self.rank[winner as usize] == self.rank[loser as usize] {
            self.rank[winner as usize] += 1;
        }
        self.parent[loser as usize] = winner;
        self.size[winner as usize] += self.size[loser as usize];
        self.parity[winner as usize] ^= self.parity[loser as usize];
        self.boundary[winner as usize] |= self.boundary[loser as usize];
        // Swapping the successors of one member of each ring joins the two
        // cycles into one.
        self.next.swap(ra as usize, rb as usize);
        Some(winner)
    }

    /// Size of `v`'s cluster.
    pub fn cluster_size(&mut self, v: u32) -> u32 {
        let r = self.find(v);
        self.size[r as usize]
    }

    /// Defect parity of `v`'s cluster.
    pub fn cluster_parity(&mut self, v: u32) -> bool {
        let r = self.find(v);
        self.parity[r as usize]
    }

    /// Whether `v`'s cluster has touched a boundary vertex.
    pub fn cluster_boundary(&mut self, v: u32) -> bool {
        let r = self.find(v);
        self.boundary[r as usize]
    }

    /// Whether `v`'s cluster still grows: odd parity and no boundary
    /// contact (the union-find growth termination rule).
    pub fn cluster_active(&mut self, v: u32) -> bool {
        let r = self.find(v) as usize;
        self.parity[r] && !self.boundary[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_is_idempotent_under_path_compression() {
        let mut d = ClusterDsu::new(8);
        // Build a deliberate chain 0 <- 1 <- 2 <- 3 through unions of
        // equal-rank singletons, then verify find() answers never change on
        // repeat calls and that compression leaves roots fixed.
        d.union(0, 1);
        d.union(2, 3);
        d.union(1, 3);
        let r = d.find(3);
        assert_eq!(d.find(3), r, "find must be idempotent");
        assert_eq!(d.find(0), r);
        assert_eq!(d.find(1), r);
        assert_eq!(d.find(2), r);
        // After compression every member points directly at the root.
        for v in 0..4 {
            assert_eq!(d.parent[v as usize], r);
        }
        // Unions of already-joined members are no-ops.
        assert_eq!(d.union(0, 3), None);
        assert_eq!(d.cluster_size(0), 4);
    }

    #[test]
    fn size_parity_boundary_bookkeeping() {
        let mut d = ClusterDsu::new(6);
        d.flip_parity(0);
        d.flip_parity(1);
        assert!(d.cluster_parity(0));
        assert!(d.cluster_active(0));
        // Odd ⊕ odd = even: the merged cluster deactivates.
        d.union(0, 1);
        assert!(!d.cluster_parity(0));
        assert!(!d.cluster_active(1));
        assert_eq!(d.cluster_size(1), 2);
        // Boundary contact deactivates an odd cluster too.
        d.flip_parity(2);
        assert!(d.cluster_active(2));
        d.set_boundary(3);
        d.union(2, 3);
        assert!(d.cluster_parity(2), "parity unchanged by boundary merge");
        assert!(d.cluster_boundary(2));
        assert!(!d.cluster_active(2));
        // Double flip restores even parity.
        d.flip_parity(4);
        d.flip_parity(4);
        assert!(!d.cluster_parity(4));
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut d = ClusterDsu::new(4);
        d.union(0, 1);
        d.flip_parity(2);
        d.set_boundary(3);
        d.reset(4);
        for v in 0..4 {
            assert_eq!(d.find(v), v);
            assert_eq!(d.cluster_size(v), 1);
            assert!(!d.cluster_parity(v));
            assert!(!d.cluster_boundary(v));
        }
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
    }

    /// Members of `v`'s cluster in ring order, starting at `v`.
    fn ring(d: &ClusterDsu, v: u32) -> Vec<u32> {
        let mut members = vec![v];
        let mut cur = d.next_member(v);
        while cur != v {
            assert!(
                members.len() <= d.len() as usize,
                "ring from {v} never closes"
            );
            members.push(cur);
            cur = d.next_member(cur);
        }
        members
    }

    #[test]
    fn member_rings_list_exactly_each_cluster() {
        // Seeded arbitrary unions (self-unions and repeats included); after
        // every step each element's ring must be exactly its cluster.
        let n = 40u32;
        let mut d = ClusterDsu::new(n);
        let mut state = 0x5EED_u64;
        for _ in 0..120 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (state >> 33) as u32 % n;
            let b = (state >> 13) as u32 % n;
            d.union(a, b);
            for v in 0..n {
                let mut got = ring(&d, v);
                got.sort_unstable();
                let root = d.find(v);
                let want: Vec<u32> = (0..n).filter(|&u| d.find(u) == root).collect();
                assert_eq!(got, want, "ring of {v}");
                assert_eq!(got.len() as u32, d.cluster_size(v));
            }
        }
        assert!(d.cluster_size(0) > 1, "the unions must build real clusters");
        d.reset(n);
        for v in 0..n {
            assert_eq!(ring(&d, v), vec![v], "reset restores singleton rings");
        }
        // Shrinking and growing through reset keeps rings well formed.
        d.reset(5);
        d.union(1, 4);
        assert_eq!(ring(&d, 1).len(), 2);
        d.reset(7);
        assert!((0..7).all(|v| d.next_member(v) == v));
    }

    #[test]
    fn union_by_rank_bounds_depth() {
        // 64 elements merged pairwise into one cluster: rank stays
        // logarithmic, so every find after full merging touches at most
        // O(log n) parents even before compression.
        let mut d = ClusterDsu::new(64);
        let mut stride = 1;
        while stride < 64 {
            for base in (0..64).step_by(stride * 2) {
                d.union(base as u32, (base + stride) as u32);
            }
            stride *= 2;
        }
        assert_eq!(d.cluster_size(17), 64);
        let max_rank = d.rank.iter().copied().max().unwrap();
        assert!(max_rank <= 7, "rank {max_rank} exceeds log2(64)+1");
    }
}
