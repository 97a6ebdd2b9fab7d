//! The fabric's region partition, as used by the realtime engine.
//!
//! [`RegionPartition`] splits the ancilla index space into contiguous
//! regions of roughly [`REGION_TARGET`] ancillas. The partition depends on
//! the fabric alone. Three things read it:
//!
//! - the priority-class lattice's **region urgency overrides** (a region
//!   whose frontage is dominated by T-factory tiles is promoted to the
//!   factory class);
//! - the ledger's **cross-shard counters** (`claims_cross_shard`,
//!   `preemptions_cross_shard`): a task's home shard is the region of its
//!   first ancilla, and a claim or preemption on another region's ancilla
//!   counts as cross-shard;
//! - the `region` field of traced ancilla-state events, which
//!   `sim analyze` aggregates per region.
//!
//! The engine itself is serial: the partition groups ancillas for
//! arbitration and reporting, not for threads.

use rescq_core::TaskClass;

/// Target ancillas per region. Small enough that modest benchmarks span
/// several regions, so the cross-shard counters and per-region reports
/// have something to say; large enough that a region is a meaningful
/// patch of the fabric.
pub(crate) const REGION_TARGET: usize = 32;

/// A partition of the ancilla index space `0..n` into contiguous regions.
///
/// Regions are balanced to within one ancilla and depend only on `n`, so
/// the same fabric always produces the same partition. A region may carry
/// an optional **urgency override** — a [`TaskClass`] that work homed in
/// the region is promoted to (e.g. regions hosting T-gate factory tiles
/// outranking compute regions). Overrides are derived from the circuit and
/// fabric alone, so they are as deterministic as the partition itself.
#[derive(Debug, Clone)]
pub(crate) struct RegionPartition {
    /// Region boundaries: region `r` covers `bounds[r]..bounds[r + 1]`.
    bounds: Vec<u32>,
    /// Per-region urgency override (`None` = no promotion). Only populated
    /// when priority classes are enabled.
    class_override: Vec<Option<TaskClass>>,
}

impl RegionPartition {
    /// Partitions `num_ancillas` indices into regions of roughly
    /// [`REGION_TARGET`] ancillas.
    pub(crate) fn for_fabric(num_ancillas: usize) -> Self {
        Self::with_regions(num_ancillas, num_ancillas.div_ceil(REGION_TARGET).max(1))
    }

    /// Partitions `num_ancillas` indices into exactly `regions` contiguous,
    /// balanced ranges (sizes differ by at most one).
    pub(crate) fn with_regions(num_ancillas: usize, regions: usize) -> Self {
        let regions = regions.clamp(1, num_ancillas.max(1));
        let base = num_ancillas / regions;
        let extra = num_ancillas % regions;
        let mut bounds = Vec::with_capacity(regions + 1);
        let mut at = 0usize;
        bounds.push(0);
        for r in 0..regions {
            at += base + usize::from(r < extra);
            bounds.push(at as u32);
        }
        debug_assert_eq!(at, num_ancillas);
        RegionPartition {
            class_override: vec![None; regions],
            bounds,
        }
    }

    /// Number of regions.
    pub(crate) fn num_regions(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Promotes region `r` to at least `class` (an existing higher override
    /// wins — overrides only ever raise urgency).
    pub(crate) fn raise_region_class(&mut self, r: u32, class: TaskClass) {
        let slot = &mut self.class_override[r as usize];
        if slot.is_none_or(|current| current < class) {
            *slot = Some(class);
        }
    }

    /// The urgency override of region `r`, if any.
    pub(crate) fn region_class(&self, r: u32) -> Option<TaskClass> {
        self.class_override[r as usize]
    }

    /// The region hosting ancilla `a`.
    pub(crate) fn region_of(&self, a: u32) -> u32 {
        // Regions are balanced, so a direct partition-point search is
        // O(log regions); partition sizes differ by one, so the simple
        // binary search over `bounds` is exact.
        match self.bounds.binary_search(&a) {
            // `a` is a boundary: it starts the region at that index (the
            // final boundary equals `n` and is never a valid ancilla).
            Ok(i) => (i as u32).min(self.num_regions() as u32 - 1),
            Err(i) => i as u32 - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_balanced() {
        for n in [1usize, 5, 31, 32, 33, 100, 421] {
            let p = RegionPartition::for_fabric(n);
            // Walking the ancillas in order visits regions 0, 1, ... in
            // order, each as one contiguous run.
            let mut sizes = vec![0usize; p.num_regions()];
            assert_eq!(p.region_of(0), 0);
            let mut prev = 0u32;
            for a in 0..n as u32 {
                let r = p.region_of(a);
                assert!(r == prev || r == prev + 1, "contiguous: n={n} a={a}");
                sizes[r as usize] += 1;
                prev = r;
            }
            assert_eq!(prev as usize, p.num_regions() - 1, "n={n}");
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
        // Region count follows the fabric size.
        assert_eq!(RegionPartition::for_fabric(64).num_regions(), 2);
        assert_eq!(RegionPartition::for_fabric(65).num_regions(), 3);
    }

    #[test]
    fn explicit_region_counts_clamp() {
        assert_eq!(RegionPartition::with_regions(4, 9).num_regions(), 4);
        assert_eq!(RegionPartition::with_regions(0, 3).num_regions(), 1);
        assert_eq!(RegionPartition::with_regions(10, 3).num_regions(), 3);
    }
}
