//! Region-partitioned scheduling workers for the realtime engine.
//!
//! A single 420-qubit realtime run used to be one monolithic cycle loop on
//! one core. Real-time QEC control stacks get their latency headroom from
//! *spatial* parallelism over the fabric (Triage's per-region window
//! workers; the region-partitioned classical pipeline of the real-time QEC
//! system stack), and the explicit [`ReservationLedger`] arbitration from
//! the scheduling core makes that safe here: shard workers only ever
//! *propose*, and every queue mutation still commits through the ledger.
//!
//! Three pieces:
//!
//! - [`RegionPartition`] splits the ancilla index space into contiguous
//!   regions of roughly [`REGION_TARGET`] ancillas. The partition is a
//!   property of the **fabric alone** — never of the thread count — so
//!   every region-derived quantity (e.g. the cross-shard claim/preemption
//!   counters) is identical no matter how many workers ran the scan.
//! - [`ShardPool`] is a persistent **lock-free** fork-join pool: the
//!   coordinator publishes a job by bumping an atomic generation counter,
//!   executors claim regions with a single `fetch_add` (so every region
//!   runs exactly once, SPMC), and the barrier is an atomic countdown —
//!   no mutex, no condvar, no allocation anywhere on the handoff path.
//! - [`ShardExecutor`] is the engine-facing facade: `scan_into` evaluates a
//!   pure per-ancilla predicate over every region and fills the caller's
//!   buffer with matching ancillas **in ascending index order** regardless
//!   of which worker scanned which region, `scan_words_into` does the same
//!   restricted to the set bits of packed `u64` occupancy words (the §4.2
//!   word-parallel scan). Both fill caller-provided buffers — the hot loop
//!   never allocates.
//!
//! # The determinism contract
//!
//! Shard workers never mutate: they scan a frozen snapshot of the engine
//! between barriers and publish *proposals* (candidate ancilla indices)
//! into a [`ProposalRing`] — an MPSC ring whose slots are claimed with one
//! atomic `fetch_add` per proposal, never a lock. Region-claiming order,
//! ring slot order, and thread interleaving are all nondeterministic; none
//! of it matters, because after the barrier the coordinator drains the ring
//! and **sorts the proposals into canonical ascending-ancilla order** before
//! revalidating and committing each one serially through the reservation
//! ledger — recomputing the decision against committed state, exactly as
//! the old sequential loop did. The proposal *set* is thread-count
//! independent (the predicate is pure over frozen state and every ancilla
//! is tested exactly once), so sorted order == serial scan order, and the
//! schedule produced is **bit-identical for any shard/thread count**,
//! including `engine_threads = 1`, which reproduces the historical
//! single-threaded engine exactly (golden-pinned in `tests/engines.rs`).

use rescq_core::TaskClass;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Target ancillas per region. Small enough that modest benchmarks span
/// several regions (exercising cross-shard arbitration), large enough that
/// a region scan amortises the barrier cost.
pub(crate) const REGION_TARGET: usize = 32;

/// A partition of the ancilla index space `0..n` into contiguous regions.
///
/// Regions are balanced to within one ancilla and depend only on `n`, so
/// the same fabric always produces the same partition. A region may carry
/// an optional **urgency override** — a [`TaskClass`] that work homed in
/// the region is promoted to (e.g. regions hosting T-gate factory tiles
/// outranking compute regions). Overrides are derived from the circuit and
/// fabric alone, so they are as thread-count invariant as the partition
/// itself.
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

    /// Total ancillas partitioned.
    pub(crate) fn num_ancillas(&self) -> usize {
        self.bounds[self.num_regions()] as usize
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

    /// The ancilla index range of region `r`.
    pub(crate) fn range(&self, r: usize) -> Range<u32> {
        self.bounds[r]..self.bounds[r + 1]
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

/// Calls `f` for every set bit of `words` whose index falls in `range`, in
/// ascending index order. Bits beyond `words.len() * 64` read as zero.
#[inline]
fn for_each_set_bit_in_range(words: &[u64], range: Range<u32>, mut f: impl FnMut(u32)) {
    let (start, end) = (range.start as usize, range.end as usize);
    if start >= end || words.is_empty() {
        return;
    }
    let first_w = start / 64;
    let last_w = ((end - 1) / 64).min(words.len() - 1);
    for (wi, &word) in words.iter().enumerate().take(last_w + 1).skip(first_w) {
        let mut w = word;
        if wi == first_w {
            w &= !0u64 << (start % 64);
        }
        if wi == last_w && end % 64 != 0 && end / 64 == last_w {
            w &= (1u64 << (end % 64)) - 1;
        }
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            f((wi * 64 + b) as u32);
            w &= w - 1;
        }
    }
}

/// One scan job published to the pool: a type-erased `Fn(region_index)`
/// plus the region count.
#[derive(Clone, Copy)]
struct Job {
    /// Borrowed closure, valid strictly until the publishing `run` call
    /// observes `active == 0`.
    f: *const (dyn Fn(usize) + Sync),
    regions: usize,
}

/// The pool's shared lock-free state. All coordination is via the atomics;
/// `job` is written by the coordinator strictly before the `generation`
/// release-store that publishes it and read by workers strictly after the
/// acquire-load that observes the bump, so the `UnsafeCell` access is
/// data-race free.
struct PoolShared {
    job: UnsafeCell<Option<Job>>,
    /// Bumped (release) once per published job; workers acquire-spin on it.
    generation: AtomicU64,
    /// Next unclaimed region: executors (workers *and* the coordinator)
    /// claim with `fetch_add`, so every region runs exactly once (SPMC
    /// work-claiming — faster executors steal the tail automatically).
    next_region: AtomicUsize,
    /// Workers still running the current job; the barrier is
    /// `active == 0`. Workers decrement with release, the coordinator
    /// acquire-spins, which orders every worker write (region buffers,
    /// ring slots) before the coordinator's reads.
    active: AtomicUsize,
    panicked: AtomicBool,
    shutdown: AtomicBool,
}

// SAFETY: see the field docs — `job` is protected by the generation /
// active-countdown protocol, everything else is atomic. `Send` is needed
// because `Arc<PoolShared>: Sync` requires it; the raw closure pointer in
// `Job` is only ever dereferenced while the publishing `run` call keeps the
// borrow alive (the `active` countdown is the proof).
unsafe impl Sync for PoolShared {}
unsafe impl Send for PoolShared {}

/// A persistent lock-free fork-join pool of scheduling workers.
///
/// Workers spin (then yield, then micro-sleep — friendly to machines with
/// fewer cores than workers) between barriers; [`ShardPool::run`] publishes
/// one job with a single release-store, participates as an executor itself,
/// and returns once the atomic countdown hits zero — the deterministic
/// barrier of the shard protocol. No mutex or condvar is ever taken on the
/// handoff path.
pub(crate) struct ShardPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("workers", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl ShardPool {
    /// Spawns `workers` parked worker threads (callers pass `threads - 1`;
    /// the coordinator itself is the remaining executor).
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            job: UnsafeCell::new(None),
            generation: AtomicU64::new(0),
            next_region: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                // Executor 0 is the coordinator; workers are 1-based.
                let executor = i + 1;
                std::thread::Builder::new()
                    .name(format!("rescq-shard-{executor}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardPool { shared, handles }
    }

    /// Number of executors a `run` call uses (workers + coordinator).
    pub(crate) fn executors(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs `f(region)` once for every region in `0..regions` — each region
    /// claimed by exactly one executor via the atomic cursor — and returns
    /// after **all** of them completed (the barrier). The coordinator
    /// thread claims regions alongside the workers.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) any panic that occurred on a worker. A
    /// panicking executor abandons its remaining claims; the others drain
    /// the rest, so the barrier always completes.
    pub(crate) fn run(&self, regions: usize, f: &(dyn Fn(usize) + Sync)) {
        let s = &*self.shared;
        debug_assert_eq!(
            s.active.load(Ordering::Acquire),
            0,
            "overlapping shard jobs"
        );
        // SAFETY (lifetime erasure): the raw pointer's trait object is
        // nominally `'static`, but `f` only needs to outlive this call —
        // the barrier spin below does not return until every worker
        // finished using the pointer, and the job is cleared before
        // returning.
        let f_erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        // SAFETY: no worker reads `job` until it observes the generation
        // bump below; the previous job's readers all finished (active was
        // 0 on entry).
        unsafe {
            *s.job.get() = Some(Job {
                f: f_erased,
                regions,
            })
        };
        s.next_region.store(0, Ordering::Relaxed);
        s.panicked.store(false, Ordering::Relaxed);
        s.active.store(self.handles.len(), Ordering::Relaxed);
        // The release-store publishing the job, the reset cursor and the
        // countdown to every acquire-spinning worker.
        s.generation.fetch_add(1, Ordering::Release);
        // The coordinator is executor 0 and claims regions too. Its own
        // panics must NOT unwind past the barrier below: workers still hold
        // the lifetime-erased closure pointer, and unwinding would free the
        // closure (and the caller's output buffers) under them — so catch,
        // reach the barrier, and only then re-raise.
        let own = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
            let r = s.next_region.fetch_add(1, Ordering::Relaxed);
            if r >= regions {
                break;
            }
            f(r);
        }));
        // The barrier: acquire-spin until every worker checked out, which
        // also orders all their writes before our return.
        let mut spins = 0u32;
        while s.active.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                // More workers than cores (or a 1-core container): make
                // sure the workers actually get scheduled.
                std::thread::yield_now();
            }
        }
        // SAFETY: every reader has checked out; drop the dangling pointer.
        unsafe { *s.job.get() = None };
        let worker_panicked = s.panicked.load(Ordering::Relaxed);
        if let Err(payload) = own {
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a shard scheduling worker panicked");
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen_generation = 0u64;
    loop {
        // Wait (spin → yield → micro-sleep) for the next generation. The
        // sleep tier keeps idle workers near-free on machines with fewer
        // cores than executors while the spin tier keeps the barrier
        // latency in the tens of nanoseconds when cores are plentiful.
        let mut spins = 0u32;
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let g = shared.generation.load(Ordering::Acquire);
            if g > seen_generation {
                seen_generation = g;
                break;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else if spins < 256 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
        // SAFETY: the acquire-load above synchronised with the publishing
        // release-store; the coordinator does not touch `job` again until
        // this worker decrements `active`.
        let job = unsafe { *shared.job.get() }.expect("job published with generation");
        let f = unsafe { &*job.f };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
            let r = shared.next_region.fetch_add(1, Ordering::Relaxed);
            if r >= job.regions {
                break;
            }
            f(r);
        }));
        if result.is_err() {
            shared.panicked.store(true, Ordering::Relaxed);
        }
        // Release: hands every write this worker made (region buffers,
        // ring slots) to the coordinator's acquire-spin.
        shared.active.fetch_sub(1, Ordering::Release);
    }
}

/// An MPSC proposal ring: scheduling executors publish candidate ancilla
/// indices with one `fetch_add` each (no lock, no allocation); the
/// coordinator drains the published range after the barrier and sorts it
/// into canonical ascending order.
///
/// Capacity is the fabric's ancilla count rounded up to a power of two, and
/// a single scan pass proposes each ancilla at most once — so the ring can
/// never overflow within a pass (debug-asserted). `head` grows forever and
/// indices wrap by masking, so back-to-back passes reuse the slots without
/// any reset write.
pub(crate) struct ProposalRing {
    slots: Box<[UnsafeCell<u32>]>,
    mask: usize,
    /// Next slot to claim (publishers, `fetch_add`).
    head: AtomicUsize,
    /// First undrained slot (coordinator only).
    tail: AtomicUsize,
}

// SAFETY: each slot in `[tail, head)` is written by exactly the one
// publisher whose `fetch_add` claimed it; the coordinator reads slots only
// after the pool barrier (the workers' release-decrements of `active`)
// ordered those writes before its reads.
unsafe impl Sync for ProposalRing {}

impl std::fmt::Debug for ProposalRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProposalRing")
            .field("capacity", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl ProposalRing {
    /// A ring with room for at least `capacity` in-flight proposals.
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(1);
        ProposalRing {
            slots: (0..cap).map(|_| UnsafeCell::new(0)).collect(),
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Publishes one proposal (any executor, concurrently).
    #[inline]
    pub(crate) fn publish(&self, a: u32) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        debug_assert!(
            i.wrapping_sub(self.tail.load(Ordering::Relaxed)) < self.slots.len(),
            "proposal ring overflow: >{} proposals in one pass",
            self.slots.len()
        );
        // SAFETY: the fetch_add above made `i` ours alone; see the `Sync`
        // impl for why the coordinator's later read is ordered.
        unsafe { *self.slots[i & self.mask].get() = a };
    }

    /// Discards anything still undrained (coordinator only, between
    /// passes). A no-op in normal operation — every pass drains fully —
    /// but a pass abandoned by a panic leaves `[tail, head)` non-empty,
    /// and the next pass must not replay its stale proposals.
    pub(crate) fn reset(&self) {
        self.tail
            .store(self.head.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Drains every published proposal into `out` (appended) and sorts the
    /// buffer ascending — the canonical commit order. Coordinator only,
    /// after the barrier.
    pub(crate) fn drain_sorted(&self, out: &mut Vec<u32>) {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        for i in t..h {
            // SAFETY: `[t, h)` slots were fully published before the
            // barrier; nobody writes them again until the next pass.
            out.push(unsafe { *self.slots[i & self.mask].get() });
        }
        self.tail.store(h, Ordering::Relaxed);
        out.sort_unstable();
    }
}

/// The engine-facing executor: serial inline scans for `engine_threads = 1`
/// (zero overhead, the historical engine), a [`ShardPool`] plus
/// [`ProposalRing`] otherwise. Both paths produce identical output by
/// construction — the executor choice is invisible to the schedule.
#[derive(Debug)]
pub(crate) enum ShardExecutor {
    /// Inline scans on the coordinator thread.
    Serial,
    /// Region scans fanned out over a persistent lock-free worker pool,
    /// publishing through the proposal ring.
    Pooled {
        /// The persistent worker pool.
        pool: ShardPool,
        /// The MPSC proposal ring shared by all executors.
        ring: ProposalRing,
    },
}

impl ShardExecutor {
    /// Builds an executor running `threads` executors in total over a
    /// fabric of `num_ancillas` ancillas (the ring capacity bound).
    pub(crate) fn new(threads: usize, num_ancillas: usize) -> Self {
        if threads <= 1 {
            ShardExecutor::Serial
        } else {
            ShardExecutor::Pooled {
                pool: ShardPool::new(threads - 1),
                ring: ProposalRing::new(num_ancillas),
            }
        }
    }

    /// The number of executors (1 for serial).
    pub(crate) fn threads(&self) -> usize {
        match self {
            ShardExecutor::Serial => 1,
            ShardExecutor::Pooled { pool, .. } => pool.executors(),
        }
    }

    /// Evaluates `pred` for every ancilla of every region and fills `out`
    /// (cleared first) with the matching indices in ascending order. `pred`
    /// must be pure with respect to the engine state (it is called
    /// concurrently from shard workers); the result is independent of the
    /// executor variant.
    ///
    /// The engine hot path uses the word-restricted variants; this dense
    /// form is the reference implementation the tests check them against.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn scan_into(
        &self,
        partition: &RegionPartition,
        pred: &(dyn Fn(u32) -> bool + Sync),
        out: &mut Vec<u32>,
    ) {
        out.clear();
        match self {
            ShardExecutor::Serial => {
                let n = partition.num_ancillas() as u32;
                out.extend((0..n).filter(|&a| pred(a)));
            }
            ShardExecutor::Pooled { pool, ring } => {
                ring.reset();
                pool.run(partition.num_regions(), &|r| {
                    for a in partition.range(r) {
                        if pred(a) {
                            ring.publish(a);
                        }
                    }
                });
                ring.drain_sorted(out);
            }
        }
    }

    /// [`Self::scan_into`] restricted to the set bits of `words` (packed
    /// occupancy words, bit `a` of word `a / 64`): `pred` is only evaluated
    /// for set ancillas, and clear ancillas never match. This is the
    /// word-parallel scan — 64 ancillas are skipped per word-compare when
    /// their queues are empty.
    pub(crate) fn scan_words_into(
        &self,
        partition: &RegionPartition,
        words: &[u64],
        pred: &(dyn Fn(u32) -> bool + Sync),
        out: &mut Vec<u32>,
    ) {
        out.clear();
        match self {
            ShardExecutor::Serial => {
                let n = partition.num_ancillas() as u32;
                for_each_set_bit_in_range(words, 0..n, |a| {
                    if pred(a) {
                        out.push(a);
                    }
                });
            }
            ShardExecutor::Pooled { pool, ring } => {
                ring.reset();
                pool.run(partition.num_regions(), &|r| {
                    for_each_set_bit_in_range(words, partition.range(r), |a| {
                        if pred(a) {
                            ring.publish(a);
                        }
                    });
                });
                ring.drain_sorted(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn partition_is_contiguous_balanced_and_thread_independent() {
        for n in [1usize, 5, 31, 32, 33, 100, 421] {
            let p = RegionPartition::for_fabric(n);
            assert_eq!(p.range(0).start, 0);
            assert_eq!(p.range(p.num_regions() - 1).end as usize, n);
            assert_eq!(p.num_ancillas(), n);
            let mut sizes = Vec::new();
            for r in 0..p.num_regions() {
                let range = p.range(r);
                assert!(range.start <= range.end);
                if r > 0 {
                    assert_eq!(p.range(r - 1).end, range.start, "contiguous");
                }
                sizes.push(range.len());
                for a in range {
                    assert_eq!(p.region_of(a), r as u32, "n={n} a={a}");
                }
            }
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
        // Region count follows the fabric, not the executor.
        assert_eq!(RegionPartition::for_fabric(64).num_regions(), 2);
        assert_eq!(RegionPartition::for_fabric(65).num_regions(), 3);
    }

    #[test]
    fn explicit_region_counts_clamp() {
        assert_eq!(RegionPartition::with_regions(4, 9).num_regions(), 4);
        assert_eq!(RegionPartition::with_regions(0, 3).num_regions(), 1);
        assert_eq!(RegionPartition::with_regions(10, 3).num_regions(), 3);
    }

    #[test]
    fn pool_runs_every_region_exactly_once() {
        let pool = ShardPool::new(3);
        assert_eq!(pool.executors(), 4);
        let counts: Vec<AtomicUsize> = (0..11).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..50 {
            pool.run(counts.len(), &|r| {
                counts[r].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (r, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 50, "region {r}");
        }
    }

    #[test]
    fn scan_matches_serial_for_any_executor() {
        let partition = RegionPartition::for_fabric(130);
        let pred = |a: u32| a.is_multiple_of(7) || a % 11 == 3;
        let mut serial = Vec::new();
        ShardExecutor::Serial.scan_into(&partition, &pred, &mut serial);
        for threads in [2usize, 3, 8] {
            let exec = ShardExecutor::new(threads, 130);
            assert_eq!(exec.threads(), threads);
            let mut got = Vec::new();
            exec.scan_into(&partition, &pred, &mut got);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn word_scan_matches_dense_scan_for_any_executor() {
        let n = 130usize;
        let partition = RegionPartition::for_fabric(n);
        // Occupancy words with a scattered population (including word
        // boundaries 63/64/127/128).
        let mut words = vec![0u64; n.div_ceil(64)];
        let set: Vec<u32> = (0..n as u32).filter(|a| a % 3 == 1 || *a >= 126).collect();
        for &a in &set {
            words[(a / 64) as usize] |= 1 << (a % 64);
        }
        let pred = |a: u32| !a.is_multiple_of(5);
        let expect: Vec<u32> = set.iter().copied().filter(|&a| pred(a)).collect();
        for threads in [1usize, 2, 4] {
            let exec = ShardExecutor::new(threads, n);
            let mut got = Vec::new();
            exec.scan_words_into(&partition, &words, &pred, &mut got);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn proposal_ring_wraps_across_passes() {
        // Capacity 16 ring driven through > 60 slot claims across passes:
        // head wraps the mask repeatedly and every pass still drains its
        // exact proposal set in sorted order.
        let ring = ProposalRing::new(13); // rounds up to 16
        let mut out = Vec::new();
        for pass in 0..17u32 {
            let k = (pass % 5) as usize;
            for i in 0..k {
                ring.publish(pass * 100 + (k - 1 - i) as u32);
            }
            out.clear();
            ring.drain_sorted(&mut out);
            let expect: Vec<u32> = (0..k as u32).map(|i| pass * 100 + i).collect();
            assert_eq!(out, expect, "pass {pass}");
        }
    }

    #[test]
    fn pooled_ring_scan_wraps_and_stays_serial_identical() {
        // A pooled executor whose ring is exactly ancilla-count sized,
        // driven through enough passes that slot indices wrap many times;
        // every pass must still equal the serial scan bit for bit.
        let n = 70usize;
        let partition = RegionPartition::for_fabric(n);
        let exec = ShardExecutor::new(3, n);
        let serial = ShardExecutor::Serial;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for pass in 0..40u32 {
            let pred = move |a: u32| !(a + pass).is_multiple_of(3);
            exec.scan_into(&partition, &pred, &mut got);
            serial.scan_into(&partition, &pred, &mut want);
            assert_eq!(got, want, "pass {pass}");
        }
    }

    #[test]
    fn panics_on_either_side_of_the_barrier_propagate_safely() {
        // 3 executors over 4 regions of 10. Regions are claimed
        // dynamically, so either the coordinator or a worker may hit the
        // poisoned ancilla; both paths must reach the barrier first
        // (workers still hold the borrowed closure pointer until then) and
        // then re-raise — and the pool must stay usable afterwards.
        let exec = ShardExecutor::new(3, 40);
        let partition = RegionPartition::with_regions(40, 4);
        let mut out = Vec::new();
        for poisoned in [35u32, 15] {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut buf = Vec::new();
                exec.scan_into(
                    &partition,
                    &|a| {
                        assert!(a != poisoned, "boom at {a}");
                        true
                    },
                    &mut buf,
                );
            }));
            assert!(result.is_err(), "panic at {poisoned} must not be swallowed");
            // The barrier completed: a fresh job runs to completion.
            exec.scan_into(&partition, &|_| true, &mut out);
            assert_eq!(out.len(), 40, "pool unusable after panic at {poisoned}");
        }
    }
}
