//! # rescq-telemetry
//!
//! Zero-dependency instrumentation for the RESCQ reproduction: a
//! [`Recorder`] sink trait, a bounded in-memory [`RingRecorder`] with
//! per-phase wall-clock histograms, Chrome trace-event export
//! ([`chrome`]), schema-versioned perf baselines ([`perf`]), and the
//! sweep progress heartbeat ([`progress`]).
//!
//! ## Determinism contract
//!
//! Instrumentation observes the simulation, it never steers it. The
//! engines consult a recorder only through an `Option<&dyn Recorder>`
//! that is `None` by default, so a disabled recorder costs one inlined
//! `is_some()` check per site and nothing else — no allocation, no
//! locking, no timing calls. With a recorder attached, every recorded
//! quantity that feeds back into reports is derived from simulation
//! time (rounds/cycles), never wall-clock; wall-clock lives only in the
//! trace, the phase histograms, and perf baselines. Schedules and
//! reports are therefore byte-identical with tracing on or off (property
//! `tracing_is_inert`).
//!
//! ## Example
//!
//! ```
//! use rescq_telemetry::{Event, Phase, Recorder, RingRecorder};
//!
//! let rec = RingRecorder::new();
//! rec.record(Event::PhaseSpan { phase: Phase::Schedule, round: 7, dur_ns: 1200 });
//! rec.record(Event::Claim { round: 7, task: 0, ancilla: 3, cross_shard: false });
//! assert_eq!(rec.len(), 2);
//! let json = rec.to_chrome_trace();
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod chrome;
pub mod perf;
pub mod progress;
pub mod snapshot;

pub use analyze::{analyze_events, parse_trace, AnalyzeReport, AncillaUtil, ParsedTrace, PathLink};
pub use chrome::{normalize_timestamps, validate_trace, TraceStats};
pub use perf::{
    compare, delta_table, DeltaLevel, PerfBaseline, PerfDelta, PerfEntry, PERF_SCHEMA_VERSION,
};
pub use progress::{progress_line, Heartbeat};
pub use snapshot::{HistogramSummary, MetricsSnapshot, METRICS_SCHEMA_VERSION};

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// The four phases of one realtime-engine dispatch pass (schedule →
/// start → propose → commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Phase 1: drain the scheduling worklist (newly ready gates).
    Schedule,
    /// Phase 2: try to start every live task.
    Start,
    /// Phase 3: scan the dirty ancilla queues and propose actions.
    Propose,
    /// Phase 4: commit proposed actions in canonical ancilla order.
    Commit,
}

impl Phase {
    /// All phases, in protocol order.
    pub const ALL: [Phase; 4] = [Phase::Schedule, Phase::Start, Phase::Propose, Phase::Commit];

    /// Stable lowercase name (trace event / CSV / JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Schedule => "schedule",
            Phase::Start => "start",
            Phase::Propose => "propose",
            Phase::Commit => "commit",
        }
    }

    /// Dense index in `0..4`, matching [`Phase::ALL`] order.
    pub fn index(self) -> usize {
        match self {
            Phase::Schedule => 0,
            Phase::Start => 1,
            Phase::Propose => 2,
            Phase::Commit => 3,
        }
    }
}

/// Why a live task failed to make progress during a cycle — the
/// stall-attribution buckets. Attribution is derived from schedule
/// state alone (deterministic, independent of tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// The task's ancilla claims sit behind other holders on the
    /// reservation queues (no free prep/surgery sites).
    AncillaContention,
    /// The task waits on a syndrome-decode result that is not ready
    /// yet (classical decoder backlog).
    DecoderBacklog,
    /// A CNOT has a planned route but cannot acquire it end to end.
    RouteBlocked,
    /// The task's resources were preempted by a strictly
    /// higher-class task (priority-lattice displacement).
    ClassDisplacement,
}

impl StallCause {
    /// All causes, in canonical (CSV column) order.
    pub const ALL: [StallCause; 4] = [
        StallCause::AncillaContention,
        StallCause::DecoderBacklog,
        StallCause::RouteBlocked,
        StallCause::ClassDisplacement,
    ];

    /// Stable snake_case name (trace event / CSV / JSON key).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::AncillaContention => "ancilla_contention",
            StallCause::DecoderBacklog => "decoder_backlog",
            StallCause::RouteBlocked => "route_blocked",
            StallCause::ClassDisplacement => "class_displacement",
        }
    }

    /// Dense index in `0..4`, matching [`StallCause::ALL`] order.
    pub fn index(self) -> usize {
        match self {
            StallCause::AncillaContention => 0,
            StallCause::DecoderBacklog => 1,
            StallCause::RouteBlocked => 2,
            StallCause::ClassDisplacement => 3,
        }
    }
}

/// One structured trace event. Every variant is `Copy` and carries only
/// plain integers — producing an event never allocates.
///
/// `round` is simulation time in measurement rounds; `task` is the
/// emitting gate's index in the circuit; `ancilla` is a dense ancilla
/// index in the routing graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// One engine dispatch phase completed, taking `dur_ns` wall-clock.
    PhaseSpan {
        /// Which of the four phases ran.
        phase: Phase,
        /// Simulation round of the dispatch pass.
        round: u64,
        /// Wall-clock duration of the phase in nanoseconds.
        dur_ns: u64,
    },
    /// A ledger claim was registered on an ancilla queue.
    Claim {
        /// Simulation round.
        round: u64,
        /// Claiming task (gate index).
        task: u64,
        /// Claimed ancilla (dense index).
        ancilla: u32,
        /// The ancilla lies outside the claiming task's home shard.
        cross_shard: bool,
    },
    /// The ledger applied a preemption (queue reorder).
    Preemption {
        /// Simulation round.
        round: u64,
        /// Preempting task (gate index).
        task: u64,
        /// Ancilla whose queue was reordered.
        ancilla: u32,
        /// The preemption was granted by the priority-class lattice
        /// (seniority alone would have refused the reorder).
        class_won: bool,
    },
    /// The ledger rejected a preemption: the reorder would have closed
    /// a cycle in the task wait-for graph.
    PreemptionRejected {
        /// Simulation round.
        round: u64,
        /// The task whose preemption attempt was refused.
        task: u64,
        /// Ancilla whose queue would have been reordered.
        ancilla: u32,
    },
    /// A syndrome window was submitted to the classical decoder.
    WindowEnqueued {
        /// Simulation round of submission.
        round: u64,
        /// Decoder window id.
        window: u64,
        /// Round the decode result becomes visible.
        ready_at: u64,
    },
    /// A decode window's result was consumed (retired).
    WindowRetired {
        /// Simulation round of retirement.
        round: u64,
        /// Decoder window id.
        window: u64,
        /// Rounds the consumer stalled waiting for the result.
        stalled_rounds: u64,
    },
    /// A CNOT route was planned (or re-planned after a stall).
    RoutePlanned {
        /// Simulation round.
        round: u64,
        /// The CNOT task (gate index).
        task: u64,
        /// Route length in ancilla hops.
        hops: u32,
        /// This was a re-plan of a previously stalled route.
        replanned: bool,
    },
    /// A live task made no progress this cycle, attributed to `cause`.
    Stall {
        /// Simulation round of the cycle tick.
        round: u64,
        /// The stalled task (gate index).
        task: u64,
        /// The attributed cause.
        cause: StallCause,
    },
    /// A wait-for edge was inserted into the ledger's task graph:
    /// `waiter` enqueued behind `holder` on an ancilla queue. The
    /// analytics layer reconstructs blocking chains from these.
    WaitEdge {
        /// Simulation round.
        round: u64,
        /// The task that now waits (gate index).
        waiter: u64,
        /// The task it waits behind (gate index).
        holder: u64,
        /// The ancilla queue carrying the edge.
        ancilla: u32,
    },
    /// An ancilla's occupancy state changed (sampled on the cycle
    /// tick; emitted only on change, so the stream is a compact
    /// state-transition series, not a per-cycle dump).
    AncillaState {
        /// Simulation round of the sample.
        round: u64,
        /// Ancilla (dense index).
        ancilla: u32,
        /// The ancilla's region in the shard partition.
        region: u32,
        /// Reservation-queue depth at the sample.
        depth: u32,
        /// The ancilla is occupied or held (not free this round).
        busy: bool,
    },
    /// A harness sweep job finished (progress heartbeat payload).
    JobDone {
        /// Global job index.
        index: u64,
        /// Total jobs in the sweep.
        total: u64,
        /// Wall-clock nanoseconds the job took (0 when resumed).
        wall_ns: u64,
        /// The job was restored from a checkpoint instead of run.
        resumed: bool,
    },
}

/// A sink for trace [`Event`]s.
///
/// `record` takes `&self` so a single recorder can be shared by
/// concurrent producers (harness workers, seed threads);
/// implementations synchronise internally. Implementations must never
/// panic on any event and must not feed anything back into the
/// simulation — see the crate-level determinism contract.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Consumes one event.
    fn record(&self, ev: Event);
}

/// Power-of-two-bucketed nanosecond histogram (for phase wall-clock
/// timing). Bucket `i` holds samples in `[2^(i−1), 2^i)` ns.
#[derive(Debug, Clone)]
pub struct NsHistogram {
    counts: [u64; 48],
    count: u64,
    total_ns: u64,
}

impl Default for NsHistogram {
    fn default() -> Self {
        NsHistogram {
            counts: [0; 48],
            count: 0,
            total_ns: 0,
        }
    }
}

impl NsHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            (64 - ns.leading_zeros() as usize).min(47)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.count += 1;
        self.total_ns += ns;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation inside the power-of-two bucket holding the
    /// target rank. Exact for samples that are 0; otherwise accurate
    /// to within the bucket (a factor of 2). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Nearest-rank target in 1..=count, then interpolate within
        // the bucket that rank falls in.
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if (next as f64) >= target {
                if i == 0 {
                    return 0; // bucket 0 holds exactly the value 0
                }
                let lo = 1u64 << (i - 1);
                let hi = 1u64 << i;
                let frac = (target - cum as f64) / n as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            cum = next;
        }
        // Unreachable when counts are consistent; fall back to the
        // top bucket's lower bound.
        1u64 << 46
    }

    /// Adds every sample of `other` into `self` (bucket-wise; exact
    /// for counts and totals, bucket-resolution for quantiles).
    pub fn merge(&mut self, other: &NsHistogram) {
        for (slot, &n) in self.counts.iter_mut().zip(other.counts.iter()) {
            *slot += n;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
    }

    /// Iterates the non-empty buckets as `(upper_bound_ns, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << i }, n))
    }
}

/// One event plus the wall-clock instant (nanoseconds since the
/// recorder's creation) it was recorded at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Nanoseconds since the recorder was created.
    pub at_ns: u64,
    /// The event.
    pub event: Event,
}

#[derive(Debug)]
struct RingInner {
    events: VecDeque<TimedEvent>,
    dropped: u64,
    phase_hist: [NsHistogram; 4],
}

/// A bounded in-memory [`Recorder`]: a ring buffer of [`TimedEvent`]s
/// plus per-phase wall-clock histograms. When the ring is full the
/// oldest events are dropped (and counted), so memory use is constant
/// no matter how long the run.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    epoch: Instant,
    inner: Mutex<RingInner>,
}

impl Default for RingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl RingRecorder {
    /// Default ring capacity in events.
    pub const DEFAULT_CAPACITY: usize = 1 << 18;

    /// Creates a recorder with [`RingRecorder::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a recorder holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            inner: Mutex::new(RingInner {
                events: VecDeque::with_capacity(capacity.clamp(1, 4096)),
                dropped: 0,
                phase_hist: Default::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner> {
        self.inner.lock().expect("ring recorder lock poisoned")
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.lock().events.iter().copied().collect()
    }

    /// Per-phase wall-clock histograms, indexed by [`Phase::index`].
    pub fn phase_histograms(&self) -> [NsHistogram; 4] {
        self.lock().phase_hist.clone()
    }

    /// Total wall-clock nanoseconds per phase, indexed by
    /// [`Phase::index`].
    pub fn phase_totals_ns(&self) -> [u64; 4] {
        let inner = self.lock();
        let mut out = [0u64; 4];
        for (slot, h) in out.iter_mut().zip(inner.phase_hist.iter()) {
            *slot = h.total_ns();
        }
        out
    }

    /// Renders the buffered events as a Chrome trace-event JSON
    /// document (`chrome://tracing` / Perfetto loadable).
    pub fn to_chrome_trace(&self) -> String {
        let inner = self.lock();
        let events: Vec<TimedEvent> = inner.events.iter().copied().collect();
        chrome::render(&events, inner.dropped)
    }
}

impl Recorder for RingRecorder {
    fn record(&self, ev: Event) {
        let at_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.lock();
        if let Event::PhaseSpan { phase, dur_ns, .. } = ev {
            inner.phase_hist[phase.index()].record(dur_ns);
        }
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(TimedEvent { at_ns, event: ev });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_and_cause_tables_are_consistent() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.name().is_empty());
        }
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn histogram_counts_and_means() {
        let mut h = NsHistogram::new();
        for ns in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.total_ns(), 1_001_006);
        assert!((h.mean_ns() - 1_001_006.0 / 6.0).abs() < 1e-9);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert!(buckets.iter().map(|&(_, n)| n).sum::<u64>() == 6);
        // 2 and 3 land in the same power-of-two bucket [2, 4).
        assert!(buckets.iter().any(|&(ub, n)| ub == 4 && n == 2));
    }

    #[test]
    fn quantiles_bracket_exact_small_samples() {
        // All-zero samples: every quantile is exactly 0.
        let mut zeros = NsHistogram::new();
        for _ in 0..5 {
            zeros.record(0);
        }
        assert_eq!(zeros.quantile(0.5), 0);
        assert_eq!(zeros.quantile(0.99), 0);

        // Exact sample set; the estimate must land in the same
        // power-of-two bucket as the exact nearest-rank quantile.
        let samples: [u64; 8] = [10, 20, 30, 40, 100, 200, 1000, 4000];
        let mut h = NsHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        for (q, exact) in [(0.5, 40u64), (0.99, 4000u64), (0.0, 10u64)] {
            let est = h.quantile(q);
            let (lo, hi) = (exact.next_power_of_two() / 2, exact.next_power_of_two());
            assert!(
                est >= lo && est <= hi,
                "q={q}: est {est} outside bucket [{lo}, {hi}] of exact {exact}"
            );
        }
        // Monotone in q.
        assert!(h.quantile(0.99) >= h.quantile(0.5));
        assert!(h.quantile(0.5) >= h.quantile(0.1));
        assert_eq!(NsHistogram::new().quantile(0.5), 0);
    }

    #[test]
    fn merge_is_equivalent_to_recording_everything() {
        let (mut a, mut b, mut all) = (NsHistogram::new(), NsHistogram::new(), NsHistogram::new());
        for ns in [0u64, 3, 70, 900] {
            a.record(ns);
            all.record(ns);
        }
        for ns in [5u64, 60_000, 1_000_000] {
            b.record(ns);
            all.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.total_ns(), all.total_ns());
        assert_eq!(a.quantile(0.5), all.quantile(0.5));
        assert_eq!(a.quantile(0.99), all.quantile(0.99));
        assert_eq!(
            a.nonzero_buckets().collect::<Vec<_>>(),
            all.nonzero_buckets().collect::<Vec<_>>()
        );
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let rec = RingRecorder::with_capacity(2);
        for round in 0..5 {
            rec.record(Event::Stall {
                round,
                task: 0,
                cause: StallCause::AncillaContention,
            });
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let evs = rec.events();
        assert!(matches!(evs[0].event, Event::Stall { round: 3, .. }));
        assert!(matches!(evs[1].event, Event::Stall { round: 4, .. }));
    }

    #[test]
    fn phase_spans_feed_the_histograms() {
        let rec = RingRecorder::new();
        rec.record(Event::PhaseSpan {
            phase: Phase::Commit,
            round: 1,
            dur_ns: 500,
        });
        rec.record(Event::PhaseSpan {
            phase: Phase::Commit,
            round: 2,
            dur_ns: 1500,
        });
        let totals = rec.phase_totals_ns();
        assert_eq!(totals[Phase::Commit.index()], 2000);
        assert_eq!(totals[Phase::Schedule.index()], 0);
        assert_eq!(rec.phase_histograms()[Phase::Commit.index()].count(), 2);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = RingRecorder::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..100 {
                        rec.record(Event::JobDone {
                            index: t * 100 + i,
                            total: 400,
                            wall_ns: 10,
                            resumed: false,
                        });
                    }
                });
            }
        });
        assert_eq!(rec.len(), 400);
    }
}
