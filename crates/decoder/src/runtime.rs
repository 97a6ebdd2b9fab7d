//! The runtime the simulation engines consume: model + backlog + statistics
//! behind a two-call interface (`submit`, `retire`).

use crate::models::build_model;
use crate::union_find::ErrorChannel;
use crate::{DecodeBacklog, DecoderConfig, DecoderModel, WindowId};

/// Aggregate decoder statistics for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecoderStats {
    /// Windows submitted to the decoder.
    pub windows_submitted: u64,
    /// Windows decoded and retired.
    pub windows_decoded: u64,
    /// Total rounds the scheduler waited on decode results (sum over windows
    /// of `ready_at − submitted`).
    pub stall_rounds: u64,
    /// Largest number of windows simultaneously in flight.
    pub peak_backlog: u64,
    /// Defects (flipped detectors) the decoder observed. Zero for the
    /// latency models — only the union-find decoder samples real syndromes.
    pub defects: u64,
    /// Union-find cluster-growth half-steps performed (the dominant decode
    /// work term).
    pub growth_steps: u64,
    /// DSU merges of distinct clusters during growth.
    pub merges: u64,
    /// Erasure edges peeled into corrections.
    pub peeled_edges: u64,
    /// Windows whose residual (error ⊕ correction) crossed the logical cut.
    pub logical_failures: u64,
}

/// Wraps a [`DecoderModel`] and a [`DecodeBacklog`] behind the interface the
/// engines consume.
///
/// An engine calls [`submit`](DecoderRuntime::submit) when a feed-forward
/// measurement completes; the returned round is when the decoded outcome may
/// be acted on. Once the engine consumes the result it calls
/// [`retire`](DecoderRuntime::retire), which updates the backlog accounting.
#[derive(Debug)]
pub struct DecoderRuntime {
    model: Box<dyn DecoderModel + Send + Sync>,
    backlog: DecodeBacklog,
    stats: DecoderStats,
    /// Syndrome rounds per lattice-surgery cycle (the code distance).
    rounds_per_cycle: u32,
    /// Whether preparation-verification windows are decoded too.
    decode_prep: bool,
}

// The model box is `Send + Sync` so a runtime carries no thread-bound state
// and whole simulations can run on the seed and sweep worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DecoderRuntime>();
};

impl DecoderRuntime {
    /// Builds the runtime a configuration describes. `rounds_per_cycle` is
    /// the code distance `d` (one lattice-surgery cycle = `d` rounds).
    /// A union-find decoder built this way samples the default
    /// [`ErrorChannel`]; engines use [`DecoderRuntime::with_channel`] to
    /// feed it the simulation's physical error rate and seed.
    pub fn new(config: &DecoderConfig, rounds_per_cycle: u32) -> Self {
        DecoderRuntime::with_channel(config, rounds_per_cycle, ErrorChannel::default())
    }

    /// Builds the runtime with an explicit error channel for the union-find
    /// decoder (the latency models ignore it).
    pub fn with_channel(
        config: &DecoderConfig,
        rounds_per_cycle: u32,
        channel: ErrorChannel,
    ) -> Self {
        let rounds_per_cycle = rounds_per_cycle.max(1);
        DecoderRuntime {
            model: build_model(config, rounds_per_cycle, channel),
            backlog: DecodeBacklog::new(),
            stats: DecoderStats::default(),
            rounds_per_cycle,
            decode_prep: config.decode_prep,
        }
    }

    /// Whether the engines should route `|mθ⟩` preparation-verification
    /// outcomes through this decoder ([`DecoderConfig::decode_prep`]).
    pub fn decodes_prep(&self) -> bool {
        self.decode_prep
    }

    /// Submits a syndrome window of `rounds` measurement rounds from `tile`
    /// at round `now`. Returns the window id and the round at which its
    /// decode result becomes visible (`>= now`; `== now` for the ideal
    /// decoder).
    pub fn submit(&mut self, tile: u32, rounds: u32, now: u64) -> (WindowId, u64) {
        let ready_at = self.model.decode_ready_at(tile, rounds, now);
        debug_assert!(ready_at >= now, "decoders cannot answer before submission");
        let id = self.backlog.enqueue(tile, rounds, now, ready_at);
        self.stats.windows_submitted += 1;
        self.stats.stall_rounds += ready_at - now;
        self.stats.peak_backlog = self.stats.peak_backlog.max(self.backlog.in_flight() as u64);
        let work = self.model.take_work();
        self.stats.defects += work.defects;
        self.stats.growth_steps += work.growth_steps;
        self.stats.merges += work.merges;
        self.stats.peeled_edges += work.peeled_edges;
        self.stats.logical_failures += work.logical_failures;
        (id, ready_at)
    }

    /// Marks a window's decode result as consumed; returns the latency the
    /// scheduler observed, in whole lattice-surgery cycles (rounded up).
    pub fn retire(&mut self, id: WindowId, now: u64) -> u64 {
        let w = self.backlog.retire(id);
        debug_assert!(now >= w.ready_at, "result consumed before it was ready");
        self.stats.windows_decoded += 1;
        (w.ready_at - w.submitted).div_ceil(self.rounds_per_cycle as u64)
    }

    /// The live backlog (for conservation checks and per-tile queries).
    pub fn backlog(&self) -> &DecodeBacklog {
        &self.backlog
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> DecoderStats {
        self.stats
    }

    /// The model's short name.
    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_runtime_is_invisible() {
        let mut rt = DecoderRuntime::new(&DecoderConfig::default(), 7);
        let (id, ready) = rt.submit(3, 14, 100);
        assert_eq!(ready, 100);
        assert_eq!(rt.retire(id, 100), 0);
        assert_eq!(rt.stats().stall_rounds, 0);
        assert!(rt.backlog().is_conserved());
    }

    #[test]
    fn fixed_runtime_tracks_stall_and_latency() {
        let mut rt = DecoderRuntime::new(&DecoderConfig::fixed(1.0), 7);
        let (id, ready) = rt.submit(0, 14, 100);
        assert_eq!(ready, 115); // 100 + base 1 + 14/1.0
        let cycles = rt.retire(id, ready);
        assert_eq!(cycles, 3); // ceil(15 / 7)
        assert_eq!(rt.stats().stall_rounds, 15);
        assert_eq!(rt.stats().windows_submitted, 1);
        assert_eq!(rt.stats().windows_decoded, 1);
    }

    #[test]
    fn union_find_runtime_accumulates_real_work() {
        let channel = ErrorChannel::new(0.05, 42);
        let mut rt = DecoderRuntime::with_channel(&DecoderConfig::union_find(8.0), 5, channel);
        let mut ids = Vec::new();
        for i in 0..20 {
            ids.push(rt.submit(i % 3, 5, (i as u64) * 100).0);
        }
        let s = rt.stats();
        assert!(s.defects > 0, "p=0.05 windows must produce defects");
        assert!(s.growth_steps > 0);
        assert!(s.peeled_edges > 0);
        assert!(s.stall_rounds > 0, "real decode work must cost rounds");
        for id in ids {
            let ready = rt.backlog().get(id).unwrap().ready_at;
            rt.retire(id, ready);
        }
        assert!(rt.backlog().is_conserved());
        assert_eq!(rt.model_name(), "union_find");
    }

    #[test]
    fn latency_models_leave_work_stats_zero() {
        let mut rt = DecoderRuntime::new(&DecoderConfig::fixed(0.5), 7);
        rt.submit(0, 7, 0);
        let s = rt.stats();
        assert_eq!(s.defects, 0);
        assert_eq!(s.growth_steps, 0);
        assert_eq!(s.logical_failures, 0);
    }

    #[test]
    fn peak_backlog_recorded() {
        let mut rt = DecoderRuntime::new(&DecoderConfig::fixed(0.5), 7);
        let ids: Vec<_> = (0..5).map(|i| rt.submit(0, 7, i).0).collect();
        assert_eq!(rt.stats().peak_backlog, 5);
        for id in ids {
            let ready = rt.backlog().get(id).unwrap().ready_at;
            rt.retire(id, ready);
        }
        assert!(rt.backlog().is_conserved());
        assert_eq!(rt.backlog().in_flight(), 0);
    }
}
