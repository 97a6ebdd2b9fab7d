//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer of the
//! program (nothing inside the program is instrumented). Each span has a
//! name, a start, an end and a parent; all spans of one unit of work (one
//! set-up, one simulation run, one sweep repetition) share a trace id. Spans
//! stay in memory until the command ends and writes them out as JSON.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Id shared by every span of one unit of work.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `lattice.layout`.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. A disabled recorder runs the closures it is
/// given and records nothing, so untimed and timed passes share one code
/// path.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    traces: u64,
}

impl Spans {
    /// A recorder that keeps every span.
    pub fn enabled() -> Self {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            traces: 0,
        }
    }

    /// A recorder that keeps nothing.
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Spans::enabled()
        }
    }

    /// Runs `f` as the root span of a new trace.
    pub fn root<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        assert!(
            self.open.is_empty(),
            "root span {name} opened inside another span"
        );
        self.traces += 1;
        self.child(name, f)
    }

    /// Runs `f` as a child of the innermost open span.
    pub fn child<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            trace: self.traces,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Per trace that holds spans named `name`, the summed self time of
    /// those spans in milliseconds (one value per unit of work).
    pub fn self_ms_per_trace(&self, name: &str) -> Vec<f64> {
        let self_ns = self.self_times_ns();
        let mut out: Vec<(u64, f64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            if s.name != name {
                continue;
            }
            let ms = ns as f64 / 1e6;
            match out.last_mut() {
                Some((trace, total)) if *trace == s.trace => *total += ms,
                _ => out.push((s.trace, ms)),
            }
        }
        out.into_iter().map(|(_, ms)| ms).collect()
    }

    /// The spans as a JSON array, with each span's self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Length of the part of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, parent: Option<usize>, name: &str, start: u64, end: u64) -> Span {
        Span {
            trace,
            parent,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        }
    }

    fn recorder(spans: Vec<Span>) -> Spans {
        Spans {
            spans,
            ..Spans::enabled()
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let r = recorder(vec![
            span(1, None, "setup", 0, 100),
            span(1, Some(0), "lattice.layout", 10, 40),
            span(1, Some(0), "lattice.graph", 50, 60),
        ]);
        assert_eq!(r.self_times_ns(), vec![60, 30, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let r = recorder(vec![
            span(1, None, "harness.sweep", 0, 100),
            span(1, Some(0), "worker", 10, 60),
            span(1, Some(0), "worker", 30, 80),
            span(1, Some(0), "worker", 40, 50),
        ]);
        assert_eq!(r.self_times_ns()[0], 100 - 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let r = recorder(vec![
            span(1, None, "root", 10, 50),
            span(1, Some(0), "late", 40, 90),
            span(1, Some(0), "early", 0, 20),
        ]);
        assert_eq!(r.self_times_ns()[0], 40 - 10 - 10);
    }

    #[test]
    fn grandchildren_only_reduce_their_parent() {
        let r = recorder(vec![
            span(1, None, "root", 0, 100),
            span(1, Some(0), "mid", 0, 50),
            span(1, Some(1), "leaf", 0, 50),
        ]);
        assert_eq!(r.self_times_ns(), vec![50, 0, 50]);
    }

    #[test]
    fn self_time_is_summed_per_trace() {
        const MS: u64 = 1_000_000;
        let r = recorder(vec![
            span(1, None, "setup", 0, 100 * MS),
            span(1, Some(0), "workloads.generate", 0, 10 * MS),
            span(1, Some(0), "workloads.generate", 20 * MS, 25 * MS),
            span(2, None, "setup", 200 * MS, 300 * MS),
            span(2, Some(3), "workloads.generate", 200 * MS, 207 * MS),
        ]);
        assert_eq!(r.self_ms_per_trace("workloads.generate"), vec![15.0, 7.0]);
        assert_eq!(r.self_ms_per_trace("setup"), vec![85.0, 93.0]);
        assert_eq!(r.durations_ms("setup"), vec![100.0, 100.0]);
    }

    #[test]
    fn recorder_nests_and_shares_trace_ids() {
        let mut r = Spans::enabled();
        r.root("a", |s| s.child("b", |s| s.child("c", |_| ())));
        r.root("d", |_| ());
        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            spans
                .iter()
                .map(|s| (s.trace, s.parent))
                .collect::<Vec<_>>(),
            vec![(1, None), (1, Some(0)), (1, Some(1)), (2, None)]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(r.to_json().contains("\"name\":\"c\""));

        let mut off = Spans::disabled();
        assert_eq!(off.root("a", |s| s.child("b", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
