//! Host-speed calibration. The benchmark's host is shared, and its speed
//! drifts by up to 2x over minutes, for every program on it alike. So a
//! fixed benchmark-side kernel runs between the timed operations of the
//! measured window (a *mark*), and each operation's time is scaled by
//! `REFERENCE_MS / kernel time`, with the kernel time taken as the mean of
//! the marks right before and right after the operation: the time it would
//! have taken on a host where the kernel takes `REFERENCE_MS`. The kernel
//! mixes the kinds of work the simulator does (hash-table updates, sorting,
//! a shortest-path search over a grid), since work of one kind alone tracks
//! the drift less well. It allocates nothing once built, so nothing the
//! program links in (an allocator, say) changes it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// About the kernel's time on the host the benchmark was sized on (a
/// 2-vCPU KVM guest) in a quiet period. It only sets the scale of the
/// scaled times.
pub const REFERENCE_MS: f64 = 14.0;

const KEYS: u64 = 4096;
const BUCKET: usize = 12;
const UPDATES: usize = 600_000;
const SORTED: usize = 1 << 14;
const SORTS: usize = 8;
const GRID: usize = 96;
const SEARCHES: usize = 6;

type FixedMap = HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>>;

/// The calibration kernel and the marks taken so far.
#[derive(Debug)]
pub struct Calibration {
    kernel: Kernel,
    runs_per_mark: usize,
    /// Mean kernel time of each mark, in milliseconds.
    marks: Vec<f64>,
}

impl Calibration {
    /// A calibration whose marks each take the mean of `runs_per_mark`
    /// kernel runs. Runs the kernel once to warm it (not recorded).
    pub fn new(runs_per_mark: usize) -> Self {
        let mut kernel = Kernel::new();
        kernel.run();
        Calibration {
            kernel,
            runs_per_mark: runs_per_mark.max(1),
            marks: Vec::new(),
        }
    }

    /// Takes a mark and returns its index. An operation timed after mark
    /// `i` is scaled with mark `i` and the next one.
    pub fn mark(&mut self) -> usize {
        let t0 = Instant::now();
        for _ in 0..self.runs_per_mark {
            self.kernel.run();
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3 / self.runs_per_mark as f64;
        self.marks.push(ms);
        self.marks.len() - 1
    }

    /// `value`, measured between mark `i` and the next mark (or after the
    /// last one), scaled to the reference host speed.
    pub fn scale(&self, i: usize, value: f64) -> f64 {
        let Some(&before) = self.marks.get(i) else {
            return value;
        };
        let after = self.marks.get(i + 1).copied().unwrap_or(before);
        value * stats::ratio(REFERENCE_MS, (before + after) / 2.0)
    }

    /// Every `(mark, value)` pair scaled by [`Calibration::scale`].
    pub fn scale_all(&self, values: &[(usize, f64)]) -> Vec<f64> {
        values.iter().map(|&(i, v)| self.scale(i, v)).collect()
    }

    /// `REFERENCE_MS` over the median mark: the typical scale factor.
    pub fn factor(&self) -> f64 {
        stats::ratio(REFERENCE_MS, stats::median(&self.marks))
    }

    /// Number of marks taken.
    pub fn marks(&self) -> usize {
        self.marks.len()
    }
}

/// The kernel and its preallocated state.
#[derive(Debug)]
struct Kernel {
    map: FixedMap,
    values: Vec<u64>,
    dist: Vec<u32>,
    heap: BinaryHeap<std::cmp::Reverse<(u32, u32)>>,
}

impl Kernel {
    fn new() -> Self {
        let mut map = FixedMap::default();
        for key in 0..KEYS {
            map.insert(key, Vec::with_capacity(BUCKET));
        }
        Kernel {
            map,
            values: vec![0; SORTED],
            dist: vec![0; GRID * GRID],
            heap: BinaryHeap::with_capacity(4 * GRID * GRID),
        }
    }

    fn run(&mut self) {
        black_box(self.updates());
        black_box(self.sorts());
        black_box(self.searches());
    }

    fn updates(&mut self) -> usize {
        let (mut s, mut total) = (0x9E37_79B9u64, 0);
        for i in 0..UPDATES {
            s = xorshift(s);
            let bucket = self.map.get_mut(&(s % KEYS)).expect("every key is present");
            bucket.push(i as u32);
            if bucket.len() == BUCKET {
                total += bucket.iter().map(|&x| x as usize).sum::<usize>();
                bucket.clear();
            }
        }
        total
    }

    fn sorts(&mut self) -> u64 {
        let mut acc = 0;
        for rep in 0..SORTS {
            let mut s = 0xD1B5_4A32 + rep as u64;
            for v in self.values.iter_mut() {
                s = xorshift(s);
                *v = s;
            }
            self.values.sort_unstable();
            acc ^= self.values[SORTED / 2];
        }
        acc
    }

    /// Dijkstra from a few sources over a grid with pseudo-random weights.
    fn searches(&mut self) -> u64 {
        use std::cmp::Reverse;
        let n = GRID;
        let mut acc = 0;
        for rep in 0..SEARCHES {
            self.dist.fill(u32::MAX);
            let source = (rep * 7919) % (n * n);
            self.dist[source] = 0;
            self.heap.clear();
            self.heap.push(Reverse((0, source as u32)));
            while let Some(Reverse((d, u))) = self.heap.pop() {
                let u = u as usize;
                if d > self.dist[u] {
                    continue;
                }
                let (x, y) = (u % n, u / n);
                let neighbours = [
                    (x + 1 < n).then(|| u + 1),
                    (x > 0).then(|| u - 1),
                    (y + 1 < n).then(|| u + n),
                    (y > 0).then(|| u - n),
                ];
                for v in neighbours.into_iter().flatten() {
                    let w = 1 + (xorshift(v as u64 + 1) % 5) as u32;
                    if d + w < self.dist[v] {
                        self.dist[v] = d + w;
                        self.heap.push(Reverse((d + w, v as u32)));
                    }
                }
            }
            acc += u64::from(self.dist[n * n - 1 - source]);
        }
        acc
    }
}

fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_reuses_its_state() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.sorts(), b.sorts());
        assert_eq!(a.searches(), b.searches());
        let capacity = a.heap.capacity();
        a.run();
        assert_eq!(a.heap.capacity(), capacity);
        assert!(a.map.values().all(|v| v.capacity() == BUCKET));
    }

    #[test]
    fn values_are_scaled_by_the_marks_around_them() {
        let mut cal = Calibration::new(1);
        assert_eq!(cal.scale(0, 5.0), 5.0);
        cal.marks = vec![7.0, 21.0, 28.0];
        // Mean of the surrounding marks 14 ms = REFERENCE_MS: unchanged.
        assert_eq!(cal.scale(0, 5.0), 5.0);
        // Mean 24.5 ms: the host ran at 14 / 24.5 of the reference speed.
        assert!((cal.scale(1, 7.0) - 4.0).abs() < 1e-12);
        // After the last mark: that mark alone.
        assert_eq!(cal.scale(2, 2.0), 1.0);
        assert_eq!(cal.factor(), REFERENCE_MS / 21.0);
        assert_eq!(cal.mark(), 3);
        assert_eq!(cal.marks(), 4);
    }
}
