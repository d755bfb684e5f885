//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed
//! drifts: for seconds to minutes at a time the same code runs up to
//! twice as slowly, in CPU time as well as in wall time, because
//! neighbours compete for the cores and their caches. No statistic
//! inside one run removes a slowdown that outlasts the run. So every
//! [`INTERVAL`], between ops and while the program is idle, the
//! benchmark times a fixed kernel of its own, and every end-to-end time
//! is divided by the host factor around it: the kernel's mean time over
//! [`WINDOW`] before and after, relative to [`REF_MS`]. That puts the
//! times at the reference host's speed. A change in the program moves
//! them; a change in the host's speed moves the kernel as well and so
//! largely cancels. The kernel uses only `std`, never the program's
//! crates, so no change in the program can move the factor.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time, in milliseconds, on the reference host (a 2-core
/// Xeon guest on an ordinary stretch). The end-to-end times are
/// reported at this speed.
pub const REF_MS: f64 = 3.5;

/// How often the kernel runs, at most: between two ops once this much
/// time has passed since the last probe.
const INTERVAL: Duration = Duration::from_millis(200);

/// How far before and after a stretch of time its probes may lie.
const WINDOW: Duration = Duration::from_secs(1);

/// Bits of the kernel's state vectors: it visits 2^BITS states.
const BITS: usize = 11;

/// The calibration kernel: a breadth-first search over all bit vectors
/// of [`BITS`] bits (single-bit flips), each state a heap-allocated
/// `Vec<u8>` key of a hash map, and then every state rendered as text
/// and parsed back. Hashing, small allocations and short string work,
/// as in the program's own ops. The containers keep their capacity from
/// one run to the next, so that a warm run takes no page faults, whose
/// cost varies with the host's memory rather than its cores. `run`
/// returns a checksum.
#[derive(Default)]
pub struct Kernel {
    index: HashMap<Vec<u8>, u32>,
    order: Vec<Vec<u8>>,
    queue: VecDeque<Vec<u8>>,
    line: String,
}

impl Kernel {
    pub fn run(&mut self) -> u64 {
        self.index.clear();
        self.order.clear();
        self.queue.clear();
        self.index.insert(vec![0; BITS], 0);
        self.queue.push_back(vec![0; BITS]);
        let mut sum = 0u64;
        while let Some(s) = self.queue.pop_front() {
            for i in 0..BITS {
                let mut next = s.clone();
                next[i] ^= 1;
                let fresh = self.index.len() as u32;
                let queue = &mut self.queue;
                let id = *self.index.entry(next.clone()).or_insert_with(|| {
                    queue.push_back(next);
                    fresh
                });
                sum = sum.wrapping_mul(31).wrapping_add(u64::from(id));
            }
            self.order.push(s);
        }
        for s in &self.order {
            self.line.clear();
            for b in s {
                let _ = write!(self.line, "p{b} ");
            }
            for word in self.line.split_whitespace() {
                let v: u64 = word[1..].parse().unwrap_or(0);
                sum = sum.wrapping_mul(31).wrapping_add(v);
            }
        }
        sum
    }
}

/// A quantity of time measured over a stretch of wall time, so that it
/// can be put at the reference speed of the host around it.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub start: Instant,
    pub end: Instant,
    pub value: Duration,
}

impl Timing {
    /// The wall time from `start` until now.
    pub fn since(start: Instant) -> Timing {
        let end = Instant::now();
        Timing {
            start,
            end,
            value: end - start,
        }
    }
}

/// Kernel times taken over a run, in the order taken.
pub struct Calib {
    kernel: Kernel,
    /// When each probe ended, and the kernel's time in milliseconds.
    samples: Vec<(Instant, f64)>,
}

impl Calib {
    pub fn new() -> Calib {
        let mut kernel = Kernel::default();
        // A first run sizes the containers.
        black_box(kernel.run());
        Calib {
            kernel,
            samples: Vec::new(),
        }
    }

    /// Times the kernel twice and keeps the faster time: one run that
    /// another thread preempts would otherwise read as a slow host.
    pub fn probe(&mut self) {
        let mut ms = f64::INFINITY;
        for _ in 0..2 {
            let t0 = Instant::now();
            black_box(self.kernel.run());
            ms = ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        self.samples.push((Instant::now(), ms));
    }

    /// Whether [`INTERVAL`] has passed since the last probe.
    pub fn due(&self) -> bool {
        self.samples
            .last()
            .is_none_or(|(at, _)| at.elapsed() >= INTERVAL)
    }

    /// The host factor over `[from, to]`: the mean kernel time of the
    /// probes from [`WINDOW`] before `from` to [`WINDOW`] after `to`,
    /// or of the nearest probe if none lies there, over [`REF_MS`].
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let lo = self.samples.partition_point(|&(at, _)| at + WINDOW < from);
        let hi = self.samples.partition_point(|&(at, _)| at <= to + WINDOW);
        let ms = if lo < hi {
            let near = &self.samples[lo..hi];
            near.iter().map(|&(_, ms)| ms).sum::<f64>() / near.len() as f64
        } else {
            let mid = from + (to - from) / 2;
            let gap = |at: Instant| at.checked_duration_since(mid).unwrap_or_else(|| mid - at);
            match self.samples.iter().min_by_key(|&&(at, _)| gap(at)) {
                Some(&(_, ms)) => ms,
                None => REF_MS,
            }
        };
        ms / REF_MS
    }

    /// `t`'s value in seconds at the reference host speed.
    pub fn scaled_secs(&self, t: &Timing) -> f64 {
        t.value.as_secs_f64() / self.factor(t.start, t.end)
    }

    /// The run's mean host factor, for the record.
    pub fn mean_factor(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let sum: f64 = self.samples.iter().map(|&(_, ms)| ms).sum();
        sum / self.samples.len() as f64 / REF_MS
    }

    pub fn probes(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut k = Kernel::default();
        let first = k.run();
        assert_eq!(k.run(), first);
        assert_eq!(Kernel::default().run(), first);
    }

    #[test]
    fn factor_averages_the_probes_around_a_stretch() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let calib = Calib {
            kernel: Kernel::default(),
            samples: vec![
                (at(0), REF_MS),
                (at(500), 2.0 * REF_MS),
                (at(5000), 4.0 * REF_MS),
            ],
        };
        // Probes at 0 and 500 ms lie within a second of [800, 900] ms.
        assert_eq!(calib.factor(at(800), at(900)), 1.5);
        // None lies within a second of [2500, 2600] ms: the nearest.
        assert_eq!(calib.factor(at(2500), at(2600)), 2.0);
        assert_eq!(calib.factor(at(4500), at(4600)), 4.0);
        let t = Timing {
            start: at(4500),
            end: at(4600),
            value: Duration::from_millis(100),
        };
        assert!((calib.scaled_secs(&t) - 0.025).abs() < 1e-12);
        assert_eq!(Calib::new().factor(at(0), at(1)), 1.0);
    }

    #[test]
    fn a_probe_times_the_kernel() {
        let mut calib = Calib::new();
        assert!(calib.due());
        calib.probe();
        assert_eq!(calib.probes(), 1);
        assert!(calib.samples[0].1 > 0.0);
    }
}
