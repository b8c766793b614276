//! A fixed reference computation that tracks how fast the host runs.
//!
//! The benchmark shares a few cores of a host with other work, and how fast
//! those cores run drifts by half or more within minutes, far beyond any
//! change a code edit makes.  [`reference`] runs a fixed, seeded
//! piece of benchmark-owned work — hash-map inserts and probes, a binary
//! heap of timed events and short byte-buffer copies over a working set of a
//! few MiB, the same kinds of work the runtime's event loop does — and
//! returns how long it took.  It calls no code of the program, so a change
//! to the program cannot move it; only the host can.
//!
//! A [`SpeedClock`] interleaves reference runs with the measured work and
//! converts each measured wall interval into *reference-speed seconds*: the
//! interval times the reference's nominal time over its time measured next
//! to the interval.  On a host that runs the reference in its nominal time
//! the two are equal.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Entries of the reference's hash map.
const MAP_ENTRIES: u64 = 1 << 15;
/// Events pushed through the reference's heap.
const EVENTS: u64 = 1 << 14;
/// Buffers the reference copies.
const BUFFERS: u64 = 1 << 13;

/// The reference's time on an unloaded core of the 2-vCPU x86-64 host the
/// benchmark was developed on.  Only a scale: it turns the ratio of a
/// measured interval to the reference into seconds.
pub const NOMINAL: Duration = Duration::from_micros(4_400);

/// Wall time between two reference runs inside a measured stretch: the
/// reference adds about 4% to a run.
const EVERY: Duration = Duration::from_millis(100);
/// Reference runs the current speed is the median of.
const WINDOW: usize = 5;

fn mix(x: &mut u64) -> u64 {
    // splitmix64
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the reference computation once and returns its wall time.
fn reference() -> Duration {
    let start = Instant::now();
    let mut x = 0x5EED_u64;
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(MAP_ENTRIES as usize);
    for i in 0..MAP_ENTRIES {
        map.insert(mix(&mut x), i);
    }
    let mut hits = 0u64;
    let mut y = 0x5EED_u64;
    for _ in 0..MAP_ENTRIES {
        hits += map.get(&mix(&mut y)).copied().unwrap_or(0) & 1;
    }
    let mut heap = BinaryHeap::with_capacity(1024);
    for i in 0..EVENTS {
        heap.push(std::cmp::Reverse(mix(&mut x) >> 40 | i));
        if heap.len() > 1024 {
            hits += heap.pop().map_or(0, |e| e.0 & 1);
        }
    }
    let mut buffers: Vec<Vec<u8>> = Vec::with_capacity(256);
    for i in 0..BUFFERS {
        let len = 32 + (mix(&mut x) % 1_500) as usize;
        let buf = vec![i as u8; len];
        let slot = (mix(&mut x) % 256) as usize;
        if buffers.len() < 256 {
            buffers.push(buf);
        } else {
            hits += buffers[slot].iter().map(|&b| b as u64).sum::<u64>() & 1;
            buffers[slot] = buf;
        }
    }
    black_box((hits, &map, &heap, &buffers));
    start.elapsed()
}

/// Wall time converted to reference-speed time, with reference runs
/// interleaved between the measured intervals.
#[derive(Debug)]
pub struct SpeedClock {
    /// The latest reference times, oldest first.
    recent: Vec<Duration>,
    /// Every reference time of the clock's life.
    all: Vec<Duration>,
    last: Instant,
}

impl SpeedClock {
    /// A clock with fresh reference measurements.
    pub fn new() -> SpeedClock {
        let mut clock = SpeedClock {
            recent: Vec::new(),
            all: Vec::new(),
            last: Instant::now(),
        };
        for _ in 0..WINDOW {
            clock.sample();
        }
        clock
    }

    fn sample(&mut self) {
        let took = reference();
        self.recent.push(took);
        self.all.push(took);
        if self.recent.len() > WINDOW {
            self.recent.remove(0);
        }
        self.last = Instant::now();
    }

    /// Measures the reference again when [`EVERY`] has passed since the
    /// last measurement; call between measured intervals.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// How much longer than [`NOMINAL`] the reference takes now: the
    /// median of the latest [`WINDOW`] runs, so one interrupted run does
    /// not move it.
    pub fn slowdown(&self) -> f64 {
        median_time(&self.recent) / NOMINAL.as_secs_f64()
    }

    /// The median slowdown over the clock's life.
    pub fn median_slowdown(&self) -> f64 {
        median_time(&self.all) / NOMINAL.as_secs_f64()
    }

    /// `wall`, converted to reference-speed time at the current speed.
    pub fn convert(&self, wall: Duration) -> Duration {
        wall.div_f64(self.slowdown())
    }

    /// `wall`, an interval that just ended and was too long to interleave
    /// reference runs with, converted at the mean of the speed before it
    /// and the speed measured afresh after it.
    pub fn convert_ended(&mut self, wall: Duration) -> Duration {
        let before = self.slowdown();
        for _ in 0..WINDOW {
            self.sample();
        }
        wall.div_f64((before + self.slowdown()) / 2.0)
    }
}

fn median_time(times: &[Duration]) -> f64 {
    let mut sorted = times.to_vec();
    sorted.sort();
    sorted[sorted.len() / 2].as_secs_f64()
}
