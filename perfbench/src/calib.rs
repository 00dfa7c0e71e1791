//! Host calibration: a fixed kernel timed next to every measured interval,
//! so that timings can be reported in seconds of a nominal host.
//!
//! On a shared host the speed one process gets drifts by tens of percent in
//! phases of seconds to minutes, the same for the workload and for any other
//! code that runs at that moment. The kernel is a miniature discrete-event
//! loop (a binary heap of timed events plus random updates of a state table
//! about the size of an L2 cache) owned by the benchmark, so no change to the
//! workspace moves it. It allocates nothing once built. One reading (one
//! kernel run) is taken after every measured interval, and each interval is
//! scaled by `NOMINAL_SECS / kernel time`, the kernel time being the mean of
//! the readings around the interval. The host's drift cancels; a change that
//! makes the workspace faster or slower still shows in full.
//!
//! Of the kernels tried on a shared 2-vCPU host (this heap loop, a pure
//! multiply-xor chain, and page-touching allocations), the heap loop tracked
//! the workloads' drift best: over seven seeds it cut the spread of
//! `traj_per_s` from 0.19 to 0.05 of the median on math-grid and from 0.16
//! to 0.03 on chaos-ckpt; the multiply chain drifted too little.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Events each kernel run pops and re-pushes.
const EVENTS: u64 = 96_000;
/// Events live in the heap at once.
const LIVE: u32 = 1024;
/// Words of the state table (256 KiB).
const STATE_WORDS: usize = 1 << 15;

/// The kernel's time on the nominal host. Calibrated seconds are wall
/// seconds scaled so that the kernel would take exactly this long.
pub const NOMINAL_SECS: f64 = 0.008;

/// Readings on each side of an interval that its scale averages over.
const WINDOW: usize = 2;

pub struct Calibrator {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<u64>,
    rng: u64,
    /// Every reading taken, in seconds per kernel run.
    pub readings: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            heap: BinaryHeap::with_capacity(LIVE as usize + 1),
            state: vec![0; STATE_WORDS],
            rng: 0x9e37_79b9_7f4a_7c15,
            readings: Vec::new(),
        }
    }
}

impl Calibrator {
    fn next(&mut self) -> u64 {
        // xorshift64
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// One kernel run; returns its wall seconds.
    fn kernel(&mut self) -> f64 {
        let started = Instant::now();
        self.heap.clear();
        for id in 0..LIVE {
            let t = self.next() >> 44;
            self.heap.push(Reverse((t, id)));
        }
        for _ in 0..EVENTS {
            let Reverse((t, id)) = self.heap.pop().expect("the heap is never empty");
            let x = self.next();
            let j = (x as usize) & (STATE_WORDS - 1);
            self.state[j] = self.state[j].wrapping_add(t ^ u64::from(id));
            self.heap.push(Reverse((t + (x >> 48) + 1, id)));
        }
        black_box(&self.state);
        started.elapsed().as_secs_f64()
    }

    /// Takes one reading and returns its index.
    pub fn read(&mut self) -> usize {
        let reading = self.kernel();
        self.readings.push(reading);
        self.readings.len() - 1
    }

    /// The index of the most recent reading, taking one if there is none.
    pub fn last(&mut self) -> usize {
        match self.readings.len() {
            0 => self.read(),
            n => n - 1,
        }
    }

    /// Wall seconds measured between readings `before` and `after`, in
    /// calibrated seconds: scaled by the mean of the readings from `WINDOW`
    /// before `before` to `WINDOW` after `after` (as many as were taken).
    pub fn scale(&self, wall: f64, before: usize, after: usize) -> f64 {
        let lo = before.saturating_sub(WINDOW);
        let hi = (after + WINDOW + 1).min(self.readings.len());
        let near = &self.readings[lo..hi];
        let mean = near.iter().sum::<f64>() / near.len() as f64;
        wall * NOMINAL_SECS / mean.max(1e-12)
    }
}
