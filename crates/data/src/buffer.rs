//! The experience buffer with pluggable sampling and eviction (§3.1, §6).
//!
//! Completed trajectories land here (step ③); the trainer samples batches
//! (step ④) without ever blocking generation. The paper exposes writer and
//! sampler APIs so users can customize the sampling strategy and the
//! eviction strategy; this module provides the strategies its experiments
//! use (FIFO for the convergence runs, Appendix A.2) plus the
//! priority-based families discussed in §6 and Appendix C.

use crate::experience::Experience;
use laminar_sim::SimRng;
use std::collections::VecDeque;

/// Trainer-side sampling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampler {
    /// Oldest completed trajectories first (the paper's default).
    Fifo,
    /// Newest first — prioritizes near-on-policy data.
    Lifo,
    /// FIFO restricted to experiences with staleness ≤ the bound; older
    /// entries are skipped (and left for eviction).
    StalenessCapped {
        /// Maximum admissible staleness, in actor versions.
        max_staleness: u64,
    },
    /// Uniformly random without replacement.
    Random,
}

/// Buffer eviction strategy applied on insertion overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// Unbounded buffer.
    None,
    /// Keep at most `capacity` experiences, dropping the oldest.
    DropOldest {
        /// Maximum buffer occupancy.
        capacity: usize,
    },
    /// Drop experiences whose staleness exceeds the bound at sampling time.
    MaxStaleness {
        /// Maximum staleness kept in the buffer.
        max_staleness: u64,
    },
}

/// Occupancy and flow statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BufferStats {
    /// Experiences currently held.
    pub occupancy: usize,
    /// Total writes accepted.
    pub written: u64,
    /// Total experiences handed to the trainer.
    pub sampled: u64,
    /// Total experiences evicted.
    pub evicted: u64,
}

/// The experience buffer.
#[derive(Debug, Clone)]
pub struct ExperienceBuffer {
    entries: VecDeque<Experience>,
    sampler: Sampler,
    eviction: Eviction,
    stats: BufferStats,
}

impl ExperienceBuffer {
    /// Creates a buffer with the given strategies.
    pub fn new(sampler: Sampler, eviction: Eviction) -> Self {
        ExperienceBuffer {
            entries: VecDeque::new(),
            sampler,
            eviction,
            stats: BufferStats::default(),
        }
    }

    /// The paper's convergence-experiment configuration: FIFO, unbounded.
    pub fn fifo_unbounded() -> Self {
        ExperienceBuffer::new(Sampler::Fifo, Eviction::None)
    }

    /// The sampling strategy currently in effect.
    pub fn sampler(&self) -> Sampler {
        self.sampler
    }

    /// The eviction strategy in effect.
    pub fn eviction(&self) -> Eviction {
        self.eviction
    }

    /// Swaps the sampling strategy mid-run. The degraded-mode driver uses
    /// this to relax a staleness cap within its configured bound and to
    /// restore it on recovery; buffered experiences are untouched.
    pub fn set_sampler(&mut self, sampler: Sampler) {
        self.sampler = sampler;
    }

    /// Writer API: appends one completed experience, applying eviction.
    pub fn write(&mut self, exp: Experience) {
        self.entries.push_back(exp);
        self.stats.written += 1;
        if let Eviction::DropOldest { capacity } = self.eviction {
            while self.entries.len() > capacity {
                self.entries.pop_front();
                self.stats.evicted += 1;
            }
        }
        self.stats.occupancy = self.entries.len();
    }

    /// Number of experiences ready for sampling at `current_version` (for
    /// staleness-capped samplers only admissible entries count).
    pub fn ready(&self, current_version: u64) -> usize {
        match self.sampler {
            Sampler::StalenessCapped { max_staleness } => self
                .entries
                .iter()
                .filter(|e| e.staleness(current_version) <= max_staleness)
                .count(),
            _ => self.entries.len(),
        }
    }

    /// Sampler API: removes and returns up to `n` experiences according to
    /// the sampling strategy. `current_version` is the actor's version
    /// (used for staleness filtering/eviction); `rng` drives randomized
    /// strategies.
    pub fn sample(&mut self, n: usize, current_version: u64, rng: &mut SimRng) -> Vec<Experience> {
        if let Eviction::MaxStaleness { max_staleness } = self.eviction {
            let before = self.entries.len();
            self.entries
                .retain(|e| e.staleness(current_version) <= max_staleness);
            self.stats.evicted += (before - self.entries.len()) as u64;
        }
        let mut out = Vec::with_capacity(n);
        match self.sampler {
            Sampler::Fifo => {
                for _ in 0..n {
                    match self.entries.pop_front() {
                        Some(e) => out.push(e),
                        None => break,
                    }
                }
            }
            Sampler::Lifo => {
                for _ in 0..n {
                    match self.entries.pop_back() {
                        Some(e) => out.push(e),
                        None => break,
                    }
                }
            }
            Sampler::StalenessCapped { max_staleness } => {
                // Single mark-and-drain pass — O(len), not O(len²) as a
                // per-element `VecDeque::remove` would be. Marks the first
                // `n` admissible entries in scan order, then partitions.
                let mut marks = vec![false; self.entries.len()];
                let mut taken = 0;
                for (i, e) in self.entries.iter().enumerate() {
                    if taken == n {
                        break;
                    }
                    if e.staleness(current_version) <= max_staleness {
                        marks[i] = true;
                        taken += 1;
                    }
                }
                if taken > 0 {
                    let mut kept = VecDeque::with_capacity(self.entries.len() - taken);
                    for (e, marked) in self.entries.drain(..).zip(marks) {
                        if marked {
                            out.push(e);
                        } else {
                            kept.push_back(e);
                        }
                    }
                    self.entries = kept;
                }
            }
            Sampler::Random => {
                // Partial Fisher–Yates over an index array, then one drain:
                // O(len) total. The RNG draw sequence (len, len-1, …) matches
                // the old per-element `remove` loop, and picks come out in
                // draw order, so behaviour is unchanged — only the quadratic
                // shifting is gone.
                let k = n.min(self.entries.len());
                if k > 0 {
                    let len = self.entries.len();
                    let mut idx: Vec<u32> = (0..len as u32).collect();
                    for i in 0..k {
                        let j = i + rng.index(len - i);
                        idx.swap(i, j);
                    }
                    let mut slots: Vec<Option<Experience>> =
                        self.entries.drain(..).map(Some).collect();
                    for &p in &idx[..k] {
                        out.push(slots[p as usize].take().expect("picks are distinct"));
                    }
                    self.entries = slots.into_iter().flatten().collect();
                }
            }
        }
        self.stats.sampled += out.len() as u64;
        self.stats.occupancy = self.entries.len();
        out
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Flow statistics.
    pub fn stats(&self) -> BufferStats {
        let mut s = self.stats;
        s.occupancy = self.entries.len();
        s
    }

    /// Iterates current entries oldest-first (inspection only).
    pub fn iter(&self) -> impl Iterator<Item = &Experience> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_sim::Time;

    fn exp(id: u64, version: u64) -> Experience {
        Experience {
            trajectory_id: id,
            prompt_id: id / 16,
            group_index: (id % 16) as usize,
            prompt_tokens: 100,
            response_tokens: 1000,
            policy_versions: vec![version],
            started_at: Time::ZERO,
            finished_at: Time::from_secs(1),
        }
    }

    #[test]
    fn fifo_samples_oldest_first() {
        let mut b = ExperienceBuffer::fifo_unbounded();
        for i in 0..5 {
            b.write(exp(i, 0));
        }
        let mut rng = SimRng::new(1);
        let got = b.sample(3, 0, &mut rng);
        let ids: Vec<u64> = got.iter().map(|e| e.trajectory_id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.stats().sampled, 3);
    }

    #[test]
    fn lifo_samples_newest_first() {
        let mut b = ExperienceBuffer::new(Sampler::Lifo, Eviction::None);
        for i in 0..4 {
            b.write(exp(i, 0));
        }
        let mut rng = SimRng::new(1);
        let ids: Vec<u64> = b
            .sample(2, 0, &mut rng)
            .iter()
            .map(|e| e.trajectory_id)
            .collect();
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn staleness_capped_skips_stale() {
        let mut b = ExperienceBuffer::new(
            Sampler::StalenessCapped { max_staleness: 1 },
            Eviction::None,
        );
        b.write(exp(0, 1)); // staleness 4 at version 5
        b.write(exp(1, 5)); // staleness 0
        b.write(exp(2, 4)); // staleness 1
        let mut rng = SimRng::new(1);
        assert_eq!(b.ready(5), 2);
        let ids: Vec<u64> = b
            .sample(5, 5, &mut rng)
            .iter()
            .map(|e| e.trajectory_id)
            .collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(b.len(), 1); // the stale one remains
    }

    #[test]
    fn drop_oldest_eviction_caps_occupancy() {
        let mut b = ExperienceBuffer::new(Sampler::Fifo, Eviction::DropOldest { capacity: 3 });
        for i in 0..10 {
            b.write(exp(i, 0));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.stats().evicted, 7);
        let mut rng = SimRng::new(1);
        let ids: Vec<u64> = b
            .sample(3, 0, &mut rng)
            .iter()
            .map(|e| e.trajectory_id)
            .collect();
        assert_eq!(ids, vec![7, 8, 9]);
    }

    #[test]
    fn max_staleness_eviction_purges_on_sample() {
        let mut b =
            ExperienceBuffer::new(Sampler::Fifo, Eviction::MaxStaleness { max_staleness: 2 });
        b.write(exp(0, 1));
        b.write(exp(1, 9));
        let mut rng = SimRng::new(1);
        let got = b.sample(5, 10, &mut rng);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].trajectory_id, 1);
        assert_eq!(b.stats().evicted, 1);
    }

    #[test]
    fn random_sampling_returns_all_without_replacement() {
        let mut b = ExperienceBuffer::new(Sampler::Random, Eviction::None);
        for i in 0..20 {
            b.write(exp(i, 0));
        }
        let mut rng = SimRng::new(2);
        let got = b.sample(20, 0, &mut rng);
        let mut ids: Vec<u64> = got.iter().map(|e| e.trajectory_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
        assert!(b.is_empty());
    }

    /// The mark-and-drain rewrite must keep the first-n-admissible-in-scan-
    /// order semantics and leave the remainder in arrival order.
    #[test]
    fn staleness_capped_preserves_scan_order_and_remainder() {
        let mut b = ExperienceBuffer::new(
            Sampler::StalenessCapped { max_staleness: 0 },
            Eviction::None,
        );
        // Admissible (version 5) and stale entries interleaved.
        for (id, v) in [(0, 5), (1, 2), (2, 5), (3, 3), (4, 5), (5, 5), (6, 1)] {
            b.write(exp(id, v));
        }
        let mut rng = SimRng::new(1);
        let ids: Vec<u64> = b
            .sample(3, 5, &mut rng)
            .iter()
            .map(|e| e.trajectory_id)
            .collect();
        assert_eq!(ids, vec![0, 2, 4], "first n admissible, scan order");
        let left: Vec<u64> = b.iter().map(|e| e.trajectory_id).collect();
        assert_eq!(left, vec![1, 3, 5, 6], "remainder keeps arrival order");
    }

    #[test]
    fn random_partial_sample_is_distinct_and_remainder_ordered() {
        let mut b = ExperienceBuffer::new(Sampler::Random, Eviction::None);
        for i in 0..50 {
            b.write(exp(i, 0));
        }
        let mut rng = SimRng::new(7);
        let got = b.sample(20, 0, &mut rng);
        assert_eq!(got.len(), 20);
        let mut ids: Vec<u64> = got.iter().map(|e| e.trajectory_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20, "sampling is without replacement");
        assert_eq!(b.len(), 30);
        let left: Vec<u64> = b.iter().map(|e| e.trajectory_id).collect();
        let mut sorted = left.clone();
        sorted.sort_unstable();
        assert_eq!(left, sorted, "unsampled entries keep arrival order");
    }

    #[test]
    fn sampling_empty_buffer_returns_nothing() {
        let mut b = ExperienceBuffer::fifo_unbounded();
        let mut rng = SimRng::new(3);
        assert!(b.sample(4, 0, &mut rng).is_empty());
    }
}
