//! Seeded random-number utilities.
//!
//! All stochastic model inputs flow through [`SimRng`] so that experiments
//! are reproducible from a single `u64` seed, and so that independent
//! components can derive decorrelated streams from a shared root seed.
//!
//! The generator is a self-contained xoshiro256++ core seeded through
//! SplitMix64 — no external crates, byte-stable across platforms, which is
//! what the determinism regression suite relies on.

/// A seeded random stream.
///
/// Backed by xoshiro256++ (Blackman & Vigna), a small, fast generator with
/// good statistical quality. The surface is kept deliberately small so the
/// rest of the codebase never talks to a generator directly.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a stream from a root seed.
    ///
    /// The 256-bit state is filled by iterating SplitMix64 from the seed, the
    /// initialization recommended by the xoshiro authors; it guarantees a
    /// non-zero state for every seed.
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *slot = splitmix64(x);
        }
        SimRng { s }
    }

    /// Derives a decorrelated child stream for a named component.
    ///
    /// The mixing uses SplitMix64 over `seed ^ hash(label, index)` so that
    /// streams for distinct `(label, index)` pairs are independent even when
    /// root seeds are small consecutive integers.
    pub fn derive(seed: u64, label: &str, index: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        SimRng::new(splitmix64(seed ^ h))
    }

    /// The four internal state words. Exposed for state fingerprinting
    /// (checkpoint descriptors); equal words mean the streams will produce
    /// identical output forever.
    pub fn state_words(&self) -> [u64; 4] {
        self.s
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    pub(crate) fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high-quality bits mapped onto the unit interval.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "SimRng::below(0)");
        // Rejection sampling to stay exactly uniform: discard draws from the
        // short final partial block of the u64 range.
        let zone = u64::MAX - u64::MAX.wrapping_rem(n);
        loop {
            let x = self.next_u64();
            if x < zone || zone == 0 {
                return x % n;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "SimRng::range_u64 empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform usize index in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal variate via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples an index proportionally to non-negative `weights`. Returns
    /// `None` when all weights are zero or the slice is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        self.weighted_pick(weights.iter().copied())
    }

    /// [`SimRng::weighted_index`] over any re-iterable weight sequence, so a
    /// caller whose weights sit inside other records (a mixture's
    /// `(weight, component)` pairs) draws without collecting them first.
    /// Same draw, same arithmetic: the sequence is walked once to total the
    /// positive weights and once to subtract them in order.
    pub fn weighted_pick<I>(&mut self, weights: I) -> Option<usize>
    where
        I: Iterator<Item = f64> + Clone,
    {
        let positive = |w: &f64| w.is_finite() && *w > 0.0;
        let total: f64 = weights.clone().filter(positive).sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = self.f64() * total;
        for (i, w) in weights.clone().enumerate() {
            if positive(&w) {
                x -= w;
                if x <= 0.0 {
                    return Some(i);
                }
            }
        }
        // Floating-point slack: fall back to the last positive weight.
        weights
            .enumerate()
            .filter(|(_, w)| positive(w))
            .last()
            .map(|(i, _)| i)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..64 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn derived_streams_differ() {
        let mut a = SimRng::derive(1, "rollout", 0);
        let mut b = SimRng::derive(1, "rollout", 1);
        let mut c = SimRng::derive(1, "trainer", 0);
        let (x, y, z) = (a.f64(), b.f64(), c.f64());
        assert_ne!(x, y);
        assert_ne!(x, z);
        assert_ne!(y, z);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut r = SimRng::new(21);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn standard_normal_has_sane_moments() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::new(5);
        let w = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..8000 {
            counts[r.weighted_index(&w).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_empty_and_zero() {
        let mut r = SimRng::new(5);
        assert_eq!(r.weighted_index(&[]), None);
        assert_eq!(r.weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
