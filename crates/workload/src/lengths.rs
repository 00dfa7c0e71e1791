//! Response-length models per model checkpoint (Figure 2 left, Figure 17).
//!
//! The paper trains from intermediate RL checkpoints of Qwen2.5-Math-7B,
//! Qwen2.5-32B and Qwen2.5-Math-72B on DAPO-Math-17k with a 2K-token input
//! cap and 16K-token output cap, and reports that trajectory lengths are
//! highly heterogeneous — the 99th percentile reaching ~10× the median —
//! and that lengths *evolve* over training (§2.3). The models here encode
//! those shapes.

use crate::dist::Dist;

/// Which model checkpoint's output distribution to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Checkpoint {
    /// Qwen2.5-Math-7B mid-RL checkpoint (math reasoning).
    Math7B,
    /// Qwen2.5-32B mid-RL checkpoint (math reasoning).
    Math32B,
    /// Qwen2.5-Math-72B mid-RL checkpoint (math reasoning).
    Math72B,
    /// 7B ReTool-style checkpoint (multi-turn tool calling).
    Tool7B,
}

/// Trajectory length model: prompt and response token distributions.
#[derive(Debug, Clone)]
pub struct LengthModel {
    /// Prompt (input) length distribution, tokens.
    pub prompt: Dist,
    /// Response (output) length distribution, tokens.
    pub response: Dist,
    /// Hard cap on output tokens (16K in the paper's setting).
    pub max_response: u64,
    /// Hard cap on input tokens (2K in the paper's setting).
    pub max_prompt: u64,
}

impl LengthModel {
    /// Length model for a checkpoint.
    ///
    /// Larger models at these checkpoints produce longer reasoning chains;
    /// all share the p99 ≈ 10× median skew the paper reports. Responses are
    /// clamped to the 16K cap, which produces the truncation spike visible
    /// in Figure 17.
    pub fn for_checkpoint(ckpt: Checkpoint) -> Self {
        let (median, skew) = match ckpt {
            Checkpoint::Math7B => (2800.0, 10.0),
            Checkpoint::Math32B => (3600.0, 9.0),
            Checkpoint::Math72B => (4200.0, 8.0),
            // Per-turn responses are shorter in tool-calling; the multi-turn
            // structure supplies the rest of the length.
            Checkpoint::Tool7B => (900.0, 8.0),
        };
        LengthModel {
            prompt: Dist::Uniform {
                lo: 256.0,
                hi: 2048.0,
            },
            response: Dist::lognormal_median_p99(median, skew).clamped(16.0, 16_384.0),
            max_response: 16_384,
            max_prompt: 2_048,
        }
    }

    /// Samples a prompt length in tokens.
    pub fn sample_prompt(&self, rng: &mut laminar_sim::SimRng) -> u64 {
        (self.prompt.sample(rng).round() as u64).clamp(1, self.max_prompt)
    }

    /// Samples a response length in tokens.
    pub fn sample_response(&self, rng: &mut laminar_sim::SimRng) -> u64 {
        (self.response.sample(rng).round() as u64).clamp(1, self.max_response)
    }

    /// Samples a response length with the distribution rescaled by
    /// `factor` — length evolution across training (§2.3: lengths can
    /// increase, decrease, or fluctuate as the model learns) times the
    /// prompt's difficulty. The scaled draw is clamped back into
    /// `[16, max_response]`, so the scaled tail still truncates at the cap.
    pub fn sample_response_scaled(&self, rng: &mut laminar_sim::SimRng, factor: f64) -> u64 {
        let tokens =
            (self.response.sample(rng) * factor.max(0.01)).clamp(16.0, self.max_response as f64);
        (tokens.round() as u64).clamp(1, self.max_response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_sim::{Histogram, SimRng};

    #[test]
    fn math7b_has_tenfold_skew() {
        let m = LengthModel::for_checkpoint(Checkpoint::Math7B);
        let mut rng = SimRng::new(1);
        let mut h = Histogram::new();
        for _ in 0..40_000 {
            h.add(m.sample_response(&mut rng) as f64);
        }
        let med = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        // p99/median ≈ 10, moderated slightly by the 16K cap.
        assert!(p99 / med > 5.0, "skew too small: {}", p99 / med);
        assert!(h.max() <= 16_384.0);
    }

    #[test]
    fn prompts_respect_cap() {
        let m = LengthModel::for_checkpoint(Checkpoint::Math32B);
        let mut rng = SimRng::new(2);
        for _ in 0..2000 {
            let p = m.sample_prompt(&mut rng);
            assert!((1..=2048).contains(&p));
        }
    }

    #[test]
    fn checkpoints_order_by_median() {
        let mut rng = SimRng::new(3);
        let mut med = |c: Checkpoint| {
            let m = LengthModel::for_checkpoint(c);
            let mut h = Histogram::new();
            for _ in 0..20_000 {
                h.add(m.sample_response(&mut rng) as f64);
            }
            h.percentile(50.0)
        };
        let m7 = med(Checkpoint::Math7B);
        let m32 = med(Checkpoint::Math32B);
        let m72 = med(Checkpoint::Math72B);
        assert!(m7 < m32 && m32 < m72, "{m7} {m32} {m72}");
    }

    #[test]
    fn evolved_model_scales_median() {
        let m = LengthModel::for_checkpoint(Checkpoint::Math7B);
        let mut rng = SimRng::new(4);
        let mut base = Histogram::new();
        let mut grown = Histogram::new();
        for _ in 0..20_000 {
            base.add(m.sample_response(&mut rng) as f64);
            grown.add(m.sample_response_scaled(&mut rng, 2.0) as f64);
        }
        let ratio = grown.percentile(50.0) / base.percentile(50.0);
        assert!((ratio - 2.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn scaled_sampler_matches_the_composed_distribution() {
        // The scaled sampler is the response distribution scaled and
        // clamped back into [16, cap], drawn without building that tree.
        let m = LengthModel::for_checkpoint(Checkpoint::Math32B);
        for factor in [0.0f64, 0.005, 0.37, 1.0, 1.006, 2.0, 40.0] {
            let composed = m
                .response
                .clone()
                .scaled(factor.max(0.01))
                .clamped(16.0, m.max_response as f64);
            let (mut a, mut b) = (SimRng::new(8), SimRng::new(8));
            for _ in 0..2_000 {
                let want = (composed.sample(&mut a).round() as u64).clamp(1, m.max_response);
                assert_eq!(
                    m.sample_response_scaled(&mut b, factor),
                    want,
                    "factor {factor}"
                );
            }
        }
    }
}
