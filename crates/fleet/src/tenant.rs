//! The mixed-workload tenant scenario generator.
//!
//! A fleet serves many concurrent post-training jobs, and the jobs are not
//! interchangeable: a math-RL tenant issues dense single-turn reasoning
//! requests, an agentic tenant interleaves short decodes with sandbox
//! tool calls whose latency is spiky (§2.2), and a long-context tenant
//! issues fewer but far heavier requests. The router's fairness machinery
//! only matters because these profiles differ — a long-context burst can
//! starve a math tenant under naive routing.
//!
//! Length distributions come from [`laminar_workload::LengthModel`] (the
//! paper's per-checkpoint response models) and tool-call latency from
//! [`laminar_workload::SandboxModel`], so a tenant's service demand is the
//! same heavy-tailed shape the single-cell simulation uses.

use laminar_sim::{Duration, SimRng};
use laminar_workload::{Checkpoint, LengthModel, SandboxModel};

/// The three tenant archetypes the fleet study mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantClass {
    /// Single-turn math reasoning (Qwen2.5-Math-7B-shaped lengths).
    MathRl,
    /// Multi-turn tool calling: short per-turn decodes plus sandbox calls
    /// with a heavy queueing tail.
    Agentic,
    /// Long-context reasoning: low request rate, very heavy per-request
    /// service demand (72B-shaped lengths, grown 2×).
    LongContext,
}

impl TenantClass {
    /// Stable display name (used in metric notes and fingerprints).
    pub fn name(self) -> &'static str {
        match self {
            TenantClass::MathRl => "math-rl",
            TenantClass::Agentic => "agentic",
            TenantClass::LongContext => "long-ctx",
        }
    }
}

/// One tenant's traffic contract: class, fairness weight, arrival process,
/// and rate-limit parameters.
#[derive(Debug, Clone)]
pub struct TenantProfile {
    /// Display name.
    pub name: String,
    /// Workload archetype.
    pub class: TenantClass,
    /// Fairness weight (relative completion-share entitlement).
    pub weight: f64,
    /// Mean request arrival rate, requests per second (Poisson process).
    pub arrival_rate: f64,
    /// Token-bucket refill rate, requests per second.
    pub bucket_rate: f64,
    /// Token-bucket burst capacity.
    pub bucket_burst: f64,
}

impl TenantProfile {
    /// The standard three-class mix sized so the default fleet runs at
    /// roughly two-thirds utilization — enough headroom that one lost cell
    /// of four degrades goodput without collapsing it.
    ///
    /// `classes` ≥ 3 cycles through the archetypes (a 5-tenant mix has two
    /// math tenants, two agentic, one long-context).
    pub fn standard_mix(classes: usize) -> Vec<TenantProfile> {
        let archetypes = [
            (TenantClass::MathRl, 1.0, 3.2),
            (TenantClass::Agentic, 1.0, 1.0),
            (TenantClass::LongContext, 1.5, 0.5),
        ];
        (0..classes.max(1))
            .map(|i| {
                let (class, weight, rate) = archetypes[i % archetypes.len()];
                // Bucket admits the offered rate with 25% headroom; the
                // burst absorbs a few seconds of backlog after recovery.
                TenantProfile {
                    name: format!("{}-{}", class.name(), i / archetypes.len()),
                    class,
                    weight,
                    arrival_rate: rate,
                    bucket_rate: rate * 1.25,
                    bucket_burst: (rate * 4.0).max(2.0),
                }
            })
            .collect()
    }

    /// Samples the next interarrival gap (exponential, mean `1/rate`).
    pub fn next_interarrival(&self, rng: &mut SimRng) -> Duration {
        let u = rng.f64().max(1e-12);
        Duration::from_secs_f64((-u.ln() / self.arrival_rate.max(1e-9)).min(3600.0))
    }

    /// Samples the service demand of one request, in seconds of cell time
    /// at nominal speed.
    pub fn sample_service(&self, rng: &mut SimRng) -> Duration {
        let secs = match self.class {
            TenantClass::MathRl => {
                let m = LengthModel::for_checkpoint(Checkpoint::Math7B);
                decode_secs(m.sample_prompt(rng), m.sample_response(rng))
            }
            TenantClass::Agentic => {
                let m = LengthModel::for_checkpoint(Checkpoint::Tool7B);
                let env = SandboxModel::paper_sandbox();
                let turns = 2 + rng.index(4); // 2..=5 turns
                let mut total = 0.0;
                for _ in 0..turns {
                    total += decode_secs(m.sample_prompt(rng), m.sample_response(rng));
                    total += env.sample_secs(rng);
                }
                total
            }
            TenantClass::LongContext => {
                let m = LengthModel::for_checkpoint(Checkpoint::Math72B);
                decode_secs(m.sample_prompt(rng), m.sample_response_scaled(rng, 2.0))
            }
        };
        Duration::from_secs_f64(secs.clamp(0.05, 600.0))
    }
}

/// Cell service rates used to convert token counts into service seconds:
/// prefill is compute-bound and fast, decode is bandwidth-bound.
fn decode_secs(prompt_tokens: u64, response_tokens: u64) -> f64 {
    const PREFILL_TOKENS_PER_SEC: f64 = 24_000.0;
    const DECODE_TOKENS_PER_SEC: f64 = 1_600.0;
    prompt_tokens as f64 / PREFILL_TOKENS_PER_SEC + response_tokens as f64 / DECODE_TOKENS_PER_SEC
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_mix_cycles_all_three_classes() {
        let mix = TenantProfile::standard_mix(5);
        assert_eq!(mix.len(), 5);
        assert_eq!(mix[0].class, TenantClass::MathRl);
        assert_eq!(mix[1].class, TenantClass::Agentic);
        assert_eq!(mix[2].class, TenantClass::LongContext);
        assert_eq!(mix[3].class, TenantClass::MathRl);
        assert!(mix.iter().all(|t| t.arrival_rate > 0.0));
        assert!(mix.iter().all(|t| t.bucket_rate > t.arrival_rate));
    }

    #[test]
    fn service_profiles_are_distinct_and_deterministic() {
        let mix = TenantProfile::standard_mix(3);
        let mean = |t: &TenantProfile, seed: u64| {
            let mut rng = SimRng::derive(seed, "tenant-test", 0);
            (0..400)
                .map(|_| t.sample_service(&mut rng).as_secs_f64())
                .sum::<f64>()
                / 400.0
        };
        let math = mean(&mix[0], 1);
        let agentic = mean(&mix[1], 1);
        let long = mean(&mix[2], 1);
        assert!(
            math < agentic && math < long,
            "math {math:.2}s agentic {agentic:.2}s long {long:.2}s"
        );
        assert_eq!(
            mean(&mix[0], 7),
            mean(&mix[0], 7),
            "same stream, same demand"
        );
    }

    #[test]
    fn interarrival_matches_rate_roughly() {
        let t = &TenantProfile::standard_mix(3)[0];
        let mut rng = SimRng::derive(3, "tenant-arrival-test", 0);
        let mean = (0..2000)
            .map(|_| t.next_interarrival(&mut rng).as_secs_f64())
            .sum::<f64>()
            / 2000.0;
        let expect = 1.0 / t.arrival_rate;
        assert!(
            (mean - expect).abs() < expect * 0.2,
            "mean gap {mean:.3}s vs expected {expect:.3}s"
        );
    }
}
