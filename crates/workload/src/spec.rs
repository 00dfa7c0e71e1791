//! System-independent trajectory specifications.
//!
//! Fair cross-system comparison (§8) requires every system to replay the
//! *identical* workload. A [`TrajectorySpec`] fully determines one
//! trajectory's resource demand — prompt tokens, decode segments, and
//! environment-call latencies — and is generated deterministically from
//! `(seed, trajectory id)`, so verl, the asynchronous baselines, and Laminar
//! all execute the same trajectories in their own schedules.

use crate::dataset::GroupedBatch;
use crate::env::SandboxModel;
use crate::lengths::{Checkpoint, LengthModel};
use laminar_sim::{Duration, SimRng};

/// One phase of a trajectory's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Auto-regressively decode this many tokens on the rollout GPU.
    Decode {
        /// Token count.
        tokens: u64,
    },
    /// Wait on an external environment call (code sandbox) for this long;
    /// the GPU holds the trajectory's KVCache but runs no decode for it.
    Env {
        /// Call latency.
        latency: Duration,
    },
}

/// The complete, system-independent description of one trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectorySpec {
    /// Globally unique trajectory id.
    pub id: u64,
    /// The prompt this trajectory answers.
    pub prompt_id: u64,
    /// Response index within the prompt's GRPO group.
    pub group_index: usize,
    /// Prompt length, tokens.
    pub prompt_tokens: u64,
    /// Execution phases, in order. Always starts and ends with a decode.
    pub segments: Vec<Segment>,
}

impl TrajectorySpec {
    /// Total tokens decoded across all decode segments.
    pub fn decode_tokens(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Decode { tokens } => *tokens,
                Segment::Env { .. } => 0,
            })
            .sum()
    }

    /// Total environment wait time.
    pub fn env_time(&self) -> Duration {
        self.segments.iter().fold(Duration::ZERO, |acc, s| match s {
            Segment::Env { latency } => acc + *latency,
            Segment::Decode { .. } => acc,
        })
    }

    /// Number of environment calls.
    pub fn env_calls(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s, Segment::Env { .. }))
            .count()
    }

    /// Prompt plus response tokens — the unit the paper's throughput metric
    /// counts.
    pub fn total_tokens(&self) -> u64 {
        self.prompt_tokens + self.decode_tokens()
    }

    /// Final context length (prompt + all decoded tokens), which bounds the
    /// trajectory's KVCache footprint.
    pub fn final_context(&self) -> u64 {
        self.total_tokens()
    }

    /// Appends the spec's canonical checkpoint encoding: a fixed-order word
    /// stream covering every field, shared by all delta-checkpoint planes
    /// that persist trajectory assignments.
    pub fn encode_words(&self, out: &mut Vec<u64>) {
        out.push(self.id);
        out.push(self.prompt_id);
        out.push(self.group_index as u64);
        out.push(self.prompt_tokens);
        out.push(self.segments.len() as u64);
        for seg in &self.segments {
            match seg {
                Segment::Decode { tokens } => {
                    out.push(0);
                    out.push(*tokens);
                }
                Segment::Env { latency } => {
                    out.push(1);
                    out.push(latency.as_nanos());
                }
            }
        }
    }
}

/// Task family being trained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Single-turn reasoning (math): one decode segment per trajectory.
    SingleTurn,
    /// Multi-turn tool calling: decode/env alternation with at most
    /// `max_calls` environment calls (8 in the paper's ReTool setting).
    MultiTurn {
        /// Maximum environment calls per trajectory.
        max_calls: usize,
    },
}

/// Deterministic workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    /// Root seed; together with a trajectory id it fully determines a spec.
    pub seed: u64,
    /// Task family.
    pub kind: WorkloadKind,
    /// Length model for the emulated checkpoint.
    pub lengths: LengthModel,
    /// Environment latency model (used by multi-turn workloads).
    pub sandbox: SandboxModel,
    /// Spread of per-prompt difficulty: responses to the same prompt share a
    /// log-normal difficulty factor with this sigma, so GRPO groups are
    /// internally correlated (hard prompts are long for all 16 responses).
    pub prompt_difficulty_sigma: f64,
}

impl WorkloadGenerator {
    /// Single-turn math workload for a checkpoint.
    pub fn single_turn(seed: u64, ckpt: Checkpoint) -> Self {
        WorkloadGenerator {
            seed,
            kind: WorkloadKind::SingleTurn,
            lengths: LengthModel::for_checkpoint(ckpt),
            sandbox: SandboxModel::paper_sandbox(),
            prompt_difficulty_sigma: 0.35,
        }
    }

    /// Multi-turn tool-calling workload (7B ReTool setting, ≤8 calls).
    pub fn multi_turn(seed: u64) -> Self {
        WorkloadGenerator {
            seed,
            kind: WorkloadKind::MultiTurn { max_calls: 8 },
            lengths: LengthModel::for_checkpoint(Checkpoint::Tool7B),
            sandbox: SandboxModel::paper_sandbox(),
            prompt_difficulty_sigma: 0.35,
        }
    }

    /// Per-prompt difficulty factor, deterministic in `(seed, prompt_id)`.
    fn difficulty(&self, prompt_id: u64) -> f64 {
        let mut rng = SimRng::derive(self.seed, "prompt-difficulty", prompt_id);
        (self.prompt_difficulty_sigma * rng.standard_normal()).exp()
    }

    /// Generates the spec for trajectory `id` answering `prompt_id` as group
    /// member `group_index`, with response lengths scaled by `evolution`
    /// (1.0 = the base checkpoint distribution).
    pub fn trajectory(
        &self,
        id: u64,
        prompt_id: u64,
        group_index: usize,
        evolution: f64,
    ) -> TrajectorySpec {
        self.spec(
            id,
            prompt_id,
            group_index,
            evolution * self.difficulty(prompt_id),
        )
    }

    /// The spec of trajectory `id` with every response draw scaled by
    /// `factor` (the evolution factor times the prompt's difficulty). Its
    /// only heap allocation is the segment list.
    fn spec(&self, id: u64, prompt_id: u64, group_index: usize, factor: f64) -> TrajectorySpec {
        let mut rng = SimRng::derive(self.seed, "trajectory", id);
        let lengths = &self.lengths;
        let prompt_tokens = lengths.sample_prompt(&mut rng);
        let segments = match self.kind {
            WorkloadKind::SingleTurn => {
                vec![Segment::Decode {
                    tokens: lengths.sample_response_scaled(&mut rng, factor),
                }]
            }
            WorkloadKind::MultiTurn { max_calls } => {
                // Call count skews low: most problems resolve in a few tool
                // invocations, hard ones exhaust the cap (§2.1).
                let calls = (1 + rng
                    .below(max_calls.max(1) as u64)
                    .min(rng.below(max_calls.max(1) as u64))) as usize;
                let mut segs = Vec::with_capacity(2 * calls + 1);
                let mut budget = lengths.max_response;
                for _ in 0..calls {
                    let tokens = lengths
                        .sample_response_scaled(&mut rng, factor)
                        .min(budget.max(1));
                    budget = budget.saturating_sub(tokens);
                    segs.push(Segment::Decode { tokens });
                    segs.push(Segment::Env {
                        latency: self.sandbox.sample(&mut rng),
                    });
                }
                let tokens = lengths
                    .sample_response_scaled(&mut rng, factor)
                    .min(budget.max(1));
                segs.push(Segment::Decode { tokens });
                segs
            }
        };
        TrajectorySpec {
            id,
            prompt_id,
            group_index,
            prompt_tokens,
            segments,
        }
    }

    /// Generates all trajectories of a grouped batch (e.g. the 512×16
    /// global batch) with the given length evolution factor — the same
    /// specs as [`WorkloadGenerator::trajectory`] per assignment, with the
    /// prompt difficulty drawn once per GRPO group.
    pub fn batch(&self, batch: &GroupedBatch, evolution: f64) -> Vec<TrajectorySpec> {
        let mut specs = Vec::with_capacity(batch.len());
        let mut factor = evolution;
        for (id, prompt_id, group_index) in batch.assignments() {
            // Assignments come group by group, each opening with member 0.
            if group_index == 0 {
                factor = evolution * self.difficulty(prompt_id);
            }
            specs.push(self.spec(id, prompt_id, group_index, factor));
        }
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_sim::Histogram;

    #[test]
    fn single_turn_has_one_decode_segment() {
        let w = WorkloadGenerator::single_turn(1, Checkpoint::Math7B);
        let t = w.trajectory(0, 0, 0, 1.0);
        assert_eq!(t.segments.len(), 1);
        assert_eq!(t.env_calls(), 0);
        assert!(t.decode_tokens() >= 1);
        assert!(t.prompt_tokens >= 1 && t.prompt_tokens <= 2048);
    }

    #[test]
    fn generation_is_deterministic() {
        let w = WorkloadGenerator::single_turn(5, Checkpoint::Math32B);
        let a = w.trajectory(42, 3, 1, 1.0);
        let b = w.trajectory(42, 3, 1, 1.0);
        assert_eq!(a, b);
        let c = w.trajectory(43, 3, 2, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn multi_turn_alternates_and_respects_cap() {
        let w = WorkloadGenerator::multi_turn(2);
        for id in 0..200 {
            let t = w.trajectory(id, id / 16, (id % 16) as usize, 1.0);
            let calls = t.env_calls();
            assert!((1..=8).contains(&calls), "calls {calls}");
            // Starts and ends with decode; strict alternation.
            assert!(matches!(t.segments.first(), Some(Segment::Decode { .. })));
            assert!(matches!(t.segments.last(), Some(Segment::Decode { .. })));
            for pair in t.segments.windows(2) {
                let alternates = matches!(
                    pair,
                    [Segment::Decode { .. }, Segment::Env { .. }]
                        | [Segment::Env { .. }, Segment::Decode { .. }]
                );
                assert!(alternates);
            }
            assert!(t.decode_tokens() <= 16_384 + 8, "budget exceeded");
        }
    }

    #[test]
    fn group_members_share_difficulty() {
        let w = WorkloadGenerator::single_turn(7, Checkpoint::Math7B);
        // Average within-group length spread must be smaller than the
        // across-prompt spread (difficulty is shared per prompt).
        let mut within = Histogram::new();
        let mut means = Histogram::new();
        for p in 0..200u64 {
            let lens: Vec<f64> = (0..16)
                .map(|g| w.trajectory(p * 16 + g, p, g as usize, 1.0).decode_tokens() as f64)
                .collect();
            let mean = lens.iter().sum::<f64>() / 16.0;
            means.add(mean.ln());
            for l in lens {
                within.add((l.ln() - mean.ln()).abs());
            }
        }
        let across_spread = {
            let mut m = means.clone();
            m.percentile(90.0) - m.percentile(10.0)
        };
        assert!(across_spread > 0.3, "prompts must differ in difficulty");
    }

    #[test]
    fn evolution_scales_lengths() {
        let w = WorkloadGenerator::single_turn(9, Checkpoint::Math7B);
        let total = |e: f64| {
            (0..500)
                .map(|i| w.trajectory(i, i / 16, 0, e).decode_tokens())
                .sum::<u64>()
        };
        let base = total(1.0);
        let grown = total(1.8);
        assert!(
            grown as f64 > base as f64 * 1.4,
            "base {base} grown {grown}"
        );
    }

    #[test]
    fn total_tokens_adds_prompt() {
        let w = WorkloadGenerator::single_turn(3, Checkpoint::Math7B);
        let t = w.trajectory(1, 0, 1, 1.0);
        assert_eq!(t.total_tokens(), t.prompt_tokens + t.decode_tokens());
        assert_eq!(t.final_context(), t.total_tokens());
    }
}
