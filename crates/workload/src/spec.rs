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
    pub segments: Segments,
}

/// A trajectory's execution phases, held without a heap allocation when
/// there is only one.
///
/// Every single-turn trajectory is one decode segment, so the list keeps a
/// lone segment inline and puts longer lists in one boxed slice: cloning
/// or generating a single-turn spec allocates nothing, and a multi-turn
/// spec keeps the one allocation its `Vec` made. It derefs to
/// `[Segment]`, compares as that slice, and prints as a `Vec` of its
/// segments does, so a spec's `Debug` text does not depend on the form.
#[derive(Clone)]
pub struct Segments(SegmentsRepr);

#[derive(Clone)]
enum SegmentsRepr {
    One(Segment),
    Many(Box<[Segment]>),
}

impl From<Segment> for Segments {
    fn from(segment: Segment) -> Self {
        Segments(SegmentsRepr::One(segment))
    }
}

impl From<Vec<Segment>> for Segments {
    /// Keeps a one-segment list inline; any other length moves into one
    /// boxed slice (without reallocating when the `Vec` is exactly full).
    fn from(segments: Vec<Segment>) -> Self {
        match *segments {
            [one] => one.into(),
            _ => Segments(SegmentsRepr::Many(segments.into_boxed_slice())),
        }
    }
}

impl std::ops::Deref for Segments {
    type Target = [Segment];

    fn deref(&self) -> &[Segment] {
        match &self.0 {
            SegmentsRepr::One(segment) => std::slice::from_ref(segment),
            SegmentsRepr::Many(segments) => segments,
        }
    }
}

impl PartialEq for Segments {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Segments {}

impl std::fmt::Debug for Segments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
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
        for seg in self.segments.iter() {
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

/// Weight versions a trajectory generated under, oldest first, never empty.
///
/// Most trajectories finish under the version they started with, so the
/// representation keeps the first version inline and only allocates the
/// `extras` spill vector once a *different* version is actually pushed —
/// creating or version-resetting a trajectory costs zero heap allocations.
/// Consecutive duplicates are collapsed on push, so `extras` is non-empty
/// exactly when the trajectory is mixed-version. The rollout engines'
/// in-flight states and completion records and the partial response
/// pool's records all carry this one type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyVersions {
    first: u64,
    extras: Vec<u64>,
}

impl PolicyVersions {
    /// The common case: a trajectory serving a single version. Allocates
    /// nothing (`Vec::new` is heap-free until first push).
    pub fn single(version: u64) -> Self {
        PolicyVersions {
            first: version,
            extras: Vec::new(),
        }
    }

    /// The version generation started under (behaviour version).
    pub fn first(&self) -> u64 {
        self.first
    }

    /// The version currently in effect.
    pub fn last(&self) -> u64 {
        *self.extras.last().unwrap_or(&self.first)
    }

    /// Number of distinct recorded version stretches.
    pub fn len(&self) -> usize {
        1 + self.extras.len()
    }

    /// Never true: the list always holds at least the starting version.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether more than one version contributed tokens.
    pub fn is_mixed(&self) -> bool {
        !self.extras.is_empty()
    }

    /// Records that generation continues under `version` (collapsed if equal
    /// to the last recorded one).
    pub fn push(&mut self, version: u64) {
        if self.last() != version {
            self.extras.push(version);
        }
    }

    /// Forgets history and restarts the list at `version` (used when a
    /// waiting, zero-progress trajectory is retagged to a new weight
    /// version). Keeps any spill capacity for reuse.
    pub fn reset(&mut self, version: u64) {
        self.first = version;
        self.extras.clear();
    }

    /// Oldest-first iteration over the recorded versions.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.first).chain(self.extras.iter().copied())
    }

    /// The versions as an owned oldest-first vector (the boundary
    /// conversion into experience records).
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

impl PartialEq<Vec<u64>> for PolicyVersions {
    fn eq(&self, other: &Vec<u64>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<[u64]> for PolicyVersions {
    fn eq(&self, other: &[u64]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
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
    /// `factor` (the evolution factor times the prompt's difficulty). A
    /// single-turn spec allocates nothing; a multi-turn one allocates its
    /// segment list once.
    fn spec(&self, id: u64, prompt_id: u64, group_index: usize, factor: f64) -> TrajectorySpec {
        let mut rng = SimRng::derive(self.seed, "trajectory", id);
        let lengths = &self.lengths;
        let prompt_tokens = lengths.sample_prompt(&mut rng);
        let segments = match self.kind {
            WorkloadKind::SingleTurn => Segment::Decode {
                tokens: lengths.sample_response_scaled(&mut rng, factor),
            }
            .into(),
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
                segs.into()
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
    fn segments_deref_to_their_lists_and_print_as_vecs() {
        let decode = |tokens| Segment::Decode { tokens };
        let env = Segment::Env {
            latency: Duration::from_secs(2),
        };
        for list in [vec![], vec![decode(5)], vec![decode(5), env, decode(9)]] {
            let segments = Segments::from(list.clone());
            assert_eq!(*segments, *list);
            assert_eq!(segments.len(), list.len());
            assert_eq!(segments.first(), list.first());
            assert_eq!(segments.iter().copied().collect::<Vec<_>>(), list);
            assert_eq!(format!("{segments:?}"), format!("{list:?}"));
            assert_eq!(format!("{segments:#?}"), format!("{list:#?}"));
            assert_eq!(segments.clone(), segments);
        }
        assert_eq!(Segments::from(decode(5)), Segments::from(vec![decode(5)]));
        assert_ne!(Segments::from(decode(5)), Segments::from(vec![decode(6)]));
        assert_ne!(
            Segments::from(decode(5)),
            Segments::from(vec![decode(5), env, decode(5)])
        );
        assert_ne!(Segments::from(vec![]), Segments::from(decode(5)));
        assert_eq!(
            std::mem::size_of::<Segments>(),
            std::mem::size_of::<Vec<Segment>>()
        );
    }

    #[test]
    fn policy_versions_inline_single_case() {
        let mut pv = PolicyVersions::single(5);
        assert_eq!(pv.first(), 5);
        assert_eq!(pv.last(), 5);
        assert_eq!(pv.len(), 1);
        assert!(!pv.is_mixed());
        assert_eq!(pv.to_vec(), vec![5]);
        pv.push(5);
        assert_eq!(pv.len(), 1, "consecutive duplicate collapses");
        pv.push(7);
        assert!(pv.is_mixed());
        assert_eq!(pv.last(), 7);
        assert_eq!(pv, vec![5, 7]);
        pv.reset(9);
        assert!(!pv.is_mixed());
        assert_eq!(pv, vec![9]);
    }

    #[test]
    fn total_tokens_adds_prompt() {
        let w = WorkloadGenerator::single_turn(3, Checkpoint::Math7B);
        let t = w.trajectory(1, 0, 1, 1.0);
        assert_eq!(t.total_tokens(), t.prompt_tokens + t.decode_tokens());
        assert_eq!(t.final_context(), t.total_tokens());
    }
}
