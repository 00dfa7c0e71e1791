//! Per-trajectory execution state inside a replica.

use laminar_sim::{Duration, Time};
use laminar_workload::{PolicyVersions, Segment, TrajectorySpec};

/// Execution phase of an in-flight trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Prompt (or re-prefill after a move/interrupt) is being processed;
    /// decoding starts at `until`.
    Prefill {
        /// When the prefill finishes.
        until: Time,
    },
    /// Actively decoding in the replica's batch.
    Decoding,
    /// Waiting on an environment call; KVCache is held but no decode runs.
    Env {
        /// When the environment call returns.
        until: Time,
    },
}

/// State of one in-flight trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajState {
    /// The underlying assignment.
    pub spec: TrajectorySpec,
    /// Index of the segment currently executing.
    pub segment: usize,
    /// Tokens decoded within the current decode segment (fractional while a
    /// rate period is open).
    pub decoded_in_segment: f64,
    /// Total tokens decoded so far.
    pub total_decoded: f64,
    /// Weight versions used so far, oldest first (never empty).
    pub policy_versions: PolicyVersions,
    /// When generation first started (across moves).
    pub started_at: Time,
    /// Current phase.
    pub phase: Phase,
    /// Set when the trajectory was moved between replicas while in an
    /// environment call: its KVCache must be rebuilt before the next decode.
    pub needs_reprefill: bool,
    /// When the current decode segment entered [`Phase::Decoding`]; feeds the
    /// `DecodeStep` trace span emitted at segment completion.
    pub decode_started_at: Time,
    /// Engine-local lazy-progress baseline: the engine's global decode-step
    /// accumulator at the instant this trajectory last entered
    /// [`Phase::Decoding`] (or was last materialized). While decoding, the
    /// true decoded counts are `decoded_in_segment`/`total_decoded` plus
    /// `global_steps - steps_baseline`; the engine materializes them at phase
    /// transitions. Reset to 0 whenever the trajectory leaves the decoding
    /// phase so states stay comparable across engines.
    pub steps_baseline: f64,
    /// Engine-local segment-completion key: the value of the engine's global
    /// decode-step accumulator at which the current decode segment finishes.
    /// Stale heap entries are detected by comparing against this field.
    /// Reset to 0 whenever the trajectory leaves the decoding phase.
    pub finish_key: f64,
    /// Cumulative extra delay absorbed by this trajectory's env calls from
    /// `EnvStall` faults, counted against the engine's stall budget.
    pub env_stalled: Duration,
    /// Set when an env call exhausted the stall budget: the call is
    /// abandoned and the trajectory completes early at its next transition
    /// instead of wedging the batch.
    pub aborted: bool,
}

impl TrajState {
    /// Fresh state for a spec starting at `now` with weight `version`.
    pub fn new(spec: TrajectorySpec, version: u64, now: Time) -> Self {
        TrajState {
            spec,
            segment: 0,
            decoded_in_segment: 0.0,
            total_decoded: 0.0,
            policy_versions: PolicyVersions::single(version),
            started_at: now,
            phase: Phase::Prefill { until: now },
            needs_reprefill: false,
            decode_started_at: now,
            steps_baseline: 0.0,
            finish_key: 0.0,
            env_stalled: Duration::ZERO,
            aborted: false,
        }
    }

    /// Current context length in tokens (prompt plus everything decoded):
    /// the trajectory's KVCache footprint while resident.
    pub fn context_tokens(&self) -> f64 {
        self.spec.prompt_tokens as f64 + self.total_decoded
    }

    /// Token length of the current segment if it is a decode segment.
    pub fn current_decode_tokens(&self) -> Option<u64> {
        match self.spec.segments.get(self.segment) {
            Some(Segment::Decode { tokens }) => Some(*tokens),
            _ => None,
        }
    }

    /// Tokens left in the current decode segment (0 for non-decode phases).
    pub fn remaining_in_segment(&self) -> f64 {
        match self.current_decode_tokens() {
            Some(t) => (t as f64 - self.decoded_in_segment).max(0.0),
            None => 0.0,
        }
    }

    /// True once every segment has executed.
    pub fn is_complete(&self) -> bool {
        self.segment >= self.spec.segments.len()
    }

    /// Records that generation continues under `version` (if different from
    /// the last recorded one).
    pub fn push_version(&mut self, version: u64) {
        self.policy_versions.push(version);
    }

    /// Appends the state's canonical checkpoint encoding: a fixed-order
    /// word stream covering every field (spec included). One trajectory =
    /// one delta-checkpoint chunk, so the encoding must be identical no
    /// matter whether a full or an incremental encoder produced it — both
    /// call exactly this method.
    pub fn encode_words(&self, out: &mut Vec<u64>) {
        self.spec.encode_words(out);
        out.push(self.segment as u64);
        out.push(self.decoded_in_segment.to_bits());
        out.push(self.total_decoded.to_bits());
        out.push(self.policy_versions.len() as u64);
        out.extend(self.policy_versions.iter());
        out.push(self.started_at.as_nanos());
        match self.phase {
            Phase::Prefill { until } => {
                out.push(0);
                out.push(until.as_nanos());
            }
            Phase::Decoding => {
                out.push(1);
                out.push(0);
            }
            Phase::Env { until } => {
                out.push(2);
                out.push(until.as_nanos());
            }
        }
        out.push(self.needs_reprefill as u64);
        out.push(self.decode_started_at.as_nanos());
        out.push(self.steps_baseline.to_bits());
        out.push(self.finish_key.to_bits());
        out.push(self.env_stalled.as_nanos());
        out.push(self.aborted as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_workload::{Checkpoint, WorkloadGenerator};

    fn state() -> TrajState {
        let spec = WorkloadGenerator::single_turn(1, Checkpoint::Math7B).trajectory(0, 0, 0, 1.0);
        TrajState::new(spec, 3, Time::from_secs(1))
    }

    #[test]
    fn fresh_state_invariants() {
        let s = state();
        assert_eq!(s.policy_versions, vec![3]);
        assert_eq!(s.total_decoded, 0.0);
        assert!(!s.is_complete());
        assert_eq!(s.context_tokens(), s.spec.prompt_tokens as f64);
        assert_eq!(
            s.remaining_in_segment(),
            s.current_decode_tokens()
                .expect("single-turn starts with decode") as f64
        );
    }

    #[test]
    fn push_version_dedups() {
        let mut s = state();
        s.push_version(3);
        s.push_version(4);
        s.push_version(4);
        assert_eq!(s.policy_versions, vec![3, 4]);
    }

    #[test]
    fn completion_by_segment_index() {
        let mut s = state();
        s.segment = s.spec.segments.len();
        assert!(s.is_complete());
        assert_eq!(s.current_decode_tokens(), None);
        assert_eq!(s.remaining_in_segment(), 0.0);
    }
}
