//! The partial response pool: fault-tolerant store of in-progress
//! trajectories (§3.1, §3.3).
//!
//! Rollouts stream each trajectory's progress here (step ② of the training
//! workflow). When a rollout machine fails, the pool still holds every
//! in-progress trajectory's tokens and statistics, so the rollout manager
//! can redirect them to healthy rollouts instead of regenerating from
//! scratch — critical when a single agentic trajectory can take hours.

use laminar_sim::{IdMap, Time};
use laminar_workload::{PolicyVersions, TrajectorySpec};

/// Streamed state of one in-progress trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialResponse {
    /// The underlying assignment.
    pub spec: TrajectorySpec,
    /// Tokens generated so far.
    pub generated_tokens: u64,
    /// Index of the segment currently executing.
    pub segment_index: usize,
    /// Weight versions used so far, oldest first (never empty).
    pub policy_versions: PolicyVersions,
    /// When generation began.
    pub started_at: Time,
    /// Rollout currently generating it.
    pub rollout: usize,
}

impl PartialResponse {
    /// Appends the record's canonical checkpoint encoding (one in-progress
    /// trajectory = one delta-checkpoint chunk in the partial-pool plane).
    pub fn encode_words(&self, out: &mut Vec<u64>) {
        self.spec.encode_words(out);
        out.push(self.generated_tokens);
        out.push(self.segment_index as u64);
        out.push(self.policy_versions.len() as u64);
        out.extend(self.policy_versions.iter());
        out.push(self.started_at.as_nanos());
        out.push(self.rollout as u64);
    }
}

/// Central store of in-progress trajectories, keyed by trajectory id.
#[derive(Debug, Clone, Default)]
pub struct PartialResponsePool {
    entries: IdMap<PartialResponse>,
}

impl PartialResponsePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a trajectory starting on `rollout` at `now` with weight
    /// version `version`.
    pub fn begin(&mut self, spec: TrajectorySpec, rollout: usize, version: u64, now: Time) {
        let id = spec.id;
        self.entries.insert(
            id,
            PartialResponse {
                spec,
                generated_tokens: 0,
                segment_index: 0,
                policy_versions: PolicyVersions::single(version),
                started_at: now,
                rollout,
            },
        );
    }

    /// Streams a progress update. Unknown ids are ignored (the trajectory
    /// may have been completed or recovered concurrently).
    pub fn update(&mut self, id: u64, generated_tokens: u64, segment_index: usize) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.generated_tokens = generated_tokens;
            e.segment_index = segment_index;
        }
    }

    /// Reassigns a trajectory to another rollout (repack move or recovery).
    pub fn reassign(&mut self, id: u64, rollout: usize) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.rollout = rollout;
        }
    }

    /// Completes a trajectory, removing and returning its state.
    pub fn complete(&mut self, id: u64) -> Option<PartialResponse> {
        self.entries.remove(&id)
    }

    /// Drains every in-progress trajectory assigned to `rollout` — the
    /// recovery path when that rollout's machine fails. The drained states
    /// retain all streamed progress.
    pub fn drain_rollout(&mut self, rollout: usize) -> Vec<PartialResponse> {
        let mut ids: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.rollout == rollout)
            .map(|(&id, _)| id)
            .collect();
        // Id-sorted: callers re-inject the drained trajectories into healthy
        // engines, so the order must not leak map iteration order into the
        // recovery timeline.
        ids.sort_unstable();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(e) = self.entries.remove(&id) {
                out.push(e);
            }
        }
        out
    }

    /// In-progress trajectory count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is in progress.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up one in-progress trajectory.
    pub fn get(&self, id: u64) -> Option<&PartialResponse> {
        self.entries.get(&id)
    }

    /// Ids of every in-progress trajectory, ascending.
    pub fn ids(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.entries.keys().copied().collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_workload::{Checkpoint, WorkloadGenerator};

    fn spec(id: u64) -> TrajectorySpec {
        WorkloadGenerator::single_turn(1, Checkpoint::Math7B).trajectory(id, 0, 0, 1.0)
    }

    #[test]
    fn lifecycle_begin_update_complete() {
        let mut p = PartialResponsePool::new();
        p.begin(spec(1), 3, 7, Time::from_secs(1));
        p.update(1, 500, 0);
        let e = p.get(1).unwrap();
        assert_eq!(e.generated_tokens, 500);
        assert_eq!(e.rollout, 3);
        assert_eq!(e.policy_versions, vec![7]);
        let done = p.complete(1).unwrap();
        assert_eq!(done.generated_tokens, 500);
        assert!(p.is_empty());
    }

    #[test]
    fn drain_rollout_recovers_only_that_rollout() {
        let mut p = PartialResponsePool::new();
        p.begin(spec(1), 0, 1, Time::ZERO);
        p.begin(spec(2), 1, 1, Time::ZERO);
        p.begin(spec(3), 0, 1, Time::ZERO);
        let lost = p.drain_rollout(0);
        assert_eq!(lost.len(), 2);
        assert_eq!(p.len(), 1);
        assert!(p.get(2).is_some());
        assert!(lost.iter().all(|e| e.rollout == 0));
    }

    #[test]
    fn update_unknown_id_is_noop() {
        let mut p = PartialResponsePool::new();
        p.begin(spec(1), 0, 1, Time::ZERO);
        p.update(99, 10, 0);
        assert_eq!(p.ids(), vec![1]);
        assert_eq!(p.get(1).unwrap().generated_tokens, 0);
        assert!(p.complete(99).is_none());
    }
}
