//! Actor checkpoint store (§3.3).
//!
//! Trainer faults are handled by standard checkpoint recovery: actor
//! weights are checkpointed periodically; on a trainer failure the job
//! resumes from the latest checkpoint while rollouts continue generating
//! with the latest available weights. Recovery only ever reads the newest
//! checkpoint, so the store keeps that one version and answers the recovery
//! question: *which version do we resume from, and how much training is
//! replayed?*

/// Periodic checkpoint policy plus the newest persisted version.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    /// Persist every `every` versions (e.g. every 5 iterations).
    pub every: u64,
    /// Newest persisted actor version; 0 before the first checkpoint.
    latest: u64,
}

impl CheckpointStore {
    /// Creates a store checkpointing every `every` versions.
    pub fn new(every: u64) -> Self {
        assert!(every >= 1, "degenerate checkpoint policy");
        CheckpointStore { every, latest: 0 }
    }

    /// Called after every actor update; persists when the policy says so.
    /// Version 0 is the initial weights before any training — there is
    /// nothing to persist, so it never checkpoints even though
    /// `0 % every == 0`.
    pub fn on_version(&mut self, version: u64) {
        if version != 0 && version.is_multiple_of(self.every) {
            self.latest = version;
        }
    }

    /// The newest persisted version; 0 before the first checkpoint.
    pub fn latest(&self) -> u64 {
        self.latest
    }

    /// Recovery decision for a trainer failing at `failed_version`: the
    /// version to resume from (0 = from scratch) and the number of
    /// training iterations whose work is replayed.
    pub fn recovery(&self, failed_version: u64) -> (u64, u64) {
        (self.latest, failed_version.saturating_sub(self.latest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persists_on_policy_boundaries() {
        let mut s = CheckpointStore::new(5);
        for v in 1..=12 {
            s.on_version(v);
            assert_eq!(s.latest(), v / 5 * 5, "v={v}");
        }
        assert_eq!(s.latest(), 10);
    }

    /// Regression: `0 % every == 0`, but version 0 is the untrained initial
    /// weights — persisting it would discard the newest real checkpoint and
    /// make `recovery()` restart from scratch.
    #[test]
    fn version_zero_never_checkpoints() {
        let mut s = CheckpointStore::new(5);
        s.on_version(0);
        assert_eq!(s.recovery(3), (0, 3), "no checkpoint -> restart");
        s.on_version(5);
        s.on_version(0);
        assert_eq!(s.latest(), 5);
        assert_eq!(s.recovery(7), (5, 2));
    }

    #[test]
    fn recovery_replays_since_checkpoint() {
        let mut s = CheckpointStore::new(5);
        for v in 1..=13 {
            s.on_version(v);
        }
        let (resume, replayed) = s.recovery(13);
        assert_eq!(resume, 10);
        assert_eq!(replayed, 3);
    }

    #[test]
    fn recovery_without_checkpoints_restarts() {
        let s = CheckpointStore::new(100);
        assert_eq!(s.recovery(7), (0, 7));
    }
}
