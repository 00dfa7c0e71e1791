//! The rollout manager (§3.1, §5.1): monitoring, repack coordination, and
//! replica health.
//!
//! The manager runs on a CPU machine, isolated from GPU failures. It
//! periodically samples every replica's load, groups replicas by weight
//! version, runs the Best-Fit planner per group, and tracks which replicas
//! are healthy: the enclosing system evicts a replica the instant its
//! machine fails and marks it recovered when the replacement is up. It
//! holds only coordination state — the enclosing system world executes the
//! planned moves against the actual engines.

use crate::repack::{plan_repack, RepackPlan, ReplicaLoad};
use laminar_sim::{Duration, Time};
use std::collections::HashMap;

/// Periodic repack check interval (5 s in §5.1).
pub const REPACK_INTERVAL: Duration = Duration::from_secs(5);

/// KVCache threshold `C_max` as a fraction of capacity (≈0.99 in §5.2):
/// the repack and failure-redirect capacity bound.
pub const C_MAX_FRAC: f64 = 0.99;

/// Health state of one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Serving.
    Healthy,
    /// Evicted from the job (machine withdrawn).
    Evicted,
}

/// The rollout manager.
#[derive(Debug, Clone, Default)]
pub struct RolloutManager {
    prev_kv: HashMap<usize, f64>,
    health: HashMap<usize, ReplicaHealth>,
    /// When each replica was registered or last marked recovered.
    healthy_since: HashMap<usize, Time>,
    repacks_planned: u64,
    replicas_released: u64,
}

/// A replica's load sample as handed to the manager (before `C_prev`
/// bookkeeping, which the manager owns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSample {
    /// Replica id.
    pub replica: usize,
    /// Current KVCache usage, tokens.
    pub kv_used: f64,
    /// KVCache reserved for in-flight trajectories at final lengths, tokens.
    pub kv_reserved: f64,
    /// In-flight trajectory count.
    pub n_reqs: usize,
    /// Weight version in use.
    pub weight_version: u64,
    /// KVCache capacity, tokens.
    pub kv_capacity: f64,
    /// Roofline batch bound `B`.
    pub roofline_b: usize,
}

impl RolloutManager {
    /// Appends the manager's complete mutable state as a fixed-order word
    /// stream for the delta-checkpoint scalar plane. Map entries are
    /// emitted in ascending replica order so the encoding never leaks
    /// `HashMap` iteration order.
    pub fn checkpoint_words(&self, out: &mut Vec<u64>) {
        out.push(self.repacks_planned);
        out.push(self.replicas_released);
        let mut ids: Vec<usize> = self.health.keys().copied().collect();
        ids.sort_unstable();
        out.push(ids.len() as u64);
        for r in ids {
            out.push(r as u64);
            out.push(match self.health[&r] {
                ReplicaHealth::Healthy => 0,
                ReplicaHealth::Evicted => 2,
            });
            out.push(
                self.healthy_since
                    .get(&r)
                    .copied()
                    .unwrap_or(Time::ZERO)
                    .as_nanos(),
            );
            out.push(self.prev_kv.get(&r).copied().unwrap_or(0.0).to_bits());
        }
    }

    /// Registers a replica as healthy at `now`.
    pub fn register(&mut self, replica: usize, now: Time) {
        self.health.insert(replica, ReplicaHealth::Healthy);
        self.healthy_since.insert(replica, now);
    }

    /// Health of a replica (`Evicted` if unknown).
    pub fn health(&self, replica: usize) -> ReplicaHealth {
        self.health
            .get(&replica)
            .copied()
            .unwrap_or(ReplicaHealth::Evicted)
    }

    /// Marks a failed replica recovered (re-initialized in place, §3.3).
    pub fn mark_recovered(&mut self, replica: usize, now: Time) {
        self.health.insert(replica, ReplicaHealth::Healthy);
        self.healthy_since.insert(replica, now);
    }

    /// Evicts a replica (machine withdrawn after repeated failure).
    pub fn evict(&mut self, replica: usize) {
        self.health.insert(replica, ReplicaHealth::Evicted);
    }

    /// Step ①/② of Figure 8: collects load samples from healthy replicas,
    /// groups them by weight version, and plans a consolidation per group.
    /// The returned plan merges all groups' moves (each move stays within
    /// its version group).
    pub fn plan(&mut self, samples: &[LoadSample]) -> RepackPlan {
        let mut groups: HashMap<u64, Vec<ReplicaLoad>> = HashMap::new();
        for s in samples {
            if self.health(s.replica) != ReplicaHealth::Healthy {
                continue;
            }
            // A replica with no history yet is not a ramp-down candidate:
            // treat its previous usage as equal to the current one, which
            // fails the strict `C_used < C_prev` test.
            let prev = self.prev_kv.get(&s.replica).copied().unwrap_or(s.kv_used);
            groups
                .entry(s.weight_version)
                .or_default()
                .push(ReplicaLoad {
                    replica: s.replica,
                    kv_used: s.kv_used,
                    kv_reserved: s.kv_reserved,
                    kv_prev: prev,
                    n_reqs: s.n_reqs,
                    weight_version: s.weight_version,
                });
        }
        // Update C_prev history for the next sample.
        for s in samples {
            self.prev_kv.insert(s.replica, s.kv_used);
        }
        let mut plan = RepackPlan::default();
        let mut versions: Vec<u64> = groups.keys().copied().collect();
        versions.sort_unstable();
        for v in versions {
            let group = &groups[&v];
            if group.len() < 2 {
                continue;
            }
            let in_group = |s: &&LoadSample| group.iter().any(|g| g.replica == s.replica);
            let c_max = samples
                .iter()
                .filter(in_group)
                .map(|s| s.kv_capacity)
                .fold(f64::INFINITY, f64::min)
                * C_MAX_FRAC;
            let b = samples
                .iter()
                .filter(in_group)
                .map(|s| s.roofline_b)
                .min()
                .unwrap_or(1);
            let group_plan = plan_repack(group, c_max, b);
            self.replicas_released += group_plan.moves.len() as u64;
            plan.moves.extend(group_plan.moves);
        }
        if !plan.is_empty() {
            self.repacks_planned += 1;
        }
        plan
    }

    /// Total repack rounds that produced at least one move.
    pub fn repacks_planned(&self) -> u64 {
        self.repacks_planned
    }

    /// Total replicas released across all repacks.
    pub fn replicas_released(&self) -> u64 {
        self.replicas_released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(replica: usize, kv: f64, reqs: usize, version: u64) -> LoadSample {
        LoadSample {
            replica,
            kv_used: kv,
            kv_reserved: kv,
            n_reqs: reqs,
            weight_version: version,
            kv_capacity: 1000.0,
            roofline_b: 64,
        }
    }

    #[test]
    fn plan_groups_by_version() {
        let mut m = RolloutManager::default();
        for r in 0..4 {
            m.register(r, Time::ZERO);
        }
        // First sample establishes C_prev; second with lower usage makes the
        // replicas ramp-down candidates.
        let first = vec![
            sample(0, 200.0, 3, 1),
            sample(1, 220.0, 3, 1),
            sample(2, 210.0, 3, 2),
            sample(3, 230.0, 3, 2),
        ];
        assert!(m.plan(&first).is_empty(), "no C_prev on the first sample");
        let second = vec![
            sample(0, 100.0, 2, 1),
            sample(1, 120.0, 2, 1),
            sample(2, 110.0, 2, 2),
            sample(3, 130.0, 2, 2),
        ];
        let plan = m.plan(&second);
        assert_eq!(plan.moves.len(), 2);
        // Moves stay within version groups.
        let find = |r: usize| {
            second
                .iter()
                .find(|s| s.replica == r)
                .unwrap()
                .weight_version
        };
        for &(s, d) in &plan.moves {
            assert_eq!(find(s), find(d));
        }
    }

    #[test]
    fn failed_replicas_excluded_from_planning() {
        let mut m = RolloutManager::default();
        m.register(0, Time::ZERO);
        m.register(1, Time::ZERO);
        let warm = vec![sample(0, 200.0, 2, 1), sample(1, 200.0, 2, 1)];
        m.plan(&warm);
        let cool = vec![sample(0, 100.0, 1, 1), sample(1, 100.0, 1, 1)];
        assert!(!m.clone().plan(&cool).is_empty(), "two healthy tails merge");
        // Replica 1's machine fails: alone in its version group, replica 0
        // has nothing to consolidate with.
        m.evict(1);
        assert!(m.plan(&cool).is_empty());
    }

    #[test]
    fn recovery_and_eviction_lifecycle() {
        let mut m = RolloutManager::default();
        m.register(0, Time::ZERO);
        assert_eq!(m.health(0), ReplicaHealth::Healthy);
        m.evict(0);
        assert_eq!(m.health(0), ReplicaHealth::Evicted);
        m.mark_recovered(0, Time::from_secs(61));
        assert_eq!(m.health(0), ReplicaHealth::Healthy);
        m.evict(0);
        assert_eq!(m.health(0), ReplicaHealth::Evicted);
        assert_eq!(
            m.health(99),
            ReplicaHealth::Evicted,
            "unknown replicas read as evicted"
        );
    }

    #[test]
    fn release_counter_accumulates() {
        let mut m = RolloutManager::default();
        for r in 0..3 {
            m.register(r, Time::ZERO);
        }
        m.plan(&[
            sample(0, 300.0, 2, 1),
            sample(1, 300.0, 2, 1),
            sample(2, 300.0, 2, 1),
        ]);
        let plan = m.plan(&[
            sample(0, 100.0, 1, 1),
            sample(1, 100.0, 1, 1),
            sample(2, 100.0, 1, 1),
        ]);
        assert_eq!(
            plan.moves.len(),
            2,
            "two of three tails consolidate onto one"
        );
        assert_eq!(m.replicas_released(), 2);
        assert_eq!(m.repacks_planned(), 1);
    }
}
