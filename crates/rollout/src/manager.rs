//! The rollout manager (§3.1, §5.1): monitoring and repack coordination.
//!
//! The manager runs on a CPU machine, isolated from GPU failures. It
//! periodically samples every live replica's load, groups replicas by
//! weight version, and runs the Best-Fit planner per group. It holds only
//! coordination state — each sampled replica's previous KVCache usage
//! (`C_prev`) — while the enclosing system world decides which replicas are
//! live, hands the manager their samples, and executes the planned moves
//! against the actual engines.

use crate::repack::{plan_repack, RepackPlan, ReplicaLoad};
use laminar_sim::Duration;
use std::collections::HashMap;

/// Periodic repack check interval (5 s in §5.1).
pub const REPACK_INTERVAL: Duration = Duration::from_secs(5);

/// KVCache threshold `C_max` as a fraction of capacity (≈0.99 in §5.2):
/// the repack and failure-redirect capacity bound.
pub const C_MAX_FRAC: f64 = 0.99;

/// The rollout manager.
#[derive(Debug, Clone, Default)]
pub struct RolloutManager {
    /// `C_prev`: each sampled replica's KVCache usage at its last sample.
    prev_kv: HashMap<usize, f64>,
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
    /// Appends the manager's complete mutable state — each sampled
    /// replica's `C_prev` — as a fixed-order word stream for the
    /// delta-checkpoint scalar plane: the entry count, then `(replica,
    /// C_prev bits)` in ascending replica order, so the encoding never
    /// leaks `HashMap` iteration order.
    pub fn checkpoint_words(&self, out: &mut Vec<u64>) {
        let mut ids: Vec<usize> = self.prev_kv.keys().copied().collect();
        ids.sort_unstable();
        out.push(ids.len() as u64);
        for r in ids {
            out.extend([r as u64, self.prev_kv[&r].to_bits()]);
        }
    }

    /// Step ①/② of Figure 8: groups the live replicas' load samples by
    /// weight version and plans a consolidation per group. The caller
    /// samples live replicas only. The returned plan merges all groups'
    /// moves (each move stays within its version group).
    pub fn plan(&mut self, samples: &[LoadSample]) -> RepackPlan {
        let mut groups: HashMap<u64, Vec<ReplicaLoad>> = HashMap::new();
        for s in samples {
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
            plan.moves.extend(plan_repack(group, c_max, b).moves);
        }
        plan
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
    fn release_counter_accumulates() {
        let mut m = RolloutManager::default();
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
    }
}
