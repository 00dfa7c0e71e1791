//! Algorithm 1: Best-Fit trajectory consolidation (§5.2).
//!
//! Within a group of replicas on the same weight version, the planner
//! partitions ramp-down replicas into *sources* (to be released for a weight
//! update) and *destinations* (to absorb the sources' remaining long-tail
//! trajectories), maximizing released replicas while keeping every
//! destination within the KVCache threshold `C_max` and the roofline batch
//! bound `B`.

/// One replica's load snapshot, as collected by the rollout manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaLoad {
    /// Replica id.
    pub replica: usize,
    /// Current KVCache usage (`C_used`), tokens.
    pub kv_used: f64,
    /// KVCache *reserved* for the replica's in-flight trajectories at their
    /// final lengths, tokens. Diagnostic: Algorithm 1's CanFit uses
    /// `kv_used` (the destination's own trajectories drain while the moved
    /// tail grows), but schedulers wanting a conservative fit can consult
    /// this.
    pub kv_reserved: f64,
    /// KVCache usage at the previous monitoring sample (`C_prev`), tokens.
    pub kv_prev: f64,
    /// In-flight trajectory count (`N_reqs`).
    pub n_reqs: usize,
    /// Weight version the replica is generating with.
    pub weight_version: u64,
}

/// A consolidation plan: each `(source, destination)` pair moves *all* of
/// the source's in-flight trajectories to the destination, releasing the
/// source.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepackPlan {
    /// Planned moves, in planning order.
    pub moves: Vec<(usize, usize)>,
}

impl RepackPlan {
    /// Replicas released by the plan.
    pub fn released(&self) -> Vec<usize> {
        self.moves.iter().map(|&(s, _)| s).collect()
    }

    /// True when nothing moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Plans a consolidation for one weight-version group (Algorithm 1).
///
/// * `c_max` — the KVCache threshold in tokens (the "full utilization"
///   level; ~99% of capacity in the paper);
/// * `b` — the roofline batch bound on a destination's trajectory count.
///
/// Candidates are replicas in their ramp-down phase — `C_used` strictly
/// below both `C_max` and the previous sample — holding fewer than `b`
/// in-flight trajectories (and at least one; empty replicas need no
/// release). Sources are tried smallest-footprint first; each picks the
/// valid destination that ends up most densely packed.
///
/// Replica ids must be unique within `replicas`, as they are in the
/// rollout manager's groups (one load per replica). The plan tracks each
/// candidate by its position in `replicas`, so it costs O(|S|²) for |S|
/// candidates.
pub fn plan_repack(replicas: &[ReplicaLoad], c_max: f64, b: usize) -> RepackPlan {
    // Line 3: candidate set S, each with its position in `replicas`.
    let mut s: Vec<(usize, &ReplicaLoad)> = replicas
        .iter()
        .enumerate()
        .filter(|(_, r)| r.n_reqs > 0 && r.kv_used < c_max.min(r.kv_prev) && r.n_reqs < b)
        .collect();
    // Line 4: smallest KVCache footprint first. `total_cmp` (the same
    // policy the stats percentiles use) keeps the sort a total order even
    // on NaN input — NaN sorts after every finite footprint and can never
    // fit a destination, so a poisoned sample degrades to "ignored" instead
    // of panicking mid-plan.
    s.sort_by(|(_, a), (_, b)| {
        a.kv_used
            .total_cmp(&b.kv_used)
            .then(a.replica.cmp(&b.replica))
    });

    let mut plan = RepackPlan::default();
    // Per position in `replicas`: released by the plan, or designated as a
    // destination. Designated replicas stay destinations: they hold
    // consolidated load the plan's CanFit accounting depends on, so
    // releasing them later would both undercount and undo the packing.
    let mut emptied = vec![false; replicas.len()];
    let mut designated = vec![false; replicas.len()];
    // Extra load already assigned to each destination by the current plan.
    let mut assigned_kv = vec![0.0f64; replicas.len()];
    let mut assigned_reqs = vec![0usize; replicas.len()];

    for (si, &(src_at, src)) in s.iter().enumerate() {
        if emptied[src_at] || designated[src_at] {
            continue;
        }
        // Line 9: valid destinations — candidates not emptied, not the
        // source, with room for the source's load (CanFit).
        let mut best: Option<(usize, f64)> = None;
        for (di, &(dst_at, dst)) in s.iter().enumerate() {
            if di == si || emptied[dst_at] {
                continue;
            }
            // CanFit uses current usage (`C_used`), exactly as Algorithm 1:
            // a destination's trajectories are draining, so their headroom
            // materializes faster than the moved tail grows.
            let kv_load = dst.kv_used + assigned_kv[dst_at];
            let req_load = dst.n_reqs + assigned_reqs[dst_at];
            let fits = kv_load + src.kv_used <= c_max && req_load + src.n_reqs <= b;
            if !fits {
                continue;
            }
            // Line 11: argmax of the destination's packed density.
            if best.is_none_or(|(_, best_kv)| kv_load > best_kv) {
                best = Some((dst_at, kv_load));
            }
        }
        if let Some((dst_at, _)) = best {
            assigned_kv[dst_at] += src.kv_used;
            assigned_reqs[dst_at] += src.n_reqs;
            plan.moves.push((src.replica, replicas[dst_at].replica));
            emptied[src_at] = true;
            designated[dst_at] = true;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(replica: usize, kv_used: f64, n_reqs: usize) -> ReplicaLoad {
        ReplicaLoad {
            replica,
            kv_used,
            kv_reserved: kv_used,
            kv_prev: kv_used + 1.0,
            n_reqs,
            weight_version: 0,
        }
    }

    #[test]
    fn nan_kv_sample_does_not_panic_or_distort_plan() {
        // A poisoned (NaN) monitoring sample must neither panic the sort
        // (regression: `partial_cmp().expect()`) nor join any move — NaN
        // fails every CanFit comparison and `total_cmp` orders it last.
        let mut poisoned = load(2, f64::NAN, 2);
        poisoned.kv_prev = f64::NAN;
        let rs = vec![load(0, 100.0, 2), load(1, 120.0, 3), poisoned];
        let plan = plan_repack(&rs, 1000.0, 64);
        assert_eq!(plan.moves, vec![(0, 1)], "finite replicas still repack");
        assert!(
            !plan.moves.iter().any(|&(s, d)| s == 2 || d == 2),
            "NaN replica must not participate"
        );
        // All-NaN input: still a clean no-op.
        let mut poisoned_too = poisoned;
        poisoned_too.replica = 3;
        assert!(plan_repack(&[poisoned, poisoned_too], 1000.0, 64).is_empty());
    }

    #[test]
    fn consolidates_two_tails_into_one() {
        let rs = vec![load(0, 100.0, 2), load(1, 120.0, 3)];
        let plan = plan_repack(&rs, 1000.0, 64);
        assert_eq!(plan.moves, vec![(0, 1)]);
        assert_eq!(plan.released(), vec![0]);
    }

    #[test]
    fn smallest_footprint_released_first() {
        let rs = vec![load(0, 300.0, 4), load(1, 50.0, 1), load(2, 200.0, 2)];
        let plan = plan_repack(&rs, 520.0, 64);
        // 1 (smallest) moves first; densest valid destination preferred.
        assert_eq!(plan.moves[0].0, 1);
        assert!(!plan.moves.iter().any(|&(s, d)| s == d));
    }

    #[test]
    fn canfit_respects_kv_threshold() {
        let rs = vec![load(0, 600.0, 2), load(1, 600.0, 2)];
        // 600 + 600 > 1000: no move possible.
        let plan = plan_repack(&rs, 1000.0, 64);
        assert!(plan.is_empty());
    }

    #[test]
    fn canfit_respects_batch_bound() {
        let rs = vec![load(0, 10.0, 40), load(1, 10.0, 40)];
        let plan = plan_repack(&rs, 1000.0, 64);
        assert!(plan.is_empty(), "40+40 > B=64");
        let plan = plan_repack(&rs, 1000.0, 128);
        assert_eq!(plan.moves.len(), 1);
    }

    #[test]
    fn ramp_up_replicas_excluded() {
        // kv_prev <= kv_used means usage is non-decreasing: not ramp-down.
        let rs = vec![
            ReplicaLoad {
                replica: 0,
                kv_used: 100.0,
                kv_reserved: 100.0,
                kv_prev: 100.0,
                n_reqs: 2,
                weight_version: 0,
            },
            load(1, 100.0, 2),
        ];
        let plan = plan_repack(&rs, 1000.0, 64);
        assert!(plan.is_empty(), "needs two candidates to consolidate");
    }

    #[test]
    fn full_replicas_excluded() {
        let rs = vec![
            ReplicaLoad {
                replica: 0,
                kv_used: 990.0,
                kv_reserved: 990.0,
                kv_prev: 995.0,
                n_reqs: 2,
                weight_version: 0,
            },
            load(1, 50.0, 2),
            load(2, 60.0, 2),
        ];
        // Replica 0 is above C_max=900: not a candidate (neither source nor
        // destination).
        let plan = plan_repack(&rs, 900.0, 64);
        for &(s, d) in &plan.moves {
            assert_ne!(s, 0);
            assert_ne!(d, 0);
        }
        assert_eq!(plan.moves.len(), 1);
    }

    #[test]
    fn empty_replicas_not_sources() {
        let rs = vec![load(0, 0.0, 0), load(1, 100.0, 2), load(2, 100.0, 2)];
        let plan = plan_repack(&rs, 1000.0, 64);
        assert!(!plan.released().contains(&0));
    }

    #[test]
    fn chained_assignments_accumulate_on_destination() {
        // Three small sources should stack onto the same destination while
        // it fits, releasing the maximum number of replicas.
        let rs = vec![
            load(0, 50.0, 1),
            load(1, 60.0, 1),
            load(2, 70.0, 1),
            load(3, 200.0, 3),
        ];
        let plan = plan_repack(&rs, 400.0, 64);
        assert_eq!(plan.moves.len(), 3);
        let dests: Vec<usize> = plan.moves.iter().map(|&(_, d)| d).collect();
        assert!(
            dests.iter().all(|&d| d == 3),
            "densest destination wins: {dests:?}"
        );
    }

    #[test]
    fn released_source_cannot_become_destination() {
        let rs = vec![load(0, 50.0, 1), load(1, 60.0, 1)];
        let plan = plan_repack(&rs, 1000.0, 64);
        assert_eq!(plan.moves.len(), 1);
        let (s, d) = plan.moves[0];
        assert_ne!(s, d);
        // Only one move: the destination was not subsequently released.
    }

    #[test]
    fn empty_input_is_empty_plan() {
        assert!(plan_repack(&[], 100.0, 8).is_empty());
        assert!(plan_repack(&[load(0, 10.0, 1)], 100.0, 8).is_empty());
    }
}
