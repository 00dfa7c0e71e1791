//! Latency model of the relay synchronization path (§4.2, §8.3).
//!
//! Composes the cluster-level primitives into the three-step workflow of
//! Figure 6: actor → master relay push, master → relays chain broadcast,
//! relay → rollout PCIe pull. Used by the system simulations and by the
//! Figure 14 / Figure 18 experiments.

use laminar_cluster::{ChainBroadcast, CollectiveModel, MachineSpec, ModelSpec};
use laminar_sim::Duration;

/// Resharding cost on the master relay, seconds (CPU memory reshuffle into
/// the rollout TP layout; overlapped with broadcast in practice, charged to
/// the broadcast path).
const RESHARD_SECS: f64 = 0.25;

/// Relay-tier weight synchronization latency model.
#[derive(Debug, Clone)]
pub struct RelaySyncModel {
    /// Machine fabric.
    pub machine: MachineSpec,
    /// Model being synchronized.
    pub model: ModelSpec,
}

impl RelaySyncModel {
    /// Standard calibration.
    pub fn new(machine: MachineSpec, model: ModelSpec) -> Self {
        RelaySyncModel { machine, model }
    }

    /// Time the *actor* stalls per weight publication: one push to the
    /// master relay (§8.3 reports 0.64 s for 32B, 1.40 s for 72B).
    pub fn actor_stall(&self) -> Duration {
        CollectiveModel::new(self.machine.clone()).actor_push_time(&self.model)
    }

    /// Chain-pipelined broadcast time from the master to all other relays,
    /// for a relay tier spanning `relay_machines` machines (Appendix D,
    /// Figure 18).
    pub fn broadcast_time(&self, relay_machines: usize) -> Duration {
        let chain = ChainBroadcast::new(self.machine.rdma.clone());
        let t = chain.optimal_broadcast_secs(relay_machines.max(1), self.model.weight_bytes());
        Duration::from_secs_f64(t + RESHARD_SECS)
    }

    /// Rollout-side wait to update to the latest weights when the version is
    /// already resident on the colocated relay: a parallel PCIe shard load
    /// (Laminar's best case in Figure 14).
    pub fn pull_cached(&self, tp: usize) -> Duration {
        CollectiveModel::new(self.machine.clone()).relay_pull_time(&self.model, tp)
    }

    /// The baseline's rollout-side wait under NCCL global synchronization
    /// across `rollout_gpus` GPUs: every rollout blocks for the full global
    /// broadcast (Figure 14's comparison).
    pub fn nccl_global_wait(&self, rollout_gpus: usize) -> Duration {
        CollectiveModel::new(self.machine.clone()).nccl_broadcast_time(&self.model, rollout_gpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m32() -> RelaySyncModel {
        RelaySyncModel::new(MachineSpec::h800_server(), ModelSpec::qwen_32b())
    }

    #[test]
    fn actor_stall_seconds_scale() {
        let s32 = m32().actor_stall().as_secs_f64();
        let s72 = RelaySyncModel::new(MachineSpec::h800_server(), ModelSpec::qwen_72b())
            .actor_stall()
            .as_secs_f64();
        assert!(s32 < s72);
        assert!(s72 < 3.0, "actor stall stays in low seconds, got {s72}");
    }

    #[test]
    fn relay_pull_beats_global_sync_at_scale() {
        // Figure 14: Laminar's waiting time is below GPU-based global sync
        // at every scale, and the gap widens.
        let m = m32();
        for gpus in [64usize, 256, 1024] {
            let pull = m.pull_cached(4);
            let global = m.nccl_global_wait(gpus);
            assert!(pull < global, "gpus={gpus}");
        }
        let small = m.nccl_global_wait(64).as_secs_f64();
        let large = m.nccl_global_wait(1024).as_secs_f64();
        assert!(large > small);
    }

    #[test]
    fn broadcast_nearly_flat_in_machines() {
        let m = m32();
        let t8 = m.broadcast_time(8).as_secs_f64();
        let t128 = m.broadcast_time(128).as_secs_f64();
        assert!(t128 / t8 < 1.2, "t8={t8} t128={t128}");
    }
}
