//! Weight-synchronization cost models for the baseline systems.
//!
//! The baselines use GPU-direct NCCL broadcast at a global synchronization
//! point (§2.3, §8.3): every rollout blocks until the transfer completes,
//! and the coordination cost grows with participant count. Colocated verl
//! additionally pays a HybridEngine reshard every time the GPUs flip between
//! training and generation.

use crate::gpu::MachineSpec;
use crate::model::ModelSpec;
use laminar_sim::Duration;

/// NCCL-style global broadcast model.
#[derive(Debug, Clone)]
pub struct CollectiveModel {
    /// Machine fabric parameters.
    pub machine: MachineSpec,
    /// Fixed group coordination cost per participant doubling, seconds.
    /// Covers rendezvous, communicator (re)build, and kernel scheduling
    /// contention with compute streams (§2.4 challenge 1).
    pub coord_per_doubling: f64,
    /// Base coordination cost, seconds.
    pub coord_base: f64,
}

impl CollectiveModel {
    /// Standard calibration for the H800 fabric.
    pub fn new(machine: MachineSpec) -> Self {
        CollectiveModel {
            machine,
            coord_per_doubling: 0.35,
            coord_base: 0.4,
        }
    }

    /// Seconds for a global NCCL weight broadcast of `model` from the actor
    /// group to `rollout_gpus` rollout GPUs. Both sides block for the full
    /// duration.
    ///
    /// The transfer moves each weight shard once over the inter-machine
    /// fabric; the coordination term grows logarithmically with the
    /// participant count, which is what makes global sync increasingly
    /// expensive at scale (Figure 14).
    pub fn nccl_broadcast_secs(&self, model: &ModelSpec, rollout_gpus: usize) -> f64 {
        let participants = (rollout_gpus.max(1)) as f64;
        let coord = self.coord_base + self.coord_per_doubling * participants.log2().max(0.0);
        let transfer = model.weight_bytes() / self.machine.rdma.bandwidth;
        coord + transfer
    }

    /// [`Self::nccl_broadcast_secs`] as a duration.
    pub fn nccl_broadcast_time(&self, model: &ModelSpec, rollout_gpus: usize) -> Duration {
        Duration::from_secs_f64(self.nccl_broadcast_secs(model, rollout_gpus))
    }

    /// Seconds for a rollout replica (TP group) to load its weight shards
    /// from its colocated relay worker over PCIe, all GPUs in parallel.
    /// This is Laminar's best-case pull path (§8.3).
    pub fn relay_pull_secs(&self, model: &ModelSpec, tp: usize) -> f64 {
        let shard = model.weight_bytes() / tp.max(1) as f64;
        self.machine.pcie.transfer_secs(shard)
    }

    /// [`Self::relay_pull_secs`] as a duration.
    pub fn relay_pull_time(&self, model: &ModelSpec, tp: usize) -> Duration {
        Duration::from_secs_f64(self.relay_pull_secs(model, tp))
    }

    /// Seconds for the actor to push its updated weights to the master relay
    /// (the only communication on the actor's critical path in Laminar;
    /// 0.64 s for 32B and 1.40 s for 72B in §8.3).
    pub fn actor_push_secs(&self, model: &ModelSpec) -> f64 {
        // Each actor GPU DMA-copies its shard to pinned host memory over
        // PCIe and the master relay assembles; the shards move in parallel,
        // so the wall time is one full-model transit of the aggregate
        // host-link bandwidth of one machine.
        let agg = self.machine.pcie.bandwidth * self.machine.gpus as f64 * 0.5;
        self.machine.pcie.startup + model.weight_bytes() / agg
    }

    /// [`Self::actor_push_secs`] as a duration.
    pub fn actor_push_time(&self, model: &ModelSpec) -> Duration {
        Duration::from_secs_f64(self.actor_push_secs(model))
    }
}

/// HybridEngine context-switch model for colocated synchronous verl.
#[derive(Debug, Clone)]
pub struct ReshardModel {
    /// Machine fabric parameters.
    pub machine: MachineSpec,
    /// Fixed engine wake/sleep cost per switch, seconds (KVCache release and
    /// re-init, CUDA graph capture).
    pub fixed: f64,
}

impl ReshardModel {
    /// Standard calibration.
    pub fn new(machine: MachineSpec) -> Self {
        ReshardModel {
            machine,
            fixed: 2.0,
        }
    }

    /// Seconds to flip colocated GPUs between training and generation
    /// layouts (all-gather the weights into the serving sharding).
    pub fn switch_secs(&self, model: &ModelSpec) -> f64 {
        self.fixed + model.weight_bytes() / self.machine.nvlink.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::MachineSpec;

    fn coll() -> CollectiveModel {
        CollectiveModel::new(MachineSpec::h800_server())
    }

    #[test]
    fn nccl_grows_with_scale() {
        let c = coll();
        let m = ModelSpec::qwen_32b();
        let t64 = c.nccl_broadcast_secs(&m, 64);
        let t1024 = c.nccl_broadcast_secs(&m, 1024);
        assert!(t1024 > t64, "global sync must get worse at scale");
    }

    #[test]
    fn relay_pull_is_much_cheaper_than_nccl() {
        let c = coll();
        let m = ModelSpec::qwen_32b();
        let pull = c.relay_pull_secs(&m, 4);
        let nccl = c.nccl_broadcast_secs(&m, 512);
        assert!(pull < nccl * 0.5, "pull={pull} nccl={nccl}");
    }

    #[test]
    fn actor_push_matches_paper_scale() {
        let c = coll();
        // §8.3: actor stalls 0.64s (32B) and 1.40s (72B).
        let t32 = c.actor_push_secs(&ModelSpec::qwen_32b());
        let t72 = c.actor_push_secs(&ModelSpec::qwen_72b());
        assert!(t32 > 0.2 && t32 < 1.2, "32B push {t32}s");
        assert!(t72 > 0.5 && t72 < 2.5, "72B push {t72}s");
        assert!(t72 > t32);
    }

    #[test]
    fn reshard_costs_seconds() {
        let r = ReshardModel::new(MachineSpec::h800_server());
        let t = r.switch_secs(&ModelSpec::qwen_32b());
        assert!(t > 2.0 && t < 10.0, "switch {t}s");
    }
}
