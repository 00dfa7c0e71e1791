//! The shared experiment configuration.

use laminar_cluster::{
    CollectiveModel, DecodeModel, GpuSpec, MachineSpec, ModelSpec, ReshardModel, TrainModel,
};
use laminar_rollout::EngineConfig;
use laminar_workload::{Dataset, TrajectorySpec, WorkloadGenerator};

/// Everything a system needs to run one experiment configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Model being trained/served.
    pub model: ModelSpec,
    /// Machine hardware.
    pub machine: MachineSpec,
    /// GPUs allocated to the trainer (ignored by colocated verl).
    pub train_gpus: usize,
    /// GPUs allocated to rollouts (for verl: all GPUs, time-shared).
    pub rollout_gpus: usize,
    /// Tensor-parallel degree per rollout replica.
    pub rollout_tp: usize,
    /// Maximum concurrent trajectories per replica.
    pub max_concurrency: usize,
    /// Prompts per global batch (512).
    pub prompts_per_batch: usize,
    /// Responses per prompt (16) — global batch = prompts × group.
    pub group_size: usize,
    /// Mini-batch updates per RL iteration (16).
    pub minibatches: usize,
    /// Response lengths evolve as the model learns (§2.3): the median
    /// length is scaled by `1 + evolution_rate × batch index`. The default
    /// 0.002 is a mild drift; the evolution ablation raises it.
    pub evolution_rate: f64,
    /// Fraction of GPU memory the serving engine may use for weights +
    /// KVCache. Disaggregated systems get the full 0.9; colocated verl
    /// keeps training state resident and serves with ~0.45 (the HybridEngine
    /// memory pressure of §2.4).
    pub kv_memory_utilization: f64,
    /// Workload generator (identical across systems for a given seed).
    pub workload: WorkloadGenerator,
    /// Measured RL iterations (after warmup).
    pub iterations: usize,
    /// Warmup RL iterations excluded from the throughput metric.
    pub warmup: usize,
    /// Root seed.
    pub seed: u64,
}

impl SystemConfig {
    /// A paper-shaped configuration on H800 hardware. `train_gpus = 0` is
    /// allowed only for colocated verl.
    pub fn new(
        model: ModelSpec,
        train_gpus: usize,
        rollout_gpus: usize,
        rollout_tp: usize,
        workload: WorkloadGenerator,
    ) -> Self {
        assert!(rollout_gpus >= rollout_tp && rollout_gpus.is_multiple_of(rollout_tp));
        SystemConfig {
            model,
            machine: MachineSpec::h800_server(),
            train_gpus,
            rollout_gpus,
            rollout_tp,
            max_concurrency: 1024,
            prompts_per_batch: 512,
            group_size: 16,
            minibatches: 16,
            evolution_rate: 0.002,
            kv_memory_utilization: 0.9,
            workload,
            iterations: 4,
            warmup: 2,
            seed: 0,
        }
    }

    /// A heavily shrunk configuration for fast tests: small batch, short
    /// runs.
    pub fn small_test(workload: WorkloadGenerator) -> Self {
        let mut cfg = SystemConfig::new(ModelSpec::qwen_7b(), 8, 8, 1, workload);
        cfg.prompts_per_batch = 16;
        cfg.group_size = 4;
        cfg.minibatches = 4;
        cfg.iterations = 2;
        cfg.warmup = 1;
        cfg
    }

    /// Total GPUs of the configuration (`train_gpus == 0` means colocated:
    /// training time-shares the rollout GPUs).
    pub fn total_gpus(&self) -> usize {
        if self.train_gpus == 0 {
            self.rollout_gpus
        } else {
            self.train_gpus + self.rollout_gpus
        }
    }

    /// Rollout replica count.
    pub fn replicas(&self) -> usize {
        self.rollout_gpus / self.rollout_tp
    }

    /// Trajectories per global batch.
    pub fn global_batch(&self) -> usize {
        self.prompts_per_batch * self.group_size
    }

    /// GPU type in use.
    pub fn gpu(&self) -> GpuSpec {
        self.machine.gpu.clone()
    }

    /// Decode model for one replica.
    pub fn decode_model(&self) -> DecodeModel {
        let mut m = DecodeModel::new(self.model.clone(), self.gpu(), self.rollout_tp);
        m.memory_utilization = self.kv_memory_utilization;
        m
    }

    /// Training model. For colocated verl pass the full GPU count
    /// explicitly via `train_model_on`.
    pub fn train_model(&self) -> TrainModel {
        TrainModel::new(self.model.clone(), self.gpu(), self.train_gpus.max(1))
    }

    /// Training model over an explicit GPU count (colocated mode).
    pub fn train_model_on(&self, gpus: usize) -> TrainModel {
        TrainModel::new(self.model.clone(), self.gpu(), gpus.max(1))
    }

    /// NCCL / relay transfer models.
    pub fn collective(&self) -> CollectiveModel {
        CollectiveModel::new(self.machine.clone())
    }

    /// HybridEngine reshard model.
    pub fn reshard(&self) -> ReshardModel {
        ReshardModel::new(self.machine.clone())
    }

    /// Engine configuration per replica.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            max_concurrency: self.max_concurrency,
            ..EngineConfig::default()
        }
    }

    /// A fresh dataset for this configuration.
    pub fn dataset(&self) -> Dataset {
        Dataset::new(17_000, self.group_size)
    }

    /// Total iterations simulated (warmup + measured).
    pub fn total_iterations(&self) -> usize {
        self.warmup + self.iterations
    }

    /// Draws the next global batch of prompts from `ds` and expands it into
    /// trajectory specs, the median length drifted for batch `index`
    /// (`1 + evolution_rate × index`). Every system draws its batches here.
    pub fn next_specs(&self, ds: &mut Dataset, index: u64) -> Vec<TrajectorySpec> {
        let evolution = 1.0 + self.evolution_rate * index as f64;
        self.workload
            .batch(&ds.next_batch(self.prompts_per_batch), evolution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_workload::Checkpoint;

    #[test]
    fn config_shape() {
        let cfg = SystemConfig::small_test(WorkloadGenerator::single_turn(1, Checkpoint::Math7B));
        assert_eq!(cfg.global_batch(), 64);
        assert_eq!(cfg.replicas(), 8);
        assert_eq!(cfg.total_iterations(), 3);
    }
}
