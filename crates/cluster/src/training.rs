//! Actor training cost model.
//!
//! The trainer processes a global batch of trajectories as a sequence of
//! mini-batch gradient updates (§2.3): 16 mini-batch steps per RL iteration
//! in the paper's setting. The model weights of iteration `n` only exist
//! after the final mini-batch — the fact that forces buffering (or relays)
//! for asynchronous weight synchronization.

use crate::gpu::GpuSpec;
use crate::model::ModelSpec;

/// Trainer throughput model for a fixed GPU allocation.
#[derive(Debug, Clone)]
pub struct TrainModel {
    /// Model being trained.
    pub model: ModelSpec,
    /// Device type.
    pub gpu: GpuSpec,
    /// GPUs allocated to the trainer.
    pub train_gpus: usize,
    /// Achieved fraction of peak FLOPs during training steps.
    pub mfu: f64,
    /// Multiplicative overhead for gradient collectives/optimizer step.
    pub comm_overhead: f64,
    /// Experience preparation (reward/advantage computation, old-logprob
    /// forward passes) as a fraction of total iteration time — 7.3% in the
    /// paper (§2.2).
    pub experience_prep_frac: f64,
}

impl TrainModel {
    /// Standard calibration.
    pub fn new(model: ModelSpec, gpu: GpuSpec, train_gpus: usize) -> Self {
        assert!(train_gpus >= 1, "trainer needs at least one GPU");
        TrainModel {
            model,
            gpu,
            train_gpus,
            mfu: 0.38,
            comm_overhead: 0.08,
            experience_prep_frac: 0.073,
        }
    }

    /// Aggregate training FLOP/s of the allocation.
    pub fn cluster_flops(&self) -> f64 {
        self.train_gpus as f64 * self.gpu.bf16_flops * self.mfu
    }

    /// Seconds to run one mini-batch update over `tokens` trajectory tokens.
    pub fn minibatch_secs(&self, tokens: f64) -> f64 {
        let flops = tokens.max(0.0) * self.model.train_flops_per_token();
        flops / self.cluster_flops() * (1.0 + self.comm_overhead)
    }

    /// Seconds for a full training iteration over `batch_tokens` tokens in
    /// `minibatches` updates, including experience preparation.
    ///
    /// Experience prep overlaps poorly with training (§2.2), so it is an
    /// additive fraction of the gradient-step time.
    pub fn iteration_secs(&self, batch_tokens: f64, minibatches: usize) -> f64 {
        let grad = self.minibatch_secs(batch_tokens);
        let _ = minibatches; // splitting does not change total FLOPs
        grad * (1.0 + self.experience_prep_frac / (1.0 - self.experience_prep_frac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TrainModel {
        TrainModel::new(ModelSpec::qwen_7b(), GpuSpec::h800(), 8)
    }

    #[test]
    fn minibatch_time_is_linear_in_tokens() {
        let m = t();
        let a = m.minibatch_secs(1e6);
        let b = m.minibatch_secs(2e6);
        assert!((b - 2.0 * a).abs() < 1e-9);
    }

    #[test]
    fn more_gpus_train_faster() {
        let small = TrainModel::new(ModelSpec::qwen_7b(), GpuSpec::h800(), 8);
        let big = TrainModel::new(ModelSpec::qwen_7b(), GpuSpec::h800(), 64);
        assert!(big.minibatch_secs(1e7) < small.minibatch_secs(1e7) / 7.0);
    }

    #[test]
    fn iteration_includes_experience_prep() {
        let m = t();
        let grad = m.minibatch_secs(1e7);
        let iter = m.iteration_secs(1e7, 16);
        let frac = 1.0 - grad / iter;
        assert!((frac - 0.073).abs() < 0.005, "prep fraction {frac}");
    }

    #[test]
    fn realistic_iteration_scale() {
        // 8192 trajectories * ~7k tokens on 8 GPUs: minutes-scale, as in the
        // paper's 7B/16-GPU configuration.
        let m = t();
        let secs = m.iteration_secs(8192.0 * 7000.0, 16);
        assert!(secs > 300.0 && secs < 3600.0, "iteration {secs}s");
    }
}
