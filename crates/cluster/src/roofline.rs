//! Roofline performance model for LLM generation (§2.4, Figure 4).
//!
//! LLM decoding is memory-bound: each decode step must stream the full
//! weight shard plus every active sequence's KVCache through HBM, while the
//! matching compute is tiny. The consequences the paper builds on:
//!
//! 1. Step latency is nearly flat in batch size until the compute term
//!    overtakes the weight-read term — the *roofline batch bound* `B` used by
//!    the repack algorithm (Algorithm 1).
//! 2. Adding tensor parallelism gives only marginal latency reductions
//!    (Figure 4): it divides both the weight bytes and the compute, but adds
//!    per-layer collective overhead.
//! 3. KVCache capacity, not compute, bounds the decode batch — the basis of
//!    the idleness metric (Figure 9).

use crate::gpu::GpuSpec;
use crate::model::ModelSpec;
use laminar_sim::Duration;

/// Decode/prefill latency model for one rollout replica (a TP group).
#[derive(Debug, Clone)]
pub struct DecodeModel {
    /// Model being served.
    pub model: ModelSpec,
    /// Device type.
    pub gpu: GpuSpec,
    /// Tensor-parallel degree of the replica.
    pub tp: usize,
    /// Achievable fraction of peak FLOPs for decode GEMMs.
    pub mfu_decode: f64,
    /// Achievable fraction of peak FLOPs for prefill GEMMs.
    pub mfu_prefill: f64,
    /// Achievable fraction of peak HBM bandwidth.
    pub hbm_efficiency: f64,
    /// Fixed kernel-launch overhead per layer per step, seconds.
    pub layer_overhead: f64,
    /// Additional per-layer collective latency per TP doubling, seconds
    /// (two allreduces per transformer layer; latency-dominated at decode
    /// batch sizes).
    pub tp_overhead: f64,
    /// Fraction of GPU memory usable for KVCache after weights (the rest is
    /// activations, CUDA graphs, fragmentation slack).
    pub memory_utilization: f64,
}

impl DecodeModel {
    /// Standard calibration for a model on a device at a TP degree.
    pub fn new(model: ModelSpec, gpu: GpuSpec, tp: usize) -> Self {
        assert!(tp >= 1, "tp must be >= 1");
        DecodeModel {
            model,
            gpu,
            tp,
            mfu_decode: 0.5,
            mfu_prefill: 0.55,
            hbm_efficiency: 0.8,
            layer_overhead: 4e-6,
            tp_overhead: 20e-6,
            memory_utilization: 0.9,
        }
    }

    fn effective_hbm(&self) -> f64 {
        self.gpu.hbm_bandwidth * self.hbm_efficiency
    }

    /// Latency of one decode step, in seconds, for a batch of `batch`
    /// sequences whose context lengths sum to `ctx_tokens` tokens.
    ///
    /// `max(memory, compute) + overhead`: the memory term streams the weight
    /// shard and the batch's KVCache; the compute term is the dense forward
    /// FLOPs for `batch` tokens.
    pub fn step_secs(&self, batch: usize, ctx_tokens: f64) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let tp = self.tp as f64;
        let mem_bytes = self.model.weight_bytes() / tp
            + ctx_tokens.max(0.0) * self.model.kv_bytes_per_token() / tp;
        let mem_time = mem_bytes / self.effective_hbm();
        let compute_time = batch as f64 * self.model.fwd_flops_per_token()
            / (tp * self.gpu.bf16_flops * self.mfu_decode);
        let overhead = self.model.layers as f64
            * (self.layer_overhead + self.tp_overhead * (self.tp as f64).log2());
        mem_time.max(compute_time) + overhead
    }

    /// Tokens/second produced by the replica at the given operating point.
    pub fn decode_throughput(&self, batch: usize, ctx_tokens: f64) -> f64 {
        let s = self.step_secs(batch, ctx_tokens);
        if s <= 0.0 {
            0.0
        } else {
            batch as f64 / s
        }
    }

    /// The roofline batch bound `B`: the batch size at which decode compute
    /// time reaches the weight-read time, i.e. where decoding transitions
    /// from memory-bound to compute-bound and latency starts growing with
    /// batch (§5.2). Below `B`, consolidating more trajectories into the
    /// batch is (nearly) free.
    pub fn roofline_batch_limit(&self) -> usize {
        // weight_bytes/tp / HBM == B * 2*params / (tp * flops * mfu)
        // with weight_bytes = 2*params*BF16_BYTES/2 the model size cancels:
        // B = flops*mfu*weight_bytes / (HBM * 2*params).
        let b = self.gpu.bf16_flops * self.mfu_decode * self.model.weight_bytes()
            / (self.effective_hbm() * self.model.fwd_flops_per_token());
        (b.floor() as usize).max(1)
    }

    /// Total KVCache token capacity of the replica.
    pub fn kvcache_capacity_tokens(&self) -> u64 {
        let total = self.gpu.memory_bytes * self.tp as f64 * self.memory_utilization;
        let free = total - self.model.weight_bytes();
        if free <= 0.0 {
            return 0;
        }
        (free / self.model.kv_bytes_per_token()).floor() as u64
    }

    /// Latency of prefilling `prompt_tokens` tokens, in seconds
    /// (compute-bound).
    pub fn prefill_secs(&self, prompt_tokens: u64) -> f64 {
        if prompt_tokens == 0 {
            return 0.0;
        }
        let flops = prompt_tokens as f64 * self.model.fwd_flops_per_token();
        let compute = flops / (self.tp as f64 * self.gpu.bf16_flops * self.mfu_prefill);
        let overhead = self.model.layers as f64
            * (self.layer_overhead + self.tp_overhead * (self.tp as f64).log2());
        compute + overhead
    }

    /// [`Self::prefill_secs`] as a virtual duration.
    pub fn prefill_time(&self, prompt_tokens: u64) -> Duration {
        Duration::from_secs_f64(self.prefill_secs(prompt_tokens))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m7b_tp1() -> DecodeModel {
        DecodeModel::new(ModelSpec::qwen_7b(), GpuSpec::h800(), 1)
    }

    #[test]
    fn decode_is_flat_below_roofline_bound() {
        let m = m7b_tp1();
        let b = m.roofline_batch_limit();
        assert!(b >= 64, "roofline bound {b} unexpectedly small");
        // Same context total: latency at batch 8 vs batch 64 nearly equal
        // (Figure 4 / §2.4: "decoding a small batch has nearly the same
        // latency as a much larger one").
        let t8 = m.step_secs(8, 8.0 * 4096.0);
        let t64 = m.step_secs(64, 8.0 * 4096.0);
        assert!((t64 - t8).abs() / t8 < 0.05, "t8={t8} t64={t64}");
    }

    #[test]
    fn decode_grows_past_roofline_bound() {
        let m = m7b_tp1();
        let b = m.roofline_batch_limit();
        let t_at = m.step_secs(b, 0.0);
        let t_past = m.step_secs(b * 4, 0.0);
        assert!(
            t_past > t_at * 2.0,
            "compute-bound region must scale with batch"
        );
    }

    #[test]
    fn tp_gives_marginal_latency_reduction() {
        // Figure 4: allocating additional GPUs per rollout provides only
        // marginal latency reductions.
        let t1 =
            DecodeModel::new(ModelSpec::qwen_7b(), GpuSpec::h800(), 1).step_secs(64, 64.0 * 4096.0);
        let t4 =
            DecodeModel::new(ModelSpec::qwen_7b(), GpuSpec::h800(), 4).step_secs(64, 64.0 * 4096.0);
        assert!(t4 < t1, "TP must not slow decode down");
        assert!(
            t1 / t4 < 3.0,
            "4x GPUs must give sub-linear speedup, got {}",
            t1 / t4
        );
    }

    #[test]
    fn kvcache_capacity_is_realistic() {
        let m = m7b_tp1();
        let cap = m.kvcache_capacity_tokens();
        // 7B on one 80GB GPU holds on the order of a million KV tokens.
        assert!(cap > 500_000 && cap < 2_000_000, "cap={cap}");
    }

    #[test]
    fn kvcache_capacity_zero_when_model_does_not_fit() {
        let m = DecodeModel::new(ModelSpec::qwen_72b(), GpuSpec::h800(), 1);
        assert_eq!(m.kvcache_capacity_tokens(), 0);
    }

    #[test]
    fn prefill_scales_with_tokens() {
        let m = m7b_tp1();
        let t1k = m.prefill_secs(1024);
        let t2k = m.prefill_secs(2048);
        assert!(t2k > t1k * 1.5);
        assert_eq!(m.prefill_secs(0), 0.0);
    }

    #[test]
    fn empty_batch_is_free() {
        let m = m7b_tp1();
        assert_eq!(m.step_secs(0, 0.0), 0.0);
        assert_eq!(m.decode_throughput(0, 0.0), 0.0);
    }

    #[test]
    fn throughput_increases_with_batch_when_memory_bound() {
        let m = m7b_tp1();
        let th8 = m.decode_throughput(8, 8.0 * 2048.0);
        let th64 = m.decode_throughput(64, 64.0 * 2048.0);
        assert!(
            th64 > th8 * 3.0,
            "batching must raise throughput: {th8} vs {th64}"
        );
    }
}
