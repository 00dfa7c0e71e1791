//! The roofline costs of one replica, with their constant terms folded
//! when the engine is built.

use laminar_cluster::DecodeModel;
use laminar_sim::Duration;

/// [`DecodeModel`]'s decode-step and prefill costs with every term that
/// does not depend on the batch computed once per replica.
///
/// The engine evaluates a step cost at every event and a prefill cost at
/// every admission; the model's methods recompute the weight-shard bytes,
/// the achieved HBM and FLOP rates and the per-layer overhead (a `log2`
/// call among them) on each call. Each method here evaluates the same
/// float operations in the same order as the model's, so every result is
/// bit-identical to it, and the engine keeps these few words instead of a
/// model clone with its two heap-allocated names.
#[derive(Debug, Clone, Copy)]
pub(super) struct RooflineCosts {
    /// Tensor-parallel degree.
    tp: f64,
    /// Weight bytes of one TP shard.
    shard_weight_bytes: f64,
    /// KVCache bytes per context token, all shards.
    kv_bytes_per_token: f64,
    /// Achieved HBM bandwidth, bytes/s.
    hbm: f64,
    /// Forward FLOPs per token.
    flops_per_token: f64,
    /// Achieved decode FLOP rate of the TP group.
    decode_flops: f64,
    /// Achieved prefill FLOP rate of the TP group.
    prefill_flops: f64,
    /// Kernel-launch and TP collective overhead of one forward pass,
    /// seconds.
    overhead: f64,
    /// The roofline batch bound `B`.
    pub(super) batch_limit: usize,
}

impl RooflineCosts {
    pub(super) fn new(m: &DecodeModel) -> Self {
        let tp = m.tp as f64;
        RooflineCosts {
            tp,
            shard_weight_bytes: m.model.weight_bytes() / tp,
            kv_bytes_per_token: m.model.kv_bytes_per_token(),
            hbm: m.gpu.hbm_bandwidth * m.hbm_efficiency,
            flops_per_token: m.model.fwd_flops_per_token(),
            decode_flops: tp * m.gpu.bf16_flops * m.mfu_decode,
            prefill_flops: tp * m.gpu.bf16_flops * m.mfu_prefill,
            overhead: m.model.layers as f64 * (m.layer_overhead + m.tp_overhead * tp.log2()),
            batch_limit: m.roofline_batch_limit(),
        }
    }

    /// [`DecodeModel::step_secs`].
    pub(super) fn step_secs(&self, batch: usize, ctx_tokens: f64) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let mem_bytes =
            self.shard_weight_bytes + ctx_tokens.max(0.0) * self.kv_bytes_per_token / self.tp;
        let mem_time = mem_bytes / self.hbm;
        let compute_time = batch as f64 * self.flops_per_token / self.decode_flops;
        mem_time.max(compute_time) + self.overhead
    }

    /// [`DecodeModel::prefill_secs`].
    pub(super) fn prefill_secs(&self, prompt_tokens: u64) -> f64 {
        if prompt_tokens == 0 {
            return 0.0;
        }
        prompt_tokens as f64 * self.flops_per_token / self.prefill_flops + self.overhead
    }

    /// [`DecodeModel::prefill_time`].
    pub(super) fn prefill_time(&self, prompt_tokens: u64) -> Duration {
        Duration::from_secs_f64(self.prefill_secs(prompt_tokens))
    }
}
