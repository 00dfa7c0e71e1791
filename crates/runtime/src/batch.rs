//! Barrier-synchronized batch generation over standalone replicas.

use crate::config::SystemConfig;
use crate::trace::TraceSink;
use laminar_rollout::ReplicaEngine;
use laminar_sim::{Duration, Time};
use laminar_workload::TrajectorySpec;

/// Result of generating one global batch on a set of standalone replicas.
#[derive(Debug, Clone)]
pub struct BatchGenStats {
    /// Time from batch start until the last trajectory completes.
    pub duration: Duration,
    /// `(completion offset, prompt+response tokens)` per trajectory, sorted
    /// by offset — what a streaming trainer consumes in order.
    pub completion_tokens: Vec<(Duration, f64)>,
    /// Total prompt+response tokens in the batch.
    pub total_tokens: f64,
    /// Mean of per-replica time-weighted KVCache utilization.
    pub mean_kv_utilization: f64,
    /// Per-trajectory generation latencies (start→finish), seconds.
    pub latencies: Vec<f64>,
}

/// Runs one global batch to completion on `replicas` standalone replica
/// engines (round-robin assignment) — the generation stage of every
/// barrier-synchronized system, where replicas do not interact.
pub fn generate_batch(
    cfg: &SystemConfig,
    specs: &[TrajectorySpec],
    replicas: usize,
) -> BatchGenStats {
    generate_batch_traced(cfg, specs, replicas, 0, &mut crate::trace::NullTrace)
}

/// [`generate_batch`] for a batch that starts at virtual offset `start` on
/// the enclosing system's timeline. When `trace` is enabled, each engine
/// serves at weight `version`, and the prefill / decode-segment / env-call
/// spans it records on the batch-local clock are translated before
/// reaching `trace`. The barrier systems run each batch on a fresh clock,
/// so this is how their spans land on one global timeline.
pub fn generate_batch_at(
    cfg: &SystemConfig,
    specs: &[TrajectorySpec],
    replicas: usize,
    start: Duration,
    version: u64,
    trace: &mut dyn TraceSink,
) -> BatchGenStats {
    if !trace.enabled() {
        return generate_batch(cfg, specs, replicas);
    }
    let mut local = crate::trace::RecordingTrace::new();
    let stats = generate_batch_traced(cfg, specs, replicas, version, &mut local);
    trace.record_all(
        local
            .take()
            .into_iter()
            .map(|s| s.shifted_by(start))
            .collect(),
    );
    stats
}

/// [`generate_batch`] with per-phase span emission: each engine serves at
/// weight `version` and records prefill / decode-segment / env-call spans
/// into `trace` when the sink is enabled.
fn generate_batch_traced(
    cfg: &SystemConfig,
    specs: &[TrajectorySpec],
    replicas: usize,
    version: u64,
    trace: &mut dyn TraceSink,
) -> BatchGenStats {
    assert!(replicas >= 1, "need at least one replica");
    let mut engine_cfg = cfg.engine_config();
    engine_cfg.record_trace = trace.enabled();
    let mut engines: Vec<ReplicaEngine> = (0..replicas)
        .map(|i| {
            let mut e = ReplicaEngine::new(i, cfg.decode_model(), engine_cfg.clone());
            if version != 0 {
                e.set_weight_version(version, Time::ZERO);
            }
            e
        })
        .collect();
    // Round-robin assignment: engine `i` takes specs `i, i + replicas, …`.
    for (i, e) in engines.iter_mut().enumerate() {
        e.submit_all(specs.iter().skip(i).step_by(replicas).cloned(), Time::ZERO);
    }
    let mut completion_tokens: Vec<(Duration, f64)> = Vec::with_capacity(specs.len());
    let mut latencies = Vec::with_capacity(specs.len());
    let mut total_tokens = 0.0;
    let mut kv_sum = 0.0;
    let mut end = Time::ZERO;
    for e in &mut engines {
        let mut guard = 0u32;
        while let Some(t) = e.next_event_time() {
            e.advance_to(t);
            guard += 1;
            assert!(guard < 10_000_000, "standalone replica did not quiesce");
        }
        assert!(e.is_idle(), "replica left work unfinished");
        for c in e.take_completions() {
            let tokens = c.spec.total_tokens() as f64;
            completion_tokens.push((c.finished_at.since(Time::ZERO), tokens));
            latencies.push(c.finished_at.since(c.started_at).as_secs_f64());
            total_tokens += tokens;
            end = end.max(c.finished_at);
        }
        kv_sum += e.mean_kv_utilization();
        trace.record_all(e.take_trace_spans());
    }
    completion_tokens.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    BatchGenStats {
        duration: end.since(Time::ZERO),
        completion_tokens,
        total_tokens,
        mean_kv_utilization: kv_sum / replicas as f64,
        latencies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{RecordingTrace, SpanKind};
    use laminar_workload::{Checkpoint, WorkloadGenerator};

    fn small() -> SystemConfig {
        SystemConfig::small_test(WorkloadGenerator::single_turn(1, Checkpoint::Math7B))
    }

    #[test]
    fn generate_batch_accounts_every_trajectory() {
        let cfg = small();
        let mut ds = cfg.dataset();
        let batch = ds.next_batch(cfg.prompts_per_batch);
        let specs = cfg.workload.batch(&batch, 1.0);
        let stats = generate_batch(&cfg, &specs, cfg.replicas());
        assert_eq!(stats.completion_tokens.len(), 64);
        assert_eq!(stats.latencies.len(), 64);
        let expect: f64 = specs.iter().map(|s| s.total_tokens() as f64).sum();
        assert_eq!(stats.total_tokens, expect);
        assert!(stats.duration > Duration::ZERO);
        // Sorted by offset; the last equals the batch duration.
        assert_eq!(stats.completion_tokens.last().unwrap().0, stats.duration);
        assert!(stats.mean_kv_utilization > 0.0 && stats.mean_kv_utilization <= 1.0);
    }

    #[test]
    fn more_replicas_generate_faster() {
        let cfg = small();
        let mut ds = cfg.dataset();
        let specs = cfg
            .workload
            .batch(&ds.next_batch(cfg.prompts_per_batch), 1.0);
        let slow = generate_batch(&cfg, &specs, 2);
        let fast = generate_batch(&cfg, &specs, 8);
        assert!(fast.duration < slow.duration);
    }

    #[test]
    fn traced_batch_emits_prefill_and_decode_spans() {
        let cfg = small();
        let mut ds = cfg.dataset();
        let specs = cfg
            .workload
            .batch(&ds.next_batch(cfg.prompts_per_batch), 1.0);
        let mut trace = RecordingTrace::new();
        let traced = generate_batch_traced(&cfg, &specs, 4, 3, &mut trace);
        // Every trajectory prefills exactly once at its first admission.
        let prefills = trace.of_kind(SpanKind::Prefill);
        assert!(prefills.len() >= specs.len());
        assert!(!trace.of_kind(SpanKind::DecodeStep).is_empty());
        for s in trace.spans() {
            assert!(s.end >= s.start);
            assert!(s.replica.is_some(), "engine spans carry a replica id");
            assert_eq!(s.version, 3, "engine spans carry the serving version");
        }
        // Tracing must not perturb the simulation itself.
        let plain = generate_batch(&cfg, &specs, 4);
        assert_eq!(plain.duration, traced.duration);
        assert_eq!(plain.total_tokens, traced.total_tokens);
    }
}
