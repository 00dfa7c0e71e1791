//! Disaggregated k=1 pipelines: one-step staleness and stream generation
//! (Figures 3(b) and 3(c)).
//!
//! Both place the trainer and the rollouts on disjoint GPU sets and overlap
//! generation of batch *n+1* with training of batch *n*. Before starting a
//! new batch, every rollout blocks on a global NCCL weight broadcast of the
//! freshest version — the global synchronization point whose cost and
//! straggler coupling the paper attacks. Stream generation differs only in
//! the trainer's consumption: mini-batch *j* of a batch starts as soon as
//! its trajectories (in completion order — short ones first) exist, hiding
//! part of the long tail behind training time.
//!
//! Since every dependency here is a barrier, the timeline is an exact
//! recurrence over batches, each generated on standalone replicas from the
//! instant the recurrence fixes for it — no event interleaving exists to
//! simulate.

use crate::barrier::Barrier;
use crate::common::{RunReport, SpanKind, SystemConfig, TraceSink, TraceSpan};
use laminar_runtime::delta::{StateImage, WordEnc};
use laminar_runtime::recovery::Recoverable;
use laminar_sim::Time;

/// The one-step staleness pipeline baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct OneStepStaleness;

/// The stream-generation pipeline baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamGeneration;

/// One pipeline run as explicit steppable state: each step advances the
/// timeline recurrence by one batch, so the recovery plane can snapshot it
/// at iteration boundaries by cloning this struct.
#[derive(Clone)]
pub struct PipelineRun {
    core: Barrier,
    streaming: bool,
    nccl: f64,
    mb_count: usize,
    mb_size: usize,
    gen_end: Vec<f64>,
    train_end: Vec<f64>,
}

impl PipelineRun {
    /// Assembles the recurrence state; nothing on the global timeline has
    /// executed yet.
    fn new(cfg: &SystemConfig, streaming: bool, name: &str, record_trace: bool) -> Self {
        assert!(
            cfg.train_gpus > 0,
            "pipelines are disaggregated: set train_gpus > 0"
        );
        let nccl = cfg
            .collective()
            .nccl_broadcast_secs(&cfg.model, cfg.rollout_gpus);
        let total_iters = cfg.total_iterations();
        PipelineRun {
            core: Barrier::new(cfg.clone(), cfg.train_model(), name, record_trace),
            streaming,
            nccl,
            mb_count: cfg.minibatches.max(1),
            mb_size: cfg.global_batch().div_ceil(cfg.minibatches.max(1)),
            gen_end: Vec::with_capacity(total_iters),
            train_end: Vec::with_capacity(total_iters),
        }
    }

    /// Virtual time consumed so far (train end of the last batch).
    fn clock_secs(&self) -> f64 {
        self.train_end.last().copied().unwrap_or(0.0)
    }

    /// Advances the timeline recurrence by one batch.
    fn step(&mut self) {
        let n = self.core.n;
        let nccl = self.nccl;
        let start = if n == 0 {
            0.0
        } else {
            // Version n is ready at train_end[n-1]; rollouts must have
            // finished batch n-1 and then block for the global broadcast.
            let version_ready = if n >= 2 { self.train_end[n - 2] } else { 0.0 };
            self.gen_end[n - 1].max(version_ready) + nccl
        };
        // Batch n runs under version max(n-1, 0).
        let g = self.core.generate(start, n.saturating_sub(1) as u64);
        let gsecs = g.duration.as_secs_f64();
        self.gen_end.push(start + gsecs);
        if n > 0 {
            // Every rollout blocks on the global NCCL broadcast before
            // starting batch n.
            self.core.rec(TraceSpan::new(
                SpanKind::WeightSync,
                Time::from_secs_f64(start - nccl),
                Time::from_secs_f64(start),
                None,
                (n - 1) as u64,
            ));
        }
        self.core
            .gen_series
            .push(Time::from_secs_f64(start), g.total_tokens / gsecs.max(1e-9));

        let prev_train_end = if n == 0 { 0.0 } else { self.train_end[n - 1] };
        let end = if self.streaming {
            // Mini-batch j trains once its trajectories completed.
            let mut mb_end = prev_train_end;
            let mut idx = 0usize;
            while idx < g.completion_tokens.len() {
                let hi = (idx + self.mb_size).min(g.completion_tokens.len());
                let ready = start + g.completion_tokens[hi - 1].0.as_secs_f64();
                let tokens: f64 = g.completion_tokens[idx..hi].iter().map(|&(_, t)| t).sum();
                let train = &self.core.train;
                let dur = train.minibatch_secs(tokens)
                    * (1.0 + train.experience_prep_frac / (1.0 - train.experience_prep_frac));
                if ready > mb_end {
                    // Trainer idle, waiting for the mini-batch to exist.
                    self.core.rec(TraceSpan::new(
                        SpanKind::Stall,
                        Time::from_secs_f64(mb_end),
                        Time::from_secs_f64(ready),
                        None,
                        n as u64,
                    ));
                }
                let begin = mb_end.max(ready);
                self.core.rec(
                    TraceSpan::new(
                        SpanKind::TrainStep,
                        Time::from_secs_f64(begin),
                        Time::from_secs_f64(begin + dur),
                        None,
                        n as u64,
                    )
                    .with_tokens(tokens as u64),
                );
                mb_end = begin + dur;
                idx = hi;
            }
            mb_end
        } else {
            let t_start = (start + gsecs).max(prev_train_end);
            if t_start > prev_train_end {
                self.core.rec(TraceSpan::new(
                    SpanKind::Stall,
                    Time::from_secs_f64(prev_train_end),
                    Time::from_secs_f64(t_start),
                    None,
                    n as u64,
                ));
            }
            let t_end = t_start
                + self
                    .core
                    .train
                    .iteration_secs(g.total_tokens, self.mb_count);
            self.core.rec(
                TraceSpan::new(
                    SpanKind::TrainStep,
                    Time::from_secs_f64(t_start),
                    Time::from_secs_f64(t_end),
                    None,
                    n as u64,
                )
                .with_tokens(g.total_tokens as u64),
            );
            t_end
        };
        self.train_end.push(end);
        self.core.train_series.push(
            Time::from_secs_f64(end),
            g.total_tokens / (end - prev_train_end).max(1e-9),
        );

        if n >= self.core.cfg.warmup {
            // Batch n was generated with version max(n-1, 0) and consumed
            // while the actor sat at version n: one-step staleness (batch 0
            // is on-policy).
            self.core.record(end - prev_train_end, &g, u64::from(n > 0));
            let iterations = self.core.cfg.iterations.max(1) as f64;
            let report = &mut self.core.report;
            report.mean_kv_utilization += g.mean_kv_utilization / iterations;
            // Every replica blocks for the full broadcast at each sync.
            for _ in 0..self.core.replicas {
                report.rollout_waits.push(nccl);
            }
        }
        self.core.n += 1;
    }

    /// Finalizes the report and forwards the buffered trace to `trace`.
    fn finish(mut self, trace: &mut dyn TraceSink) -> RunReport {
        // Generation-bound fraction: how much of the steady-state period
        // the trainer spent waiting on generation.
        let cfg = &self.core.cfg;
        let mut wait = 0.0;
        let mut span = 0.0;
        for n in cfg.warmup..cfg.total_iterations() {
            let prev = if n == 0 { 0.0 } else { self.train_end[n - 1] };
            let start_ready = self.gen_end[n].max(prev);
            wait += (start_ready - prev).max(0.0);
            span += self.train_end[n] - prev;
        }
        self.core.report.generation_fraction = if span > 0.0 { wait / span } else { 0.0 };
        self.core.finish(trace)
    }
}

/// The barrier pipelines' safe pause points are batch boundaries, so a
/// run stops at the first one at or past `until`.
fn pipeline_advance(run: &mut PipelineRun, until: Time) -> bool {
    while !run.core.done() && run.clock_secs() < until.as_secs_f64() {
        run.step();
    }
    run.core.done()
}

/// Canonical state image of a pipeline run: the recurrence cursors and
/// per-batch timeline vectors (paged — append-only, so only the tail page
/// dirties per step), the buffered span stream, and the report. The
/// dataset cursor is not encoded: every batch draws the same number of
/// prompts, so it is a function of the batch counter `n`, which is.
fn pipeline_encode(run: &PipelineRun) -> StateImage {
    let core = &run.core;
    let mut e = WordEnc::new();
    e.z(core.n).b(run.streaming).b(core.enabled);
    for vec in [&run.gen_end, &run.train_end] {
        e.z(vec.len());
        for &x in vec {
            e.f(x);
        }
    }
    e.series(&core.gen_series).series(&core.train_series);
    core.image(e.words())
}

impl Recoverable for OneStepStaleness {
    type Snapshot = PipelineRun;

    fn name(&self) -> &'static str {
        "one-step"
    }

    fn start(&self, cfg: &SystemConfig, record_trace: bool) -> PipelineRun {
        PipelineRun::new(cfg, false, self.name(), record_trace)
    }

    fn advance(run: &mut PipelineRun, until: Time) -> bool {
        pipeline_advance(run, until)
    }

    fn finish(run: PipelineRun, trace: &mut dyn TraceSink) -> RunReport {
        run.finish(trace)
    }

    fn encode_state(snapshot: &PipelineRun) -> StateImage {
        pipeline_encode(snapshot)
    }
}

impl Recoverable for StreamGeneration {
    type Snapshot = PipelineRun;

    fn name(&self) -> &'static str {
        "stream-gen"
    }

    fn start(&self, cfg: &SystemConfig, record_trace: bool) -> PipelineRun {
        PipelineRun::new(cfg, true, self.name(), record_trace)
    }

    fn advance(run: &mut PipelineRun, until: Time) -> bool {
        pipeline_advance(run, until)
    }

    fn finish(run: PipelineRun, trace: &mut dyn TraceSink) -> RunReport {
        run.finish(trace)
    }

    fn encode_state(snapshot: &PipelineRun) -> StateImage {
        pipeline_encode(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::RlSystem;
    use crate::verl::VerlSync;
    use laminar_workload::{Checkpoint, WorkloadGenerator};

    fn cfg(train: usize, rollout: usize) -> SystemConfig {
        let mut c = SystemConfig::small_test(WorkloadGenerator::single_turn(3, Checkpoint::Math7B));
        c.train_gpus = train;
        c.rollout_gpus = rollout;
        c
    }

    #[test]
    fn one_step_beats_verl_on_same_gpu_total() {
        // 8 colocated GPUs vs 4+4 disaggregated with overlap.
        let mut verl_cfg = cfg(0, 8);
        verl_cfg.train_gpus = 0;
        let verl = VerlSync.run(&verl_cfg);
        let pipe = OneStepStaleness.run(&cfg(4, 4));
        assert!(
            pipe.throughput > verl.throughput * 0.9,
            "pipeline must be competitive: verl={} one-step={}",
            verl.throughput,
            pipe.throughput
        );
        assert_eq!(pipe.max_staleness(), 1);
    }

    #[test]
    fn stream_gen_at_least_as_fast_as_one_step() {
        let one = OneStepStaleness.run(&cfg(4, 4));
        let stream = StreamGeneration.run(&cfg(4, 4));
        assert!(
            stream.throughput >= one.throughput * 0.95,
            "stream overlaps the tail: one={} stream={}",
            one.throughput,
            stream.throughput
        );
    }

    #[test]
    fn pipelines_record_rollout_waits() {
        let r = OneStepStaleness.run(&cfg(4, 4));
        assert!(!r.rollout_waits.is_empty());
        let nccl = r.rollout_waits[0];
        assert!(nccl > 0.1, "global sync costs real time: {nccl}");
        assert!(r.rollout_waits.iter().all(|&w| (w - nccl).abs() < 1e-9));
    }

    #[test]
    #[should_panic(expected = "disaggregated")]
    fn pipeline_rejects_colocated() {
        let _ = OneStepStaleness.run(&cfg(0, 8));
    }

    #[test]
    fn iteration_count_matches_config() {
        let r = StreamGeneration.run(&cfg(4, 4));
        assert_eq!(r.iteration_secs.len(), 2);
        assert_eq!(r.iteration_tokens.len(), 2);
        assert!(r.throughput > 0.0);
    }
}
