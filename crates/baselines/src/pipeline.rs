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
//! recurrence over per-batch generation profiles obtained from standalone
//! replica runs — no event interleaving exists to simulate.

use crate::common::{
    generate_batch, generate_batch_traced, BatchGenStats, ConsumedTraj, RecordingTrace, RlSystem,
    RunReport, SpanKind, SystemConfig, TraceSink, TraceSpan,
};
use laminar_cluster::TrainModel;
use laminar_runtime::delta::{
    encode_report_plane, encode_span_plane, StateImage, StatePlane, WordEnc,
};
use laminar_runtime::recovery::Recoverable;
use laminar_sim::{Duration, Time, TimeSeries};

/// The one-step staleness pipeline baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct OneStepStaleness;

/// The stream-generation pipeline baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamGeneration;

impl RlSystem for OneStepStaleness {
    fn name(&self) -> &'static str {
        "one-step"
    }
    fn run_traced(&self, cfg: &SystemConfig, trace: &mut dyn TraceSink) -> RunReport {
        self.resume(self.start(cfg, trace.enabled()), trace)
    }
}

impl RlSystem for StreamGeneration {
    fn name(&self) -> &'static str {
        "stream-gen"
    }
    fn run_traced(&self, cfg: &SystemConfig, trace: &mut dyn TraceSink) -> RunReport {
        self.resume(self.start(cfg, trace.enabled()), trace)
    }
}

/// One pipeline run as explicit steppable state: each step advances the
/// timeline recurrence by one batch, so the recovery plane can snapshot it
/// at iteration boundaries by cloning this struct. Spans buffer internally
/// until the run finishes, so a resumed clone re-emits a byte-identical
/// trace.
#[derive(Clone)]
pub struct PipelineRun {
    cfg: SystemConfig,
    streaming: bool,
    replicas: usize,
    train: TrainModel,
    nccl: f64,
    /// Generation profiles per batch (identical workload across systems).
    /// Batch n runs under version max(n-1, 0); its engine spans are
    /// recorded on a batch-local clock and shifted onto the global
    /// timeline once the recurrence fixes the batch's start instant.
    profiles: Vec<BatchGenStats>,
    batch_spans: Vec<Vec<TraceSpan>>,
    mb_count: usize,
    mb_size: usize,
    report: RunReport,
    gen_series: TimeSeries,
    train_series: TimeSeries,
    gen_start: Vec<f64>,
    gen_end: Vec<f64>,
    train_end: Vec<f64>,
    n: usize,
    enabled: bool,
    spans: RecordingTrace,
}

impl PipelineRun {
    /// Pre-generates every batch profile and assembles the recurrence
    /// state; nothing on the global timeline has executed yet.
    fn new(cfg: &SystemConfig, streaming: bool, name: &str, record_trace: bool) -> Self {
        assert!(
            cfg.train_gpus > 0,
            "pipelines are disaggregated: set train_gpus > 0"
        );
        let replicas = cfg.replicas();
        let train = cfg.train_model();
        let nccl = cfg
            .collective()
            .nccl_broadcast_secs(&cfg.model, cfg.rollout_gpus);
        let mut ds = cfg.dataset();
        let total_iters = cfg.total_iterations();
        let mut profiles = Vec::with_capacity(total_iters);
        let mut batch_spans: Vec<Vec<TraceSpan>> = Vec::with_capacity(total_iters);
        for iter in 0..total_iters {
            let evolution = 1.0 + cfg.evolution_rate * iter as f64;
            let specs = cfg
                .workload
                .batch(&ds.next_batch(cfg.prompts_per_batch), evolution);
            if record_trace {
                let version = iter.saturating_sub(1) as u64;
                let mut local = RecordingTrace::new();
                profiles.push(generate_batch_traced(
                    cfg, &specs, replicas, version, &mut local,
                ));
                batch_spans.push(local.take());
            } else {
                profiles.push(generate_batch(cfg, &specs, replicas));
                batch_spans.push(Vec::new());
            }
        }
        PipelineRun {
            cfg: cfg.clone(),
            streaming,
            replicas,
            train,
            nccl,
            profiles,
            batch_spans,
            mb_count: cfg.minibatches.max(1),
            mb_size: cfg.global_batch().div_ceil(cfg.minibatches.max(1)),
            report: RunReport {
                system: name.into(),
                ..RunReport::default()
            },
            gen_series: TimeSeries::new(),
            train_series: TimeSeries::new(),
            gen_start: Vec::with_capacity(total_iters),
            gen_end: Vec::with_capacity(total_iters),
            train_end: Vec::with_capacity(total_iters),
            n: 0,
            enabled: record_trace,
            spans: RecordingTrace::new(),
        }
    }

    /// True once the recurrence has covered every batch.
    fn done(&self) -> bool {
        self.n >= self.cfg.total_iterations()
    }

    /// Virtual time consumed so far (train end of the last batch).
    fn clock_secs(&self) -> f64 {
        self.train_end.last().copied().unwrap_or(0.0)
    }

    fn rec(&mut self, span: TraceSpan) {
        if self.enabled {
            self.spans.record(span);
        }
    }

    /// Advances the timeline recurrence by one batch.
    fn step(&mut self) {
        let n = self.n;
        let cfg = self.cfg.clone();
        let nccl = self.nccl;
        let g = self.profiles[n].clone();
        let gsecs = g.duration.as_secs_f64();
        let start = if n == 0 {
            0.0
        } else {
            // Version n is ready at train_end[n-1]; rollouts must have
            // finished batch n-1 and then block for the global broadcast.
            let version_ready = if n >= 2 { self.train_end[n - 2] } else { 0.0 };
            self.gen_end[n - 1].max(version_ready) + nccl
        };
        self.gen_start.push(start);
        self.gen_end.push(start + gsecs);
        let offset = Duration::from_secs_f64(start);
        if self.enabled {
            let shifted = std::mem::take(&mut self.batch_spans[n])
                .into_iter()
                .map(|s| s.shifted_by(offset))
                .collect();
            self.spans.record_all(shifted);
        }
        if n > 0 {
            // Every rollout blocks on the global NCCL broadcast before
            // starting batch n.
            self.rec(TraceSpan::new(
                SpanKind::WeightSync,
                Time::from_secs_f64(start - nccl),
                Time::from_secs_f64(start),
                None,
                (n - 1) as u64,
            ));
        }
        self.gen_series
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
                let dur = self.train.minibatch_secs(tokens)
                    * (1.0
                        + self.train.experience_prep_frac
                            / (1.0 - self.train.experience_prep_frac));
                if ready > mb_end {
                    // Trainer idle, waiting for the mini-batch to exist.
                    self.rec(TraceSpan::new(
                        SpanKind::Stall,
                        Time::from_secs_f64(mb_end),
                        Time::from_secs_f64(ready),
                        None,
                        n as u64,
                    ));
                }
                let begin = mb_end.max(ready);
                self.rec(
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
                self.rec(TraceSpan::new(
                    SpanKind::Stall,
                    Time::from_secs_f64(prev_train_end),
                    Time::from_secs_f64(t_start),
                    None,
                    n as u64,
                ));
            }
            let t_end = t_start + self.train.iteration_secs(g.total_tokens, self.mb_count);
            self.rec(
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
        self.train_series.push(
            Time::from_secs_f64(end),
            g.total_tokens / (end - prev_train_end).max(1e-9),
        );

        if n >= cfg.warmup {
            self.report.iteration_secs.push(end - prev_train_end);
            self.report.iteration_tokens.push(g.total_tokens);
            // Batch n was generated with version max(n-1, 0) and consumed
            // while the actor sat at version n: one-step staleness (batch 0
            // is on-policy).
            let staleness = u64::from(n > 0);
            self.report.consumed.extend(std::iter::repeat_n(
                ConsumedTraj {
                    staleness,
                    mixed_version: false,
                },
                g.completion_tokens.len(),
            ));
            for off in &g.completion_offsets {
                self.report.staleness_by_finish.push((
                    off.as_secs_f64() / g.duration.as_secs_f64().max(1e-9),
                    staleness,
                ));
            }
            self.report.latencies.extend(g.latencies.iter().copied());
            self.report.mean_kv_utilization += g.mean_kv_utilization / cfg.iterations.max(1) as f64;
            // Every replica blocks for the full broadcast at each sync.
            for _ in 0..self.replicas {
                self.report.rollout_waits.push(nccl);
            }
        }
        self.n += 1;
    }

    /// Finalizes the report and forwards the buffered trace to `trace`.
    fn finish(mut self, trace: &mut dyn TraceSink) -> RunReport {
        // Generation-bound fraction: how much of the steady-state period
        // the trainer spent waiting on generation.
        let total_iters = self.cfg.total_iterations();
        let mut wait = 0.0;
        let mut span = 0.0;
        for n in self.cfg.warmup..total_iters {
            let prev = if n == 0 { 0.0 } else { self.train_end[n - 1] };
            let start_ready = self.gen_end[n].max(prev);
            wait += (start_ready - prev).max(0.0);
            span += self.train_end[n] - prev;
        }
        self.report.generation_fraction = if span > 0.0 { wait / span } else { 0.0 };
        self.report.gen_series = self.gen_series;
        self.report.train_series = self.train_series;
        trace.record_all(self.spans.take());
        self.report.finalize();
        self.report
    }
}

/// The barrier pipelines' safe pause points are batch boundaries, so a
/// run stops at the first one at or past `until`.
fn pipeline_advance(run: &mut PipelineRun, until: Time) -> bool {
    while !run.done() && run.clock_secs() < until.as_secs_f64() {
        run.step();
    }
    run.done()
}

/// Canonical state image of a pipeline run: the recurrence cursors and
/// per-batch timeline vectors (paged — append-only, so only the tail page
/// dirties per step), the buffered span stream, and the report.
fn pipeline_encode(run: &PipelineRun) -> StateImage {
    let mut img = StateImage::new();
    let mut e = WordEnc::new();
    e.z(run.n).b(run.streaming).b(run.enabled);
    for vec in [&run.gen_start, &run.gen_end, &run.train_end] {
        e.z(vec.len());
        for &x in vec {
            e.f(x);
        }
    }
    e.series(&run.gen_series).series(&run.train_series);
    let mut scalars = StatePlane::new("scalars");
    scalars.extend_paged(e.words());
    img.push_plane(scalars);
    img.push_plane(encode_span_plane("spans", run.spans.spans()));
    img.push_plane(encode_report_plane("report", &run.report));
    img
}

impl Recoverable for OneStepStaleness {
    type Snapshot = PipelineRun;

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
