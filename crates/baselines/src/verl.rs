//! Synchronous colocated verl (Figure 3(a)).
//!
//! All GPUs time-share: reshard to the serving layout, generate the full
//! global batch, reshard back, train. Strictly on-policy (staleness 0), but
//! the generation stage runs to the *slowest* trajectory with the cluster
//! otherwise idle — the long-tail bubble the paper measures at up to 83.1%
//! of iteration time.

use crate::barrier::Barrier;
use crate::common::{generate_batch, RunReport, SpanKind, SystemConfig, TraceSink, TraceSpan};
use laminar_runtime::delta::{StateImage, WordEnc};
use laminar_runtime::recovery::Recoverable;
use laminar_sim::Time;

/// The synchronous colocated baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerlSync;

/// One verl run as explicit steppable state: each step executes a single
/// synchronous iteration, so the recovery plane can snapshot the run at
/// iteration boundaries by cloning this struct.
#[derive(Clone)]
pub struct VerlRun {
    core: Barrier,
    switch: f64,
    clock: f64,
    kv_sum: f64,
    gen_time_total: f64,
    iter_time_total: f64,
}

impl VerlRun {
    /// Assembles a run from the config (clamping KV memory for the
    /// colocated layout) without executing anything yet.
    fn new(cfg: &SystemConfig, record_trace: bool) -> Self {
        assert_eq!(cfg.train_gpus, 0, "verl is colocated: set train_gpus = 0");
        // Colocated serving shares GPU memory with resident training state.
        let mut cfg = cfg.clone();
        cfg.kv_memory_utilization = cfg.kv_memory_utilization.min(0.45);
        let train = cfg.train_model_on(cfg.rollout_gpus);
        let switch = cfg.reshard().switch_secs(&cfg.model);
        VerlRun {
            core: Barrier::new(cfg, train, "verl", record_trace),
            switch,
            clock: 0.0,
            kv_sum: 0.0,
            gen_time_total: 0.0,
            iter_time_total: 0.0,
        }
    }

    /// Executes one synchronous iteration: reshard → generate → reshard →
    /// train.
    fn step(&mut self) {
        let iter = self.core.n;
        let iter_start = self.clock;
        let version = iter as u64;
        let switch = self.switch;
        // Switch to generation layout, generate, switch back. The reshard
        // into the serving layout is when the freshly trained weights reach
        // the engines, so it traces as a weight sync.
        self.core.rec(TraceSpan::new(
            SpanKind::WeightSync,
            Time::from_secs_f64(self.clock),
            Time::from_secs_f64(self.clock + switch),
            None,
            version,
        ));
        self.clock += switch;
        let gen = self.core.generate(self.clock, version);
        let gen_secs = gen.duration.as_secs_f64();
        self.core.gen_series.push(
            Time::from_secs_f64(self.clock),
            gen.total_tokens / gen_secs.max(1e-9),
        );
        self.clock += gen_secs;
        self.core.rec(TraceSpan::new(
            SpanKind::WeightSync,
            Time::from_secs_f64(self.clock),
            Time::from_secs_f64(self.clock + switch),
            None,
            version,
        ));
        self.clock += switch;
        // Train the full batch on-policy.
        let train_secs = self
            .core
            .train
            .iteration_secs(gen.total_tokens, self.core.cfg.minibatches);
        self.core.rec(
            TraceSpan::new(
                SpanKind::TrainStep,
                Time::from_secs_f64(self.clock),
                Time::from_secs_f64(self.clock + train_secs),
                None,
                version,
            )
            .with_tokens(gen.total_tokens as u64),
        );
        self.core.train_series.push(
            Time::from_secs_f64(self.clock),
            gen.total_tokens / train_secs.max(1e-9),
        );
        self.clock += train_secs;
        if iter >= self.core.cfg.warmup {
            // Strictly on-policy: staleness 0, single version.
            self.core.record(self.clock - iter_start, &gen, 0);
            self.kv_sum += gen.mean_kv_utilization;
            self.gen_time_total += gen_secs + 2.0 * switch;
            self.iter_time_total += self.clock - iter_start;
        }
        self.core.n += 1;
    }

    /// Finalizes the report and forwards the buffered trace to `trace`.
    fn finish(mut self, trace: &mut dyn TraceSink) -> RunReport {
        let report = &mut self.core.report;
        report.mean_kv_utilization = self.kv_sum / self.core.cfg.iterations.max(1) as f64;
        report.generation_fraction = if self.iter_time_total > 0.0 {
            self.gen_time_total / self.iter_time_total
        } else {
            0.0
        };
        self.core.finish(trace)
    }
}

impl Recoverable for VerlSync {
    type Snapshot = VerlRun;

    fn name(&self) -> &'static str {
        "verl"
    }

    fn start(&self, cfg: &SystemConfig, record_trace: bool) -> VerlRun {
        VerlRun::new(cfg, record_trace)
    }

    /// verl's only safe pause points are between iterations, so it stops
    /// at the first iteration boundary at or past `until`.
    fn advance(run: &mut VerlRun, until: Time) -> bool {
        while !run.core.done() && run.clock < until.as_secs_f64() {
            run.step();
        }
        run.core.done()
    }

    fn finish(run: VerlRun, trace: &mut dyn TraceSink) -> RunReport {
        run.finish(trace)
    }

    fn encode_state(snapshot: &VerlRun) -> StateImage {
        let core = &snapshot.core;
        let mut e = WordEnc::new();
        e.z(core.n)
            .f(snapshot.clock)
            .f(snapshot.kv_sum)
            .f(snapshot.gen_time_total)
            .f(snapshot.iter_time_total)
            .b(core.enabled);
        let (next_prompt, next_traj) = core.cursor();
        e.u(next_prompt).u(next_traj);
        e.series(&core.gen_series).series(&core.train_series);
        core.image(e.words())
    }
}

/// Exposes the generation/training split of a synchronous iteration for the
/// Figure 1(b) breakdown experiment.
pub fn sync_breakdown(cfg: &SystemConfig) -> (f64, f64, f64) {
    let replicas = cfg.replicas();
    let train = cfg.train_model_on(cfg.rollout_gpus.max(cfg.train_gpus));
    let switch = cfg.reshard().switch_secs(&cfg.model);
    let specs = cfg.next_specs(&mut cfg.dataset(), 0);
    let gen = generate_batch(cfg, &specs, replicas);
    let gen_secs = gen.duration.as_secs_f64() + 2.0 * switch;
    let total_train = train.iteration_secs(gen.total_tokens, cfg.minibatches);
    let prep = total_train * train.experience_prep_frac;
    (gen_secs, total_train - prep, prep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::RlSystem;
    use laminar_workload::{Checkpoint, WorkloadGenerator};

    fn cfg() -> SystemConfig {
        let mut c = SystemConfig::small_test(WorkloadGenerator::single_turn(3, Checkpoint::Math7B));
        c.train_gpus = 0;
        c
    }

    #[test]
    fn verl_runs_and_reports() {
        let r = VerlSync.run(&cfg());
        assert_eq!(r.iteration_secs.len(), 2);
        assert!(r.throughput > 0.0);
        assert_eq!(r.max_staleness(), 0, "verl is strictly on-policy");
        assert_eq!(r.mixed_version_fraction(), 0.0);
        assert!(
            r.generation_fraction > 0.3,
            "generation dominates: {}",
            r.generation_fraction
        );
    }

    #[test]
    fn breakdown_sums_sensibly() {
        let (gen, train, prep) = sync_breakdown(&cfg());
        assert!(gen > 0.0 && train > 0.0 && prep > 0.0);
        assert!(prep < train, "prep is a small fraction");
        assert!(gen > train, "generation stage dominates in reasoning tasks");
    }

    #[test]
    #[should_panic(expected = "colocated")]
    fn verl_rejects_disaggregated_config() {
        let mut c = cfg();
        c.train_gpus = 8;
        let _ = VerlSync.run(&c);
    }
}
