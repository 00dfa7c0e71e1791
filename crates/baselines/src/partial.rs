//! AReaL-style partial rollout (Figure 3(d)).
//!
//! Rollouts generate continuously into an experience buffer with no batch
//! barrier; the trainer samples a global batch whenever enough trajectories
//! exist (staleness unbounded, per the paper's AReaL configuration). Each
//! time the trainer publishes new weights, *every* rollout interrupts its
//! in-flight trajectories, rebuilds their KVCache under the new version
//! (the re-prefill overhead), and continues — so long trajectories mix
//! several policy versions.
//!
//! Unlike the barrier pipelines this system has genuine event interleaving
//! (interrupts land mid-generation), so it runs on the discrete-event
//! engine.

use crate::common::{consumed_at, RunReport, SpanKind, SystemConfig, TraceSink, TraceSpan};
use laminar_cluster::TrainModel;
use laminar_rollout::{CompletedTraj, ReplicaEngine};
use laminar_runtime::delta::{
    encode_engine_spans_plane, encode_engines_plane, encode_queue_plane, encode_report_plane,
    StateImage, StatePlane, WordEnc,
};
use laminar_runtime::recovery::Recoverable;
use laminar_sim::{Duration, Scheduler, SimWorld, Simulation, Time};
use laminar_workload::{Dataset, TrajectorySpec};
use std::collections::VecDeque;

/// The partial-rollout baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialRollout;

#[derive(Debug, Clone)]
enum Ev {
    ReplicaWake { r: usize, epoch: u64 },
    TrainerCheck,
    TrainerDone { tokens: f64 },
    Interrupt { version: u64 },
}

#[derive(Clone)]
struct World {
    cfg: SystemConfig,
    engines: Vec<ReplicaEngine>,
    buffer: VecDeque<CompletedTraj>,
    specs: VecDeque<TrajectorySpec>,
    dataset: Dataset,
    batches_issued: u64,
    train: TrainModel,
    nccl_secs: f64,
    version: u64,
    trainer_busy: bool,
    iterations_done: usize,
    last_train_done: Time,
    report: RunReport,
    gen_tokens_prev: f64,
    gen_sample_prev: Time,
    record_trace: bool,
    trace_spans: Vec<TraceSpan>,
    trainer_started: Time,
    /// Completion records swapped out of an engine by `drain`; kept for
    /// its capacity, empty between events, so it is not part of the state
    /// image.
    delivered: Vec<CompletedTraj>,
}

impl World {
    fn refill_specs(&mut self) {
        while self.specs.len() < 2 * self.cfg.global_batch() {
            self.specs
                .extend(self.cfg.next_specs(&mut self.dataset, self.batches_issued));
            self.batches_issued += 1;
        }
    }

    /// Fills replica `r` up to the concurrency cap in one submission. Every
    /// caller has advanced the engine to `now`, so the room counted here is
    /// what one submit per spec would have filled.
    fn top_up(&mut self, r: usize, now: Time) {
        self.refill_specs();
        let room = self
            .cfg
            .max_concurrency
            .saturating_sub(self.engines[r].n_reqs())
            .min(self.specs.len());
        self.engines[r].submit_all(self.specs.drain(..room), now);
    }

    /// Moves replica `r`'s completions into the buffer; returns whether
    /// there were any.
    fn drain(&mut self, r: usize) -> bool {
        self.engines[r].swap_completions(&mut self.delivered);
        let delivered = !self.delivered.is_empty();
        for c in self.delivered.drain(..) {
            self.report
                .latencies
                .push(c.finished_at.since(c.started_at).as_secs_f64());
            self.buffer.push_back(c);
        }
        delivered
    }

    /// Whether a [`Ev::TrainerCheck`] delivered now would start an update:
    /// the trainer is idle, a global batch is buffered, and the run is not
    /// done. The check's guard.
    fn trainer_can_start(&self) -> bool {
        !self.trainer_busy && self.buffer.len() >= self.cfg.global_batch() && !self.done()
    }

    fn wake(&mut self, r: usize, sched: &mut Scheduler<Ev>) {
        if let Some(t) = self.engines[r].next_event_time() {
            sched.at(
                t,
                Ev::ReplicaWake {
                    r,
                    epoch: self.engines[r].epoch(),
                },
            );
        }
    }

    fn sample_gen_throughput(&mut self, now: Time) {
        let total: f64 = self.engines.iter().map(|e| e.tokens_decoded()).sum();
        let dt = now.since(self.gen_sample_prev).as_secs_f64();
        if dt > 1e-9 {
            self.report
                .gen_series
                .push(now, (total - self.gen_tokens_prev) / dt);
        }
        self.gen_tokens_prev = total;
        self.gen_sample_prev = now;
    }

    fn done(&self) -> bool {
        self.iterations_done >= self.cfg.total_iterations()
    }
}

impl SimWorld for World {
    type Event = Ev;

    fn handle(&mut self, now: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
        if self.done() {
            return;
        }
        match ev {
            Ev::ReplicaWake { r, epoch } => {
                if epoch < self.engines[r].epoch() {
                    return; // superseded by a mutation since scheduling
                }
                self.engines[r].advance_to(now);
                // A check scheduled here is delivered after the events
                // already due at `now` and before those scheduled below,
                // which change nothing its guard reads: with no other event
                // due, it is worth scheduling only if it starts an update.
                if self.drain(r)
                    && (sched.next_event_time() == Some(now) || self.trainer_can_start())
                {
                    sched.immediately(Ev::TrainerCheck);
                }
                self.top_up(r, now);
                self.wake(r, sched);
            }
            Ev::TrainerCheck => {
                if !self.trainer_can_start() {
                    return;
                }
                let mut tokens = 0.0;
                for _ in 0..self.cfg.global_batch() {
                    let c = self.buffer.pop_front().expect("length checked");
                    tokens += c.spec.total_tokens() as f64;
                    if self.iterations_done >= self.cfg.warmup {
                        self.report.consumed.push(consumed_at(&c, self.version));
                    }
                }
                self.trainer_busy = true;
                self.trainer_started = now;
                let dur = self.train.iteration_secs(tokens, self.cfg.minibatches);
                sched.after(Duration::from_secs_f64(dur), Ev::TrainerDone { tokens });
            }
            Ev::TrainerDone { tokens } => {
                if self.record_trace {
                    self.trace_spans.push(
                        TraceSpan::new(
                            SpanKind::TrainStep,
                            self.trainer_started,
                            now,
                            None,
                            self.version,
                        )
                        .with_tokens(tokens as u64),
                    );
                }
                self.version += 1;
                self.trainer_busy = false;
                if self.iterations_done >= self.cfg.warmup {
                    self.report
                        .iteration_secs
                        .push(now.since(self.last_train_done).as_secs_f64());
                    self.report.iteration_tokens.push(tokens);
                    self.report.train_series.push(
                        now,
                        tokens / now.since(self.last_train_done).as_secs_f64().max(1e-9),
                    );
                    // Every replica blocks on the global broadcast when the
                    // interrupt lands.
                    for _ in 0..self.engines.len() {
                        self.report.rollout_waits.push(self.nccl_secs);
                    }
                }
                self.last_train_done = now;
                self.iterations_done += 1;
                self.sample_gen_throughput(now);
                if !self.done() {
                    sched.immediately(Ev::Interrupt {
                        version: self.version,
                    });
                    sched.immediately(Ev::TrainerCheck);
                }
            }
            Ev::Interrupt { version } => {
                // Every replica blocks for the GPU-direct broadcast, then
                // rebuilds the KVCache of all in-flight trajectories —
                // the pause-and-sync cycle of §2.3.
                let sync_end = now + Duration::from_secs_f64(self.nccl_secs);
                for r in 0..self.engines.len() {
                    self.engines[r].advance_to(now);
                    self.engines[r].stall_prefill_queue(sync_end);
                    self.engines[r].interrupt_with_weights(version, now);
                    if self.record_trace {
                        self.trace_spans.push(TraceSpan::new(
                            SpanKind::WeightSync,
                            now,
                            sync_end,
                            Some(r),
                            version,
                        ));
                    }
                }
                // A check is delivered after every replica is drained, so
                // its guard can pass where it fails at its own replica's
                // drain: these checks stay unconditional.
                for r in 0..self.engines.len() {
                    if self.drain(r) {
                        sched.immediately(Ev::TrainerCheck);
                    }
                    self.wake(r, sched);
                }
            }
        }
    }
}

/// Assembles the partial-rollout world and seeds the event queue, stopping
/// just before the first event fires.
fn build_partial(cfg: &SystemConfig, record_trace: bool) -> Simulation<World> {
    assert!(
        cfg.train_gpus > 0,
        "partial rollout is disaggregated: set train_gpus > 0"
    );
    let replicas = cfg.replicas();
    let mut engine_cfg = cfg.engine_config();
    engine_cfg.record_trace = record_trace;
    let engines: Vec<ReplicaEngine> = (0..replicas)
        .map(|i| ReplicaEngine::new(i, cfg.decode_model(), engine_cfg.clone()))
        .collect();
    let world = World {
        cfg: cfg.clone(),
        engines,
        buffer: VecDeque::new(),
        specs: VecDeque::new(),
        dataset: cfg.dataset(),
        batches_issued: 0,
        train: {
            // AReaL only supports Megatron-LM training (§8 baselines):
            // lower achieved MFU than the FSDP stack, worsening with the
            // pipeline-parallel depth of Appendix A.2 (PP=1/2/4 for
            // 7B/32B/72B).
            let mut t = cfg.train_model();
            t.mfu = if cfg.model.params < 10e9 {
                0.30
            } else if cfg.model.params < 50e9 {
                0.27
            } else {
                0.24
            };
            t
        },
        nccl_secs: cfg
            .collective()
            .nccl_broadcast_secs(&cfg.model, cfg.rollout_gpus),
        version: 0,
        trainer_busy: false,
        iterations_done: 0,
        last_train_done: Time::ZERO,
        report: RunReport {
            system: "partial-rollout".into(),
            ..RunReport::default()
        },
        gen_tokens_prev: 0.0,
        gen_sample_prev: Time::ZERO,
        record_trace,
        trace_spans: Vec::new(),
        trainer_started: Time::ZERO,
        delivered: Vec::new(),
    };
    let mut sim = Simulation::new(world);
    for r in 0..replicas {
        sim.world.top_up(r, Time::ZERO);
        let epoch = sim.world.engines[r].epoch();
        if let Some(t) = sim.world.engines[r].next_event_time() {
            sim.scheduler.at(t, Ev::ReplicaWake { r, epoch });
        }
    }
    sim.scheduler.immediately(Ev::TrainerCheck);
    sim
}

/// The complete simulation state of a partial-rollout run. Cloned between
/// events at a cadence boundary, it is a deterministic checkpoint.
#[derive(Clone)]
pub struct PartialSnapshot {
    sim: Simulation<World>,
}

impl Recoverable for PartialRollout {
    type Snapshot = PartialSnapshot;

    fn name(&self) -> &'static str {
        "partial-rollout"
    }

    fn start(&self, cfg: &SystemConfig, record_trace: bool) -> PartialSnapshot {
        PartialSnapshot {
            sim: build_partial(cfg, record_trace),
        }
    }

    fn advance(run: &mut PartialSnapshot, until: Time) -> bool {
        let sim = &mut run.sim;
        let finished = sim.run_while_until(|w| !w.done(), until, 2_000_000_000);
        assert!(
            finished || sim.scheduler.next_event_time().is_some(),
            "partial-rollout run stalled before completing its iterations"
        );
        finished
    }

    fn finish(run: PartialSnapshot, trace: &mut dyn TraceSink) -> RunReport {
        let mut w = run.sim.world;
        trace.record_all(std::mem::take(&mut w.trace_spans));
        for e in &mut w.engines {
            trace.record_all(e.take_trace_spans());
        }
        let replicas = w.engines.len().max(1);
        let mut report = w.report;
        report.mean_kv_utilization = w
            .engines
            .iter()
            .map(|e| e.mean_kv_utilization())
            .sum::<f64>()
            / replicas as f64;
        report.finalize();
        report
    }

    fn encode_state(snapshot: &PartialSnapshot) -> StateImage {
        let sim = &snapshot.sim;
        let w = &sim.world;
        let mut img = StateImage::new();

        let mut e = WordEnc::new();
        e.t(sim.scheduler.now())
            .u(sim.scheduler.scheduled())
            .u(sim.scheduler.delivered())
            .z(sim.scheduler.pending())
            .u(w.version)
            .u(w.batches_issued)
            .b(w.trainer_busy)
            .z(w.iterations_done)
            .t(w.last_train_done)
            .f(w.gen_tokens_prev)
            .t(w.gen_sample_prev)
            .b(w.record_trace)
            .t(w.trainer_started);
        let (next_prompt, next_traj) = w.dataset.cursor();
        e.u(next_prompt).u(next_traj);
        let mut driver = StatePlane::new("driver");
        driver.extend_paged(e.words());
        img.push_plane(driver);

        img.push_plane(encode_queue_plane(&sim.scheduler, |ev, words| match ev {
            Ev::ReplicaWake { r, epoch } => words.extend([0, *r as u64, *epoch]),
            Ev::TrainerCheck => words.push(1),
            Ev::TrainerDone { tokens } => words.extend([2, tokens.to_bits()]),
            Ev::Interrupt { version } => words.extend([3, *version]),
        }));

        let mut specs = StatePlane::new("specs");
        specs.extend_records(&w.specs, |spec, words| spec.encode_words(words));
        img.push_plane(specs);

        let mut buffer = StatePlane::new("buffer");
        buffer.extend_records(&w.buffer, |done, words| done.encode_words(words));
        img.push_plane(buffer);

        img.push_plane(encode_engines_plane(&w.engines));
        img.push_plane(encode_engine_spans_plane(&w.trace_spans, &w.engines));
        img.push_plane(encode_report_plane("report", &w.report));
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::RlSystem;
    use crate::pipeline::OneStepStaleness;
    use laminar_workload::{Checkpoint, WorkloadGenerator};

    fn cfg() -> SystemConfig {
        let mut c = SystemConfig::small_test(WorkloadGenerator::single_turn(3, Checkpoint::Math7B));
        c.train_gpus = 4;
        c.rollout_gpus = 4;
        c
    }

    #[test]
    fn partial_rollout_completes_and_mixes_versions() {
        let r = PartialRollout.run(&cfg());
        assert_eq!(r.iteration_secs.len(), 2);
        assert!(r.throughput > 0.0);
        assert!(
            r.mixed_version_fraction() > 0.0,
            "interrupted trajectories must mix versions"
        );
    }

    #[test]
    fn partial_rollout_faster_than_one_step() {
        // Unbounded staleness removes the batch barrier: more throughput.
        let p = PartialRollout.run(&cfg());
        let o = OneStepStaleness.run(&cfg());
        assert!(
            p.throughput > o.throughput * 0.95,
            "partial={} one-step={}",
            p.throughput,
            o.throughput
        );
    }

    /// Scheduler events a whole seed-11 `small_test` run delivers per
    /// completed trajectory, in all and trainer checks alone, measured when
    /// the bounds were set. Each bound is its value plus 20%. A trainer
    /// check on every replica wake that delivers, when nearly none can
    /// start an update, adds about one check per trajectory, some thirty
    /// times the second bound.
    const EVENTS_PER_TRAJ: f64 = 16.828;
    const CHECKS_PER_TRAJ: f64 = 0.0234;

    #[test]
    fn delivered_events_per_trajectory_stay_within_budget() {
        let mut c =
            SystemConfig::small_test(WorkloadGenerator::single_turn(11, Checkpoint::Math7B));
        c.seed = 11;
        let sim = &mut PartialRollout.start(&c, false).sim;
        let mut checks = 0u64;
        while !sim.world.done() {
            let entries = sim.scheduler.pending_entries();
            let Some(&(.., next)) = entries.first() else {
                panic!("the run stalled before completing its iterations");
            };
            checks += matches!(next, Ev::TrainerCheck) as u64;
            sim.step();
        }
        let completed = sim.world.report.latencies.len();
        assert!(completed > 0, "the run completed no trajectory");
        for (what, count, baseline) in [
            ("events", sim.scheduler.delivered(), EVENTS_PER_TRAJ),
            ("trainer checks", checks, CHECKS_PER_TRAJ),
        ] {
            let (measured, budget) = (count as f64 / completed as f64, baseline * 1.2);
            assert!(
                measured <= budget,
                "{measured:.3} {what} per trajectory ({count} for {completed}), over the \
                 budget of {budget:.3} ({baseline:.3} + 20%)"
            );
        }
    }

    #[test]
    fn staleness_is_unbounded_but_recorded() {
        let r = PartialRollout.run(&cfg());
        assert!(!r.consumed.is_empty());
        // Some trajectories consumed above staleness 0.
        assert!(r.consumed.iter().any(|c| c.staleness >= 1));
    }
}
