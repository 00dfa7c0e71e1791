//! The Laminar system world (Figure 5).
//!
//! Split along its natural seams:
//!
//! * [`mod@self`] — experiment toggles, fault/elasticity specs, the world
//!   state, and system assembly ([`RlSystem::run_traced`]);
//! * `driver` — the steady-state event loop: replica batches, weight
//!   refresh via the relay tier, trainer scheduling, dynamic repack;
//! * `faults` — machine-kill / recovery and trainer-failure handling
//!   (Figure 15, §3.3);
//! * `elastic` — mid-run rollout scale-out (§3.3);
//! * `recover` — graceful degradation, and the `start`/`advance`/`finish`
//!   pieces every run goes through (plain, chaos, and checkpointed);
//! * `timeline` — throughput-timeline sampling and event-trace emission.

mod driver;
mod elastic;
mod faults;
mod recover;
#[cfg(test)]
mod tests;
mod timeline;

pub use recover::LaminarSnapshot;

use crate::chaos::{ChaosAudit, ChaosOutcome, FaultEvent};
use laminar_data::{Eviction, ExperienceBuffer, PartialResponsePool, Sampler};
use laminar_relay::RelaySyncModel;
use laminar_rollout::manager::{RolloutManager, REPACK_INTERVAL};
use laminar_rollout::{EngineConfig, ReplicaEngine};
use laminar_runtime::recovery::Recoverable;
use laminar_runtime::{
    BreakerConfig, CircuitBreaker, RecordingTrace, RetryPolicy, RlSystem, RunReport, SystemConfig,
    TraceSink, TraceSpan,
};
use laminar_sim::{Duration, SimRng, Simulation, Time};
use laminar_workload::TrajectorySpec;
use std::collections::{BTreeSet, VecDeque};

/// Elastic scale-out spec (§3.3): fresh rollout machines join mid-run,
/// initialize from the relay tier, and start generating.
#[derive(Debug, Clone)]
pub struct ElasticSpec {
    /// When the new machines come online.
    pub at: Time,
    /// Replicas added.
    pub replicas: usize,
}

/// How the manager detects underutilized rollouts (the §8.4/§5.2 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdlenessMetric {
    /// The paper's KVCache ramp-down detector.
    KvCacheLifecycle,
    /// RLHFuse-style static remaining-request threshold.
    StaticThreshold(usize),
}

/// Per-replica circuit breaker (DESIGN.md §8): three fault hits, each
/// within 60 s of the last, trip it; a tripped replica is not re-admitted
/// every sweep but waits out the 120 s cooldown and re-enters through a
/// single probe batch.
const REPLICA_BREAKER: BreakerConfig = BreakerConfig {
    failure_threshold: 3,
    window: Duration::from_secs(60),
    cooldown: Duration::from_secs(120),
};

/// Retry/backoff policy whose total budget bounds how long any one
/// trajectory may sit in stalled environment calls before the call is
/// abandoned and the trajectory completes early.
const ENV_RETRY: RetryPolicy = RetryPolicy {
    base: Duration::from_millis(500),
    factor: 2.0,
    max_delay: Duration::from_secs(30),
    max_retries: 5,
    jitter: 0.1,
};

/// The Laminar system, with experiment toggles.
#[derive(Debug, Clone)]
pub struct LaminarSystem {
    /// Enable the dynamic repack mechanism (disable for the Figure 16
    /// ablation).
    pub repack: bool,
    /// Idleness detection strategy.
    pub idleness: IdlenessMetric,
    /// Scheduled fault injections (Figure 15, §3.3, and the chaos plane):
    /// machine kills, trainer crashes, relay outages, stragglers, and env
    /// stalls, each striking at its own simulated time. Empty for a clean
    /// run; build schedules by hand or with [`crate::chaos::generate_schedule`].
    pub faults: Vec<FaultEvent>,
    /// Add rollout replicas mid-run (§3.3 elasticity).
    pub elastic: Option<ElasticSpec>,
    /// Checkpoint the actor every this many versions.
    pub checkpoint_every: u64,
    /// Override the per-replica prompt batch size (default: the global
    /// batch divided across replicas, capped by max concurrency). Larger
    /// batches raise utilization between weight refreshes but also raise
    /// the emergent inherent staleness — the trade-off §6 describes.
    pub replica_batch: Option<usize>,
    /// Record generation/training throughput timelines (Figures 15/16).
    pub record_timeline: bool,
    /// Timeline sampling period.
    pub sample_every: Duration,
    /// Trainer-side staleness cap: when set, sampling skips experiences
    /// older than this many versions (relaxed by four versions while the
    /// driver is degraded, DESIGN.md §8.3).
    pub staleness_cap: Option<u64>,
    /// Ignored: every Laminar run uses the one serial event loop. Kept
    /// only because the `perfbench` package's `core.sharded_s2_speedup`
    /// probe still sets it; the next benchmark change deletes the probe,
    /// its metric and this field together.
    pub shards: usize,
}

impl Default for LaminarSystem {
    fn default() -> Self {
        LaminarSystem {
            repack: true,
            idleness: IdlenessMetric::KvCacheLifecycle,
            faults: Vec::new(),
            elastic: None,
            checkpoint_every: 5,
            replica_batch: None,
            record_timeline: false,
            sample_every: Duration::from_secs(10),
            staleness_cap: None,
            shards: 1,
        }
    }
}

#[derive(Debug, Clone)]
enum Ev {
    ReplicaWake {
        r: usize,
        epoch: u64,
    },
    /// Replica finished pulling weights; start its next batch.
    ReplicaResume {
        r: usize,
        version: u64,
    },
    TrainerCheck,
    TrainerDone {
        tokens: f64,
        epoch: u64,
    },
    WeightsAvailable {
        version: u64,
    },
    RepackTick,
    SampleTick,
    /// A scheduled fault strikes (index into `LaminarSystem::faults`).
    Fault {
        idx: usize,
    },
    /// The replacement machine for these replicas is up.
    RecoverMachine {
        replicas: Vec<usize>,
    },
    /// A straggler window ends; the replica returns to full speed.
    SlowNodeEnd {
        r: usize,
    },
    TrainerRecover,
    AddReplicas {
        count: usize,
    },
    /// Sustained-capacity-loss check: if the alive fraction has stayed
    /// below the threshold for the whole degraded window, enter degraded
    /// mode.
    DegradeCheck,
    /// A tripped breaker's cooldown elapsed: re-admit replica `r` through
    /// a single probe batch.
    BreakerProbe {
        r: usize,
    },
}

/// Full run state. `Clone` is the snapshot mechanism of the recovery
/// plane: heap/map clones copy their backing storage verbatim, so a cloned
/// world replays byte-identically (see [`recover`]).
#[derive(Clone)]
struct World {
    cfg: SystemConfig,
    opts: LaminarSystem,
    engines: Vec<ReplicaEngine>,
    alive: Vec<bool>,
    /// Replicas currently mid weight-pull (not generating).
    pulling: Vec<bool>,
    pool: VecDeque<TrajectorySpec>,
    partials: PartialResponsePool,
    buffer: ExperienceBuffer,
    manager: RolloutManager,
    relay: RelaySyncModel,
    dataset: laminar_workload::Dataset,
    batches_issued: u64,
    train: laminar_cluster::TrainModel,
    replica_batch: usize,
    /// Actor's version (increments per completed iteration).
    version: u64,
    /// Newest version fully broadcast to all relays.
    relay_version: u64,
    trainer_busy: bool,
    /// True while the trainer worker is down (§3.3 trainer fault).
    trainer_failed: bool,
    /// Incremented on trainer failure; stale in-flight `TrainerDone`
    /// events (work lost with the worker) are discarded by epoch.
    trainer_epoch: u64,
    /// Version the trainer was at when it failed; replay restores it at
    /// recovery (between failure and recovery `version` holds the
    /// checkpoint resume version, so staleness accounting reflects the
    /// rollback).
    trainer_resume_to: u64,
    /// Relay broadcast outage: versions published before this instant only
    /// become pullable once it passes.
    relay_blocked_until: Time,
    /// Lost-work / version bookkeeping for the chaos invariant checker.
    audit: ChaosAudit,
    checkpoints: laminar_data::CheckpointStore,
    /// Duration of the last completed training iteration (replay estimate).
    last_iter_duration: Duration,
    iterations_done: usize,
    last_train_done: Time,
    rng: SimRng,
    report: RunReport,
    gen_tokens_prev: f64,
    gen_sample_prev: Time,
    train_tokens_cum: f64,
    train_tokens_prev: f64,
    /// Event-trace capture (see [`timeline`]).
    record_trace: bool,
    trace_spans: Vec<TraceSpan>,
    /// When the in-flight training iteration started (feeds `TrainStep`).
    trainer_started: Time,
    /// When the trainer last became free (feeds trainer `Stall` spans).
    trainer_free_at: Time,
    /// One circuit breaker per replica: faults record failures, probe
    /// batches record successes, admission is gated on `allow`.
    breakers: Vec<CircuitBreaker>,
    /// True while the driver is in degraded mode (shrunken admission,
    /// relaxed staleness cap).
    degraded: bool,
    /// When the alive fraction last dropped below the degradation
    /// threshold; `None` while capacity is healthy.
    capacity_low_since: Option<Time>,
    /// When the current degraded episode began (start of the `Recovered`
    /// span emitted on exit).
    degraded_entered: Time,
}

impl World {
    /// Engine configuration for a fresh replica under this run's options.
    fn engine_cfg(&self) -> EngineConfig {
        let mut c = self.cfg.engine_config();
        c.record_trace = self.record_trace;
        // Env calls may stall for at most the retry policy's total backoff
        // budget before the call is abandoned and the trajectory ends.
        c.env_stall_budget = Some(ENV_RETRY.total_budget());
        c
    }

    fn done(&self) -> bool {
        self.iterations_done >= self.cfg.total_iterations()
    }

    /// Moves the driver's and every engine's buffered spans into `trace`.
    fn drain_spans(&mut self, trace: &mut dyn TraceSink) {
        trace.record_all(std::mem::take(&mut self.trace_spans));
        for e in &mut self.engines {
            trace.record_all(e.take_trace_spans());
        }
    }

    /// Finalizes and takes the run report.
    fn finish_report(&mut self) -> RunReport {
        let mut report = std::mem::take(&mut self.report);
        let alive = self.alive.iter().filter(|a| **a).count().max(1);
        report.mean_kv_utilization = self
            .engines
            .iter()
            .enumerate()
            .filter(|(r, _)| self.alive[*r])
            .map(|(_, e)| e.mean_kv_utilization())
            .sum::<f64>()
            / alive as f64;
        report.generation_fraction = 0.0; // fully overlapped by design
        report.finalize();
        report
    }

    /// Snapshots the end-of-run state for the chaos invariant checker.
    fn chaos_outcome(&mut self, trace: &RecordingTrace) -> ChaosOutcome {
        let mut resident = Vec::with_capacity(self.engines.len());
        let mut engine_versions = Vec::with_capacity(self.engines.len());
        let mut kv_reserved = Vec::with_capacity(self.engines.len());
        let mut heap_entries = Vec::with_capacity(self.engines.len());
        let mut env_aborts = 0;
        for e in self.engines.iter_mut() {
            resident.push(e.resident_ids());
            engine_versions.push(e.weight_version());
            kv_reserved.push(e.kv_reserved_tokens());
            heap_entries.push(e.pending_heap_entries());
            env_aborts += e.env_aborts();
        }
        let manager_healthy = (0..self.engines.len())
            .map(|r| {
                matches!(
                    self.manager.health(r),
                    laminar_rollout::manager::ReplicaHealth::Healthy
                )
            })
            .collect();
        // Completions drained from engines but not yet processed by a
        // `ReplicaWake` when the run ended still count as held work.
        let completed: BTreeSet<u64> = self.audit.completed.keys().copied().collect();
        for (r, e) in self.engines.iter_mut().enumerate() {
            for c in e.take_completions() {
                if !completed.contains(&c.spec.id) {
                    resident[r].push(c.spec.id);
                }
            }
        }
        let malformed_spans = trace
            .spans()
            .iter()
            .filter(|s| s.end < s.start)
            .map(|s| {
                (
                    s.kind.as_str().to_string(),
                    s.start.as_nanos(),
                    s.end.as_nanos(),
                )
            })
            .collect();
        ChaosOutcome {
            audit: std::mem::take(&mut self.audit),
            resident,
            partial_ids: self.partials.ids(),
            pool_ids: self.pool.iter().map(|s| s.id).collect(),
            alive: self.alive.clone(),
            engine_versions,
            relay_version: self.relay_version,
            actor_version: self.version,
            malformed_spans,
            kv_reserved,
            heap_entries,
            manager_healthy,
            breaker_trips: self.breakers.iter().map(|b| b.trips()).collect(),
            env_aborts,
        }
    }
}

/// A completed chaos run: the usual report, the recorded event trace, and
/// the invariant-checker outcome.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// The ordinary run report (throughput, latency, staleness, …).
    pub report: RunReport,
    /// End-of-run snapshot + audit for the invariant checker.
    pub outcome: ChaosOutcome,
    /// Every span the run emitted.
    pub trace: RecordingTrace,
}

impl ChaosRun {
    /// All invariant violations; empty when the run upheld every guarantee.
    pub fn violations(&self) -> Vec<String> {
        self.outcome.violations()
    }
}

impl LaminarSystem {
    /// Runs a chaos scenario: an ordinary run with `self.faults` injected,
    /// the full event trace recorded, and the end state snapshotted for the
    /// invariant checker. `ChaosRun::violations()` is empty iff the run
    /// upheld every lost-work / version / reconvergence guarantee.
    pub fn run_chaos(&self, cfg: &SystemConfig) -> ChaosRun {
        let mut run = self.start(cfg, true);
        let finished = Self::advance(&mut run, Time::MAX);
        assert!(finished, "laminar run did not complete its iterations");
        let mut world = run.sim.world;
        let mut trace = RecordingTrace::new();
        world.drain_spans(&mut trace);
        let report = world.finish_report();
        let outcome = world.chaos_outcome(&trace);
        ChaosRun {
            report,
            outcome,
            trace,
        }
    }

    /// Assembles the world and seeds the event queue, stopping just before
    /// the first event fires. Every run drives the returned simulation
    /// through [`Recoverable::start`]/[`Recoverable::advance`]
    /// ([`recover::LaminarSnapshot`]): in one leg to `Time::MAX`, or in
    /// cadence-bounded legs when checkpointing.
    fn build(&self, cfg: &SystemConfig, record_trace: bool) -> Simulation<World> {
        assert!(
            cfg.train_gpus > 0,
            "Laminar is disaggregated: set train_gpus > 0"
        );
        let replicas = cfg.replicas();
        let replica_batch = self.replica_batch.unwrap_or_else(|| {
            cfg.max_concurrency
                .min((cfg.global_batch() / replicas).max(cfg.group_size))
                .max(1)
        });
        let mut manager = RolloutManager::default();
        for r in 0..replicas {
            manager.register(r, Time::ZERO);
        }
        let mut world = World {
            cfg: cfg.clone(),
            opts: self.clone(),
            engines: Vec::new(),
            alive: vec![true; replicas],
            pulling: vec![false; replicas],
            pool: VecDeque::new(),
            partials: PartialResponsePool::new(),
            buffer: match self.staleness_cap {
                Some(cap) => ExperienceBuffer::new(
                    Sampler::StalenessCapped { max_staleness: cap },
                    Eviction::None,
                ),
                None => ExperienceBuffer::fifo_unbounded(),
            },
            manager,
            relay: RelaySyncModel::new(cfg.machine.clone(), cfg.model.clone()),
            dataset: cfg.dataset(),
            batches_issued: 0,
            train: cfg.train_model(),
            replica_batch,
            version: 0,
            relay_version: 0,
            trainer_busy: false,
            trainer_failed: false,
            trainer_epoch: 0,
            trainer_resume_to: 0,
            relay_blocked_until: Time::ZERO,
            audit: ChaosAudit::default(),
            checkpoints: laminar_data::CheckpointStore::new(self.checkpoint_every.max(1), 4),
            last_iter_duration: Duration::ZERO,
            iterations_done: 0,
            last_train_done: Time::ZERO,
            rng: SimRng::derive(cfg.seed, "laminar-system", 0),
            report: RunReport {
                system: self.name().into(),
                ..RunReport::default()
            },
            gen_tokens_prev: 0.0,
            gen_sample_prev: Time::ZERO,
            train_tokens_cum: 0.0,
            train_tokens_prev: 0.0,
            record_trace,
            trace_spans: Vec::new(),
            trainer_started: Time::ZERO,
            trainer_free_at: Time::ZERO,
            breakers: vec![CircuitBreaker::new(REPLICA_BREAKER); replicas],
            degraded: false,
            capacity_low_since: None,
            degraded_entered: Time::ZERO,
        };
        world.engines = (0..replicas)
            .map(|i| ReplicaEngine::new(i, cfg.decode_model(), world.engine_cfg()))
            .collect();
        for r in 0..replicas {
            world.audit.record_version(r, 0);
        }
        let mut sim = Simulation::new(world);
        for r in 0..replicas {
            sim.world.start_batch(r, Time::ZERO, &mut sim.scheduler);
            sim.world.wake(r, &mut sim.scheduler);
        }
        sim.scheduler.after(REPACK_INTERVAL, Ev::RepackTick);
        if self.record_timeline {
            sim.scheduler.after(self.sample_every, Ev::SampleTick);
        }
        for (idx, f) in self.faults.iter().enumerate() {
            sim.scheduler.at(f.at, Ev::Fault { idx });
        }
        if let Some(e) = &self.elastic {
            sim.scheduler
                .at(e.at, Ev::AddReplicas { count: e.replicas });
        }
        sim.scheduler.immediately(Ev::TrainerCheck);
        sim
    }
}

impl RlSystem for LaminarSystem {
    fn name(&self) -> &'static str {
        if self.repack {
            "laminar"
        } else {
            "laminar-no-repack"
        }
    }

    fn run_traced(&self, cfg: &SystemConfig, trace: &mut dyn TraceSink) -> RunReport {
        self.resume(self.start(cfg, trace.enabled()), trace)
    }
}
