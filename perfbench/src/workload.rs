//! The three workloads: their inputs (a pure function of the seed and the
//! shape), their trials, and the output check every trial passes.

use crate::stats::{debug_fp, timed, Fnv};
use laminar_baselines::{OneStepStaleness, PartialRollout, StreamGeneration, VerlSync};
use laminar_bench::experiments::Opts;
use laminar_cluster::ModelSpec;
use laminar_core::{generate_schedule, placement_for, ChaosConfig, LaminarSystem, SystemKind};
use laminar_fleet::{generate_fleet_schedule, run_fleet, FleetChaosConfig, FleetConfig};
use laminar_runtime::{
    check_checkpoint_soak, NullTrace, RecordingTrace, RlSystem, RunReport, SystemConfig, TraceSink,
};
use laminar_sim::{Duration, Time};
use laminar_workload::{Checkpoint, TrajectorySpec, WorkloadGenerator};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The fig11 quick grid: 5 systems × {7B at 16/64/256, 32B at
    /// 32/128/512 GPUs}, single-turn math.
    MathGrid,
    /// The fig12 quick grid: 5 systems × 7B at 16/64/256 GPUs, multi-turn
    /// tool calling.
    ToolGrid,
    /// Laminar robustness: seeded chaos trials, delta-checkpoint soak
    /// trials and fleet-chaos trials.
    ChaosCkpt,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::MathGrid, Kind::ToolGrid, Kind::ChaosCkpt];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::MathGrid => "math-grid",
            Kind::ToolGrid => "tool-grid",
            Kind::ChaosCkpt => "chaos-ckpt",
        }
    }

    /// The trial-time percentile reported as `trial_s_tail`. Fixed per
    /// workload (not derived from the trial count of one run) so that runs
    /// of different length report the same statistic; the run always
    /// collects enough trials to leave ten beyond it.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Kind::MathGrid => 0.95,
            Kind::ToolGrid => 0.85,
            Kind::ChaosCkpt => 0.9,
        }
    }
}

/// `full` is the measured shape; `shrunk` is the seconds-scale shape the
/// self-check runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Full,
    Shrunk,
}

/// Chaos-ckpt trial mix per pass.
const CHAOS_TRIALS: u64 = 6;
const SOAK_TRIALS: u64 = 2;
const FLEET_TRIALS: u64 = 2;

/// Delta checkpoints per soak. The cadence is set from each run's own
/// length, so a soak's cost does not jump with the seed when one more
/// cadence instant happens to fit into the run.
pub const SOAK_POINTS: f64 = 10.0;

/// One unit of timed work.
#[derive(Debug, Clone)]
pub enum Job {
    /// One system run, untraced.
    System(SystemKind, SystemConfig),
    /// One seeded chaos run with its invariant audit and trace recording.
    Chaos(LaminarSystem, SystemConfig),
    /// One delta-checkpoint soak: commit every cadence point, verify every
    /// manifest, resume the last.
    Soak(LaminarSystem, SystemConfig, Duration),
    /// One fleet-chaos run.
    Fleet(FleetConfig),
}

/// A named trial of a pass.
#[derive(Debug, Clone)]
pub struct Trial {
    pub name: String,
    pub job: Job,
}

impl Trial {
    /// Trajectories the trial's configuration calls for
    /// (`global_batch × total_iterations`; fleet trials simulate requests,
    /// not trajectories, and count none).
    pub fn trajectories(&self) -> u64 {
        match &self.job {
            Job::System(_, cfg) | Job::Chaos(_, cfg) | Job::Soak(_, cfg, _) => {
                (cfg.global_batch() * cfg.total_iterations()) as u64
            }
            Job::Fleet(_) => 0,
        }
    }

    /// The system configuration the trial runs, if any.
    pub fn config(&self) -> Option<&SystemConfig> {
        match &self.job {
            Job::System(_, cfg) | Job::Chaos(_, cfg) | Job::Soak(_, cfg, _) => Some(cfg),
            Job::Fleet(_) => None,
        }
    }
}

/// What a trial produced: its wall time (of the call into the workspace
/// only), an output fingerprint, and the first failed check, if any.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub secs: f64,
    pub fp: u64,
    pub error: Option<String>,
}

/// The workload's inputs: the trials of one pass plus the trajectory specs
/// of the first global batch (every config of a workload shares one
/// workload generator).
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub trials: Vec<Trial>,
    pub specs: Vec<TrajectorySpec>,
}

impl Plan {
    /// Builds the configs of one pass and generates the input specs.
    pub fn build(kind: Kind, seed: u64, shape: Shape) -> Plan {
        let trials = match kind {
            Kind::MathGrid => grid_trials(seed, shape, false),
            Kind::ToolGrid => grid_trials(seed, shape, true),
            Kind::ChaosCkpt => chaos_trials(seed, shape),
        };
        let cfg = trials
            .iter()
            .find_map(Trial::config)
            .expect("every workload runs at least one system config");
        let specs = first_batch(cfg);
        Plan {
            seed,
            trials,
            specs,
        }
    }

    /// Trajectories one pass's configs call for.
    pub fn trajectories_per_pass(&self) -> u64 {
        self.trials.iter().map(Trial::trajectories).sum()
    }

    /// Fingerprint of the generated inputs.
    pub fn input_fp(&self) -> u64 {
        let mut h = Fnv::default();
        let mut words = Vec::new();
        for s in &self.specs {
            words.clear();
            s.encode_words(&mut words);
            for &w in &words {
                h.word(w);
            }
        }
        h.0
    }

    /// The Laminar configurations of the pass, in trial order.
    pub fn laminar_configs(&self) -> Vec<&SystemConfig> {
        self.trials
            .iter()
            .filter_map(|t| match &t.job {
                Job::System(SystemKind::Laminar, cfg)
                | Job::Chaos(_, cfg)
                | Job::Soak(_, cfg, _) => Some(cfg),
                _ => None,
            })
            .collect()
    }
}

/// The trajectory specs of a configuration's first global batch.
pub fn first_batch(cfg: &SystemConfig) -> Vec<TrajectorySpec> {
    let group = cfg.group_size as u64;
    (0..cfg.global_batch() as u64)
        .map(|i| {
            cfg.workload
                .trajectory(i, i / group, (i % group) as usize, 1.0)
        })
        .collect()
}

fn short_name(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::Verl => "verl",
        SystemKind::OneStep => "onestep",
        SystemKind::StreamGen => "stream",
        SystemKind::PartialRollout => "areal",
        SystemKind::Laminar => "laminar",
    }
}

/// The fig11/fig12 quick grids exactly as `laminar-experiments` builds
/// them, with the run seed as the workload and data seed.
fn grid_trials(seed: u64, shape: Shape, multi_turn: bool) -> Vec<Trial> {
    let opts = Opts {
        seed,
        ..Opts::default()
    };
    let models = if multi_turn {
        vec![ModelSpec::qwen_7b()]
    } else {
        vec![ModelSpec::qwen_7b(), ModelSpec::qwen_32b()]
    };
    let mut trials = Vec::new();
    for model in &models {
        let mut scales = opts.scales(model);
        if shape == Shape::Shrunk {
            scales.truncate(1);
        }
        for total in scales {
            for kind in SystemKind::all() {
                let workload = if multi_turn {
                    WorkloadGenerator::multi_turn(seed)
                } else {
                    WorkloadGenerator::single_turn(seed, Checkpoint::Math7B)
                };
                let mut cfg = opts.config(kind, model.clone(), total, workload);
                if shape == Shape::Shrunk {
                    cfg.iterations = 1;
                    cfg.warmup = 1;
                }
                trials.push(Trial {
                    name: format!("{}/{}@{total}", short_name(kind), model.name),
                    job: Job::System(kind, cfg),
                });
            }
        }
    }
    trials
}

/// The 16-GPU Laminar cell the chaos-ckpt trials run on.
pub fn chaos_config(data_seed: u64, iterations: usize) -> SystemConfig {
    let model = ModelSpec::qwen_7b();
    let p = placement_for(SystemKind::Laminar, &model, 16);
    let mut cfg = SystemConfig::new(
        model,
        p.train,
        p.rollout,
        p.tp,
        WorkloadGenerator::single_turn(data_seed, Checkpoint::Math7B),
    );
    cfg.seed = data_seed;
    cfg.iterations = iterations;
    cfg.warmup = 0;
    cfg
}

/// A Laminar system with a seeded fault schedule.
pub fn chaotic(
    cfg: &SystemConfig,
    schedule_seed: u64,
    events: usize,
    horizon: f64,
) -> LaminarSystem {
    LaminarSystem {
        faults: generate_schedule(
            schedule_seed,
            &ChaosConfig {
                events,
                earliest: Time::from_secs(10),
                horizon: Time::from_secs_f64(horizon),
                replicas: cfg.replicas(),
            },
        ),
        ..LaminarSystem::default()
    }
}

/// A 4-cell, 3-tenant fleet with a seeded 3-fault schedule (the
/// `fleet-chaos` spec's chaos variant).
pub fn fleet_config(data_seed: u64, schedule_seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::standard(4, 3, data_seed);
    cfg.cell_capacity = 12;
    cfg.horizon = Duration::from_secs(420);
    cfg.faults = generate_fleet_schedule(
        schedule_seed,
        &FleetChaosConfig {
            events: 3,
            earliest: Time::from_secs(60),
            horizon: Time::from_secs(300),
            cells: 4,
        },
    );
    cfg
}

/// Fault-schedule seeds of the chaos, soak and fleet trials: the seed sets
/// of the committed `chaos-sweep`, `checkpoint-soak` and `fleet-chaos`
/// specs. The run seed feeds the workload data instead (the specs'
/// `data_seed`), so every run sees the same fault patterns over different
/// trajectories, and runs of different seeds stay comparable.
const CHAOS_SCHEDULES: u64 = 1;
const SOAK_SCHEDULES: u64 = 11;
const FLEET_SCHEDULES: u64 = 1;

fn chaos_trials(seed: u64, shape: Shape) -> Vec<Trial> {
    let shrunk = shape == Shape::Shrunk;
    let (chaos, soaks, fleets) = if shrunk {
        (1, 1, 1)
    } else {
        (CHAOS_TRIALS, SOAK_TRIALS, FLEET_TRIALS)
    };
    let mut trials = Vec::new();
    let chaos_cfg = chaos_config(seed, if shrunk { 1 } else { 3 });
    for i in 0..chaos {
        let s = CHAOS_SCHEDULES + i;
        trials.push(Trial {
            name: format!("chaos/{s}"),
            job: Job::Chaos(chaotic(&chaos_cfg, s, 4, 90.0), chaos_cfg.clone()),
        });
    }
    let soak_cfg = chaos_config(seed, if shrunk { 1 } else { 2 });
    for i in 0..soaks {
        let s = SOAK_SCHEDULES + i;
        let sys = chaotic(&soak_cfg, s, 6, 150.0);
        let points = if shrunk { 2.0 } else { SOAK_POINTS };
        let cadence = cadence_for(&sys, &soak_cfg, points);
        trials.push(Trial {
            name: format!("soak/{s}"),
            job: Job::Soak(sys, soak_cfg.clone(), cadence),
        });
    }
    for i in 0..fleets {
        let s = FLEET_SCHEDULES + i;
        trials.push(Trial {
            name: format!("fleet/{s}"),
            job: Job::Fleet(fleet_config(seed, s)),
        });
    }
    trials
}

/// The checkpoint cadence that puts exactly `points` cadence instants into
/// a run of `sys` on `cfg` (read off the end of the run's trace).
pub fn cadence_for(sys: &LaminarSystem, cfg: &SystemConfig, points: f64) -> Duration {
    let mut trace = RecordingTrace::new();
    sys.run_traced(cfg, &mut trace);
    let end = trace
        .spans()
        .iter()
        .map(|s| s.end)
        .max()
        .unwrap_or(Time::ZERO);
    Duration::from_secs_f64(end.as_secs_f64() / (points + 0.5))
}

/// Runs `kind` on `cfg`, forwarding spans to `trace`.
pub fn run_system(kind: SystemKind, cfg: &SystemConfig, trace: &mut dyn TraceSink) -> RunReport {
    match kind {
        SystemKind::Verl => VerlSync.run_traced(cfg, trace),
        SystemKind::OneStep => OneStepStaleness.run_traced(cfg, trace),
        SystemKind::StreamGen => StreamGeneration.run_traced(cfg, trace),
        SystemKind::PartialRollout => PartialRollout.run_traced(cfg, trace),
        SystemKind::Laminar => LaminarSystem::default().run_traced(cfg, trace),
    }
}

/// Fingerprint of a recorded trace's JSONL form, built through one
/// reusable buffer.
pub fn trace_fp(trace: &RecordingTrace, buf: &mut String) -> u64 {
    buf.clear();
    trace.write_jsonl_into(buf);
    let mut h = Fnv::default();
    h.bytes(buf.as_bytes());
    h.0
}

fn check(ok: bool, what: &str, error: &mut Option<String>) {
    if !ok && error.is_none() {
        *error = Some(what.to_string());
    }
}

/// Runs one trial. Only the call into the workspace is timed; the output
/// checks and fingerprints run after the clock stops.
pub fn run_trial(trial: &Trial, buf: &mut String) -> Outcome {
    let mut error = None;
    let (secs, fp) = match &trial.job {
        Job::System(kind, cfg) => {
            let (report, secs) = timed(|| run_system(*kind, cfg, &mut NullTrace));
            check(
                report.throughput > 0.0,
                "throughput is not positive",
                &mut error,
            );
            (secs, debug_fp(&report))
        }
        Job::Chaos(sys, cfg) => {
            let (run, secs) = timed(|| sys.run_chaos(cfg));
            let violations = run.violations();
            if let Some(v) = violations.first() {
                check(false, &format!("chaos violation: {v}"), &mut error);
            }
            check(
                run.report.throughput > 0.0,
                "throughput is not positive",
                &mut error,
            );
            (
                secs,
                debug_fp(&run.report) ^ trace_fp(&run.trace, buf).rotate_left(1),
            )
        }
        Job::Soak(sys, cfg, every) => {
            let (soak, secs) = timed(|| check_checkpoint_soak(sys, cfg, *every));
            if !soak.identical() {
                let why = soak.first_divergence.clone().unwrap_or_default();
                check(false, &format!("soak not identical: {why}"), &mut error);
            }
            check(
                soak.snapshots > 0,
                "soak committed no checkpoint",
                &mut error,
            );
            (secs, debug_fp(&soak))
        }
        Job::Fleet(cfg) => {
            let (run, secs) = timed(|| run_fleet(cfg));
            if let Some(v) = run.violations().first() {
                check(false, &format!("fleet violation: {v}"), &mut error);
            }
            check(
                run.report.goodput_rps > 0.0,
                "goodput is not positive",
                &mut error,
            );
            let mut h = Fnv::default();
            h.bytes(run.fingerprint().as_bytes());
            (secs, h.0)
        }
    };
    Outcome { secs, fp, error }
}
