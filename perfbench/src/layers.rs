//! The traced run: the per-layer ledger of one workload.
//!
//! Every number here is taken from outside the program: the benchmark
//! times calls into each layer's public functions, at the workload's own
//! shapes, and reads counts off the reports and traces those calls return.
//! [`LAYER_METRICS`] names each metric with the end-to-end metric it should
//! move and on which workload; elsewhere the prediction is no change.

use crate::e2e::RunResult;
use crate::stats::{debug_fp, median, timed, Fnv};
use crate::workload::{
    cadence_for, chaotic, fleet_config, run_system, run_trial, trace_fp, Job, Kind, Outcome, Plan,
    Shape, Trial, SOAK_POINTS,
};
use laminar_bench::alloc_count;
use laminar_core::{LaminarSystem, SystemKind};
use laminar_data::{Eviction, Experience, ExperienceBuffer, Sampler};
use laminar_fleet::run_fleet;
use laminar_rollout::{plan_repack, ReplicaEngine, ReplicaLoad};
use laminar_runtime::{
    DeltaStore, NullTrace, RecordingTrace, Recoverable, RlSystem, SpanKind, SystemConfig,
};
use laminar_sim::{Duration, Scheduler, SimRng, SimWorld, Simulation, Time};
use std::time::Instant;

/// Every per-layer metric: name, unit, and the predicted end-to-end mover.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    (
        "sim.ns_per_event",
        "ns",
        "traj_per_s on all three workloads, most on tool-grid",
    ),
    ("workload.ns_per_traj", "ns", "setup_s"),
    (
        "rollout.events",
        "count",
        "traj_per_s and trial_s_tail on math-grid and tool-grid",
    ),
    (
        "rollout.ns_per_event",
        "ns",
        "traj_per_s and trial_s_tail on math-grid and tool-grid",
    ),
    (
        "rollout.allocs_per_event",
        "allocs",
        "traj_per_s and trial_s_tail on math-grid and tool-grid",
    ),
    ("repack.plans", "count", "trial_s_tail on math-grid"),
    ("repack.us_per_plan", "us", "trial_s_tail on math-grid"),
    (
        "repack.released_per_plan",
        "replicas",
        "trial_s_tail on math-grid",
    ),
    ("data.sample_us", "us", "none: the bypass check"),
    ("trace.spans", "count", "traj_per_s on chaos-ckpt"),
    (
        "trace.spans.decode_step",
        "count",
        "traj_per_s on chaos-ckpt",
    ),
    ("trace.spans.prefill", "count", "traj_per_s on chaos-ckpt"),
    ("trace.spans.env_call", "count", "traj_per_s on chaos-ckpt"),
    ("trace.spans.repack", "count", "traj_per_s on chaos-ckpt"),
    (
        "trace.spans.weight_sync",
        "count",
        "traj_per_s on chaos-ckpt",
    ),
    (
        "trace.record_overhead_frac",
        "ratio",
        "traj_per_s on chaos-ckpt",
    ),
    ("trace.ns_per_span", "ns", "traj_per_s on chaos-ckpt"),
    (
        "ckpt.points",
        "count",
        "traj_per_s, trial_s_tail and peak_heap_mb on chaos-ckpt",
    ),
    (
        "ckpt.commit_ms_per_point",
        "ms",
        "traj_per_s, trial_s_tail and peak_heap_mb on chaos-ckpt",
    ),
    (
        "ckpt.encode_ms_per_point",
        "ms",
        "traj_per_s, trial_s_tail and peak_heap_mb on chaos-ckpt",
    ),
    (
        "ckpt.verify_ms_per_point",
        "ms",
        "traj_per_s, trial_s_tail and peak_heap_mb on chaos-ckpt",
    ),
    (
        "ckpt.resume_s",
        "s",
        "traj_per_s, trial_s_tail and peak_heap_mb on chaos-ckpt",
    ),
    (
        "ckpt.delta_bytes_per_point",
        "bytes",
        "traj_per_s, trial_s_tail and peak_heap_mb on chaos-ckpt",
    ),
    (
        "ckpt.chunk_reuse_frac",
        "ratio",
        "traj_per_s, trial_s_tail and peak_heap_mb on chaos-ckpt",
    ),
    (
        "sys.laminar.run_s",
        "s",
        "trial_s_p50 and trial_s_tail on math-grid and tool-grid",
    ),
    (
        "sys.verl.run_s",
        "s",
        "trial_s_p50 and trial_s_tail on math-grid and tool-grid",
    ),
    (
        "sys.onestep.run_s",
        "s",
        "trial_s_p50 and trial_s_tail on math-grid and tool-grid",
    ),
    (
        "sys.stream.run_s",
        "s",
        "trial_s_p50 and trial_s_tail on math-grid and tool-grid",
    ),
    (
        "sys.areal.run_s",
        "s",
        "trial_s_p50 and trial_s_tail on math-grid and tool-grid",
    ),
    ("core.chaos_audit_frac", "ratio", "traj_per_s on chaos-ckpt"),
    (
        "core.sharded_s2_speedup",
        "x",
        "none while Laminar runs its event loop serially by default",
    ),
    (
        "fleet.run_ms",
        "ms",
        "traj_per_s on chaos-ckpt (small share)",
    ),
    ("fleet.violations", "count", "none: must stay 0"),
    ("runner.jobs2_speedup", "x", "none at --jobs 1"),
    (
        "ledger.unattributed_frac",
        "ratio",
        "none: what outside-in timing cannot attribute",
    ),
];

/// Counts that must repeat exactly across runs of one seed and shape.
pub const EXACT_COUNTS: &[&str] = &[
    "rollout.events",
    "trace.spans",
    "trace.spans.decode_step",
    "trace.spans.prefill",
    "trace.spans.env_call",
    "trace.spans.repack",
    "trace.spans.weight_sync",
    "repack.plans",
    "ckpt.points",
    "ckpt.delta_bytes_per_point",
];

/// Repeats of each micro probe; the probe reports the median.
const REPS: usize = 5;

/// Span kinds counted individually.
const COUNTED_SPANS: [(SpanKind, &str); 5] = [
    (SpanKind::DecodeStep, "decode_step"),
    (SpanKind::Prefill, "prefill"),
    (SpanKind::EnvCall, "env_call"),
    (SpanKind::Repack, "repack"),
    (SpanKind::WeightSync, "weight_sync"),
];

/// Per-layer busy time and counts accumulated over the traced pass.
#[derive(Debug, Default)]
struct Ledger {
    /// Wall seconds of the traced pass.
    wall: f64,
    /// Seconds inside timed layer calls.
    attributed: f64,
    spans: u64,
    spans_by_kind: [u64; COUNTED_SPANS.len()],
    serialize_secs: f64,
    serialized_spans: u64,
    repack_plans: u64,
    repack_released: u64,
    ckpt: CkptTotals,
}

#[derive(Debug, Default, Clone, Copy)]
struct CkptTotals {
    points: u64,
    commit_secs: f64,
    encode_secs: f64,
    verify_secs: f64,
    resume_secs: f64,
    resumes: u64,
    delta_bytes: u64,
    chunks_total: u64,
    chunks_reused: u64,
}

impl Ledger {
    /// Counts a trace's spans, then serializes it.
    fn count_trace(&mut self, trace: &RecordingTrace, buf: &mut String) -> u64 {
        self.spans += trace.spans().len() as u64;
        for s in trace.spans() {
            if let Some(i) = COUNTED_SPANS.iter().position(|(k, _)| *k == s.kind) {
                self.spans_by_kind[i] += 1;
            }
        }
        self.serialize(trace, buf)
    }

    /// Serializes a trace (timed as the trace layer) and returns its
    /// fingerprint.
    fn serialize(&mut self, trace: &RecordingTrace, buf: &mut String) -> u64 {
        let (fp, secs) = timed(|| trace_fp(trace, buf));
        self.serialized_spans += trace.spans().len() as u64;
        self.serialize_secs += secs;
        self.attributed += secs;
        fp
    }
}

/// A delta-checkpoint soak decomposed into its `Recoverable` calls, each
/// timed on its own. Returns the soak's fingerprint and its first failed
/// check.
fn soak_decomposed(
    sys: &LaminarSystem,
    cfg: &SystemConfig,
    every: Duration,
    ledger: &mut Ledger,
    buf: &mut String,
) -> (u64, Option<String>) {
    let mut base_trace = RecordingTrace::new();
    let (base, base_secs) = timed(|| sys.run_traced(cfg, &mut base_trace));
    let base_fp = debug_fp(&base) ^ ledger.count_trace(&base_trace, buf);
    drop(base_trace);
    let mut store = DeltaStore::new();
    let mut ck_trace = RecordingTrace::new();
    let ((ck_report, checkpoints), ck_secs) =
        timed(|| sys.run_delta_checkpointed(cfg, every, &mut ck_trace, &mut store));
    let mut error = None;
    if debug_fp(&ck_report) ^ ledger.serialize(&ck_trace, buf) != base_fp {
        error = Some("checkpointed run diverged from the uninterrupted run".to_string());
    }
    drop(ck_trace);
    let c = &mut ledger.ckpt;
    c.commit_secs += (ck_secs - base_secs).max(0.0);
    let mut verify_secs = 0.0;
    let mut resume_secs = 0.0;
    let mut resumed = None;
    let last = checkpoints.len().saturating_sub(1);
    let mut digest = Fnv::default();
    for (i, ck) in checkpoints.into_iter().enumerate() {
        c.points += 1;
        c.delta_bytes += ck.stats.delta_bytes;
        c.chunks_total += ck.stats.chunks_total as u64;
        c.chunks_reused += ck.stats.chunks_reused as u64;
        digest.word(ck.stats.delta_bytes);
        let (image, secs) = timed(|| LaminarSystem::encode_state(&ck.state));
        c.encode_secs += secs;
        digest.word(image.fingerprint());
        drop(image);
        let (verified, secs) = timed(|| LaminarSystem::verify_checkpoint(&store, &ck));
        verify_secs += secs;
        if let Err(e) = verified {
            error.get_or_insert(format!("checkpoint {i} failed verification: {e}"));
        }
        if i == last {
            let mut trace = RecordingTrace::new();
            let (report, secs) = timed(|| sys.resume(ck.state, &mut trace));
            resume_secs += secs;
            resumed = Some((debug_fp(&report), trace));
        }
    }
    c.verify_secs += verify_secs;
    c.resume_secs += resume_secs;
    c.resumes += 1;
    if let Some((report_fp, trace)) = resumed {
        if report_fp ^ ledger.serialize(&trace, buf) != base_fp {
            error.get_or_insert("resume from the final checkpoint diverged".to_string());
        }
    }
    // The encode timings re-run work that verification already contains,
    // so only the soak's own calls count towards the ledger.
    ledger.attributed += base_secs + ck_secs + verify_secs + resume_secs;
    (base_fp ^ digest.0.rotate_left(7), error)
}

/// Runs one trial with every layer call timed on its own and every trace
/// recorded and counted.
fn traced_trial(trial: &Trial, ledger: &mut Ledger, buf: &mut String) -> Outcome {
    let t0 = Instant::now();
    let mut error = None;
    let fp = match &trial.job {
        Job::System(kind, cfg) => {
            let mut trace = RecordingTrace::new();
            let (report, secs) = timed(|| run_system(*kind, cfg, &mut trace));
            ledger.attributed += secs;
            ledger.repack_plans += report.repack_events;
            ledger.repack_released += report.repack_released;
            if report.throughput <= 0.0 {
                error = Some("throughput is not positive".to_string());
            }
            // Report fingerprint only: it must match the untraced run's.
            let fp = debug_fp(&report);
            ledger.count_trace(&trace, buf);
            fp
        }
        Job::Chaos(sys, cfg) => {
            let (run, secs) = timed(|| sys.run_chaos(cfg));
            ledger.attributed += secs;
            ledger.repack_plans += run.report.repack_events;
            ledger.repack_released += run.report.repack_released;
            if let Some(v) = run.violations().first() {
                error = Some(format!("chaos violation: {v}"));
            }
            debug_fp(&run.report) ^ ledger.count_trace(&run.trace, buf).rotate_left(1)
        }
        Job::Soak(sys, cfg, every) => {
            let (fp, e) = soak_decomposed(sys, cfg, *every, ledger, buf);
            error = e;
            fp
        }
        Job::Fleet(cfg) => {
            let (run, secs) = timed(|| run_fleet(cfg));
            ledger.attributed += secs;
            if let Some(v) = run.violations().first() {
                error = Some(format!("fleet violation: {v}"));
            }
            let mut h = Fnv::default();
            h.bytes(run.fingerprint().as_bytes());
            h.0
        }
    };
    Outcome {
        secs: t0.elapsed().as_secs_f64(),
        fp,
        error,
    }
}

/// Wall seconds per system run, by system.
#[derive(Debug, Default)]
struct SysSecs([(f64, u32); 5]);

impl SysSecs {
    fn add(&mut self, kind: SystemKind, secs: f64) {
        let i = SystemKind::all()
            .iter()
            .position(|k| *k == kind)
            .expect("known system");
        self.0[i].0 += secs;
        self.0[i].1 += 1;
    }

    fn mean(&self, kind: SystemKind) -> Option<f64> {
        let i = SystemKind::all().iter().position(|k| *k == kind)?;
        let (s, n) = self.0[i];
        (n > 0).then(|| s / n as f64)
    }
}

/// A benchmark-side world for the `sim` layer: `depth` components, each
/// rescheduling itself after a pseudo-random hold, so the scheduler runs
/// at a constant queue depth.
struct HoldWorld {
    rng: SimRng,
    handled: u64,
}

impl SimWorld for HoldWorld {
    type Event = u32;

    fn handle(&mut self, _now: Time, ev: u32, sched: &mut Scheduler<u32>) {
        self.handled += 1;
        let hold = 1 + self.rng.below(2_000_000);
        sched.after(Duration::from_nanos(hold), ev);
    }
}

/// Nanoseconds per event of the scheduler at queue depth `depth`.
fn probe_sim(seed: u64, depth: usize) -> f64 {
    const EVENTS: u64 = 1_000_000;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut sim = Simulation::new(HoldWorld {
                rng: SimRng::derive(seed, "perfbench-sim", depth as u64),
                handled: 0,
            });
            for r in 0..depth {
                sim.scheduler.immediately(r as u32);
            }
            let (_, secs) = timed(|| sim.run_while(|w| w.handled < EVENTS, u64::MAX));
            std::hint::black_box(sim.world.handled);
            secs * 1e9 / EVENTS as f64
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per generated trajectory spec of `cfg`'s first batch.
fn probe_workload(cfg: &SystemConfig) -> f64 {
    let n = cfg.global_batch() as f64;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (specs, secs) = timed(|| crate::workload::first_batch(cfg));
            std::hint::black_box(specs.len());
            secs * 1e9 / n
        })
        .collect();
    median(&samples)
}

/// Laminar's per-replica batch on `cfg`.
fn replica_batch(cfg: &SystemConfig) -> usize {
    cfg.max_concurrency
        .min((cfg.global_batch() / cfg.replicas()).max(cfg.group_size))
        .max(1)
}

/// One replica engine fed the workload's own specs at its per-replica
/// batch, with one mid-flight weight interrupt. Returns (events per run,
/// ns per event, allocations per event).
fn probe_rollout(plan: &Plan, cfg: &SystemConfig) -> (u64, f64, f64) {
    let batch = replica_batch(cfg).min(plan.specs.len());
    let specs = &plan.specs[..batch];
    let run = || {
        let mut e = ReplicaEngine::new(0, cfg.decode_model(), cfg.engine_config());
        for s in specs {
            e.submit(s.clone(), Time::ZERO);
        }
        e.interrupt_with_weights(1, Time::from_secs(30));
        while let Some(t) = e.next_event_time() {
            e.advance_to(t);
        }
        std::hint::black_box(e.completed_count());
        e.events_processed()
    };
    // Each sample repeats the run until it covers enough events to time.
    let events = run();
    let runs = (200_000 / events.max(1)).max(1);
    let mut ns = Vec::with_capacity(REPS);
    let mut allocs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let ((n, secs), stats) =
            alloc_count::measure(|| timed(|| (0..runs).map(|_| run()).sum::<u64>()));
        ns.push(secs * 1e9 / n.max(1) as f64);
        allocs.push(stats.allocs as f64 / n.max(1) as f64);
    }
    (events, median(&ns), median(&allocs))
}

/// `plan_repack` over seeded ramp-down load snapshots of `replicas`
/// replicas. Returns microseconds per plan.
fn probe_repack(seed: u64, cfg: &SystemConfig) -> f64 {
    const SNAPSHOTS: u64 = 64;
    let decode = cfg.decode_model();
    let cap = decode.kvcache_capacity_tokens() as f64;
    let b = decode.roofline_batch_limit();
    let replicas = cfg.replicas();
    let snapshots: Vec<Vec<ReplicaLoad>> = (0..SNAPSHOTS)
        .map(|i| {
            let mut rng = SimRng::derive(seed, "perfbench-repack", i);
            (0..replicas)
                .map(|r| {
                    let kv_prev = rng.range_f64(0.05, 1.0) * cap;
                    ReplicaLoad {
                        replica: r,
                        kv_used: kv_prev * rng.range_f64(0.3, 1.05),
                        kv_reserved: kv_prev,
                        kv_prev,
                        n_reqs: rng.below(b as u64 + 1) as usize,
                        weight_version: 0,
                    }
                })
                .collect()
        })
        .collect();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (moves, secs) = timed(|| {
                snapshots
                    .iter()
                    .map(|s| plan_repack(s, 0.99 * cap, b).moves.len())
                    .sum::<usize>()
            });
            std::hint::black_box(moves);
            secs * 1e6 / SNAPSHOTS as f64
        })
        .collect();
    median(&samples)
}

/// `ExperienceBuffer` at the workload's batch: one global batch written,
/// then drained in minibatches, FIFO and staleness-capped. Returns
/// microseconds per `sample` call.
fn probe_data(plan: &Plan, cfg: &SystemConfig) -> f64 {
    let experiences: Vec<Experience> = plan
        .specs
        .iter()
        .map(|s| Experience {
            trajectory_id: s.id,
            prompt_id: s.prompt_id,
            group_index: s.group_index,
            prompt_tokens: s.prompt_tokens,
            response_tokens: s.decode_tokens(),
            policy_versions: vec![s.id % 4],
            started_at: Time::ZERO,
            finished_at: Time::from_secs(1 + s.id % 600),
        })
        .collect();
    let minibatch = (experiences.len() / cfg.minibatches.max(1)).max(1);
    let samplers = [Sampler::Fifo, Sampler::StalenessCapped { max_staleness: 2 }];
    let samples: Vec<f64> = (0..REPS)
        .map(|rep| {
            let mut secs = 0.0;
            let mut calls = 0u64;
            let mut rng = SimRng::derive(plan.seed, "perfbench-data", rep as u64);
            for sampler in samplers {
                let mut buffer = ExperienceBuffer::new(sampler, Eviction::None);
                for e in &experiences {
                    buffer.write(e.clone());
                }
                while buffer.ready(4) > 0 {
                    let (out, s) = timed(|| buffer.sample(minibatch, 4, &mut rng));
                    secs += s;
                    calls += 1;
                    std::hint::black_box(out.len());
                }
            }
            secs * 1e6 / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Recording-trace overhead on one Laminar run of `cfg`: (recording −
/// null) / null wall time, medians of alternating repeats.
fn probe_record_overhead(sys: &LaminarSystem, cfg: &SystemConfig) -> f64 {
    let mut null = Vec::new();
    let mut rec = Vec::new();
    for _ in 0..3 {
        null.push(timed(|| sys.run_traced(cfg, &mut NullTrace)).1);
        let mut trace = RecordingTrace::new();
        rec.push(timed(|| sys.run_traced(cfg, &mut trace)).1);
    }
    let n = median(&null);
    (median(&rec) - n) / n.max(1e-12)
}

/// Share of a chaos trial spent on its invariant audit and in-state trace
/// recording: (run_chaos − plain faulted run) / run_chaos.
fn probe_chaos_audit(sys: &LaminarSystem, cfg: &SystemConfig) -> f64 {
    let mut plain = Vec::new();
    let mut chaos = Vec::new();
    for _ in 0..3 {
        plain.push(timed(|| sys.run_traced(cfg, &mut NullTrace)).1);
        chaos.push(timed(|| sys.run_chaos(cfg)).1);
    }
    let c = median(&chaos);
    (c - median(&plain)) / c.max(1e-12)
}

/// Serial over 2-shard wall time of one Laminar run.
fn probe_sharded(cfg: &SystemConfig) -> f64 {
    let run = |shards: usize| {
        let sys = LaminarSystem {
            shards,
            ..LaminarSystem::default()
        };
        timed(|| sys.run_traced(cfg, &mut NullTrace)).1
    };
    let mut serial = Vec::new();
    let mut sharded = Vec::new();
    for _ in 0..2 {
        serial.push(run(1));
        sharded.push(run(2));
    }
    median(&serial) / median(&sharded).max(1e-12)
}

/// A 16-GPU-class Laminar config for per-system probes on workloads that
/// run no baselines.
fn system_config(kind: SystemKind, like: &SystemConfig) -> SystemConfig {
    let model = like.model.clone();
    let p = laminar_core::placement_for(kind, &model, like.total_gpus());
    let mut cfg = SystemConfig::new(model, p.train, p.rollout, p.tp, like.workload.clone());
    cfg.seed = like.seed;
    cfg.iterations = like.iterations;
    cfg.warmup = like.warmup;
    cfg
}

/// Runs the traced ledger of `kind`.
pub fn run(kind: Kind, seed: u64, shape: Shape) -> RunResult {
    let mut res = RunResult::default();
    let mut buf = String::new();
    let plan = Plan::build(kind, seed, shape);
    let mut first_failure: Option<String> = None;
    let mut note_failure = |res: &mut RunResult, name: &str, leg: &str, e: String| {
        res.failed += 1;
        first_failure.get_or_insert_with(|| format!("{name} ({leg}): {e}"));
    };

    // Untraced serial pass, then the same pass at --jobs 2: the runner
    // layer's speed-up, and the reference fingerprints.
    let (serial, serial_secs) = timed(|| {
        plan.trials
            .iter()
            .map(|t| run_trial(t, &mut buf))
            .collect::<Vec<_>>()
    });
    let (parallel, parallel_secs) = timed(|| {
        laminar_bench::run_indexed(plan.trials.clone(), 2, |_, t| {
            run_trial(&t, &mut String::new())
        })
    });
    let mut sys_secs = SysSecs::default();
    for (trial, (a, b)) in plan.trials.iter().zip(serial.iter().zip(&parallel)) {
        if let Job::System(k, _) = trial.job {
            sys_secs.add(k, a.secs);
        }
        for (leg, out) in [("serial", a), ("jobs 2", b)] {
            res.attempted += 1;
            if let Some(e) = &out.error {
                note_failure(&mut res, &trial.name, leg, e.clone());
            } else if out.fp != a.fp {
                note_failure(
                    &mut res,
                    &trial.name,
                    leg,
                    "output differs from serial".into(),
                );
            }
        }
    }

    // The traced pass: every layer call timed, every trace counted.
    let mut ledger = Ledger::default();
    let t0 = Instant::now();
    let traced: Vec<Outcome> = plan
        .trials
        .iter()
        .map(|t| traced_trial(t, &mut ledger, &mut buf))
        .collect();
    ledger.wall = t0.elapsed().as_secs_f64();
    for (trial, (out, reference)) in plan.trials.iter().zip(traced.iter().zip(&serial)) {
        res.attempted += 1;
        // A decomposed soak fingerprints more than `check_checkpoint_soak`
        // reports, so only the other trials compare against the serial pass.
        let comparable = !matches!(trial.job, Job::Soak(..));
        if let Some(e) = &out.error {
            note_failure(&mut res, &trial.name, "traced", e.clone());
        } else if comparable && out.fp != reference.fp {
            note_failure(
                &mut res,
                &trial.name,
                "traced",
                "output differs from untraced".into(),
            );
        }
    }

    // Layer probes at the workload's shapes.
    let mut laminar = plan.laminar_configs();
    let smallest = laminar[0].clone();
    laminar.sort_by_key(|c| c.replicas());
    let largest = laminar[laminar.len() - 1].clone();
    let middle = laminar[laminar.len() / 2].clone();
    let m = &mut res.metrics;
    m.push(
        "sim.ns_per_event",
        probe_sim(seed, largest.replicas()),
        "ns",
    );
    m.push("workload.ns_per_traj", probe_workload(&smallest), "ns");
    let (events, ns, allocs) = probe_rollout(&plan, &middle);
    m.push("rollout.events", events as f64, "count");
    m.push("rollout.ns_per_event", ns, "ns");
    m.push("rollout.allocs_per_event", allocs, "allocs");
    m.push("repack.plans", ledger.repack_plans as f64, "count");
    m.push("repack.us_per_plan", probe_repack(seed, &largest), "us");
    m.push(
        "repack.released_per_plan",
        ledger.repack_released as f64 / ledger.repack_plans.max(1) as f64,
        "replicas",
    );
    m.push("data.sample_us", probe_data(&plan, &middle), "us");
    m.push("trace.spans", ledger.spans as f64, "count");
    for ((_, name), n) in COUNTED_SPANS.iter().zip(ledger.spans_by_kind) {
        m.push(format!("trace.spans.{name}"), n as f64, "count");
    }
    let faulted = chaotic(&smallest, seed, 4, 90.0);
    let overhead_sys = if kind == Kind::ChaosCkpt {
        faulted.clone()
    } else {
        LaminarSystem::default()
    };
    let overhead_cfg = if kind == Kind::ChaosCkpt {
        &smallest
    } else {
        &middle
    };
    m.push(
        "trace.record_overhead_frac",
        probe_record_overhead(&overhead_sys, overhead_cfg),
        "ratio",
    );
    m.push(
        "trace.ns_per_span",
        ledger.serialize_secs * 1e9 / ledger.serialized_spans.max(1) as f64,
        "ns",
    );

    // Checkpoint plane: the soak trials of chaos-ckpt, or one probe soak of
    // as many points on the grid's smallest Laminar cell.
    if ledger.ckpt.points == 0 {
        let sys = LaminarSystem::default();
        let points = if shape == Shape::Full {
            SOAK_POINTS
        } else {
            2.0
        };
        let every = cadence_for(&sys, &smallest, points);
        let mut probe = Ledger::default();
        let (_, e) = soak_decomposed(&sys, &smallest, every, &mut probe, &mut buf);
        res.attempted += 1;
        if let Some(e) = e {
            note_failure(&mut res, "ckpt probe", "soak", e);
        }
        ledger.ckpt = probe.ckpt;
    }
    let c = ledger.ckpt;
    let points = c.points.max(1) as f64;
    let m = &mut res.metrics;
    m.push("ckpt.points", c.points as f64, "count");
    m.push(
        "ckpt.commit_ms_per_point",
        c.commit_secs * 1e3 / points,
        "ms",
    );
    m.push(
        "ckpt.encode_ms_per_point",
        c.encode_secs * 1e3 / points,
        "ms",
    );
    m.push(
        "ckpt.verify_ms_per_point",
        c.verify_secs * 1e3 / points,
        "ms",
    );
    m.push(
        "ckpt.resume_s",
        c.resume_secs / c.resumes.max(1) as f64,
        "s",
    );
    m.push(
        "ckpt.delta_bytes_per_point",
        (c.delta_bytes as f64 / points).round(),
        "bytes",
    );
    m.push(
        "ckpt.chunk_reuse_frac",
        c.chunks_reused as f64 / c.chunks_total.max(1) as f64,
        "ratio",
    );

    // Core and baselines: seconds per untraced run of each system, from the
    // serial pass where the workload runs it, else from one probe run on a
    // same-sized cell.
    for kind_ in SystemKind::all() {
        let secs = sys_secs.mean(kind_).unwrap_or_else(|| {
            let cfg = system_config(kind_, &smallest);
            timed(|| run_system(kind_, &cfg, &mut NullTrace)).1
        });
        let name = match kind_ {
            SystemKind::Verl => "verl",
            SystemKind::OneStep => "onestep",
            SystemKind::StreamGen => "stream",
            SystemKind::PartialRollout => "areal",
            SystemKind::Laminar => "laminar",
        };
        res.metrics.push(format!("sys.{name}.run_s"), secs, "s");
    }
    let m = &mut res.metrics;
    m.push(
        "core.chaos_audit_frac",
        probe_chaos_audit(&faulted, &smallest),
        "ratio",
    );
    m.push("core.sharded_s2_speedup", probe_sharded(&middle), "x");

    let fleet_cfg = fleet_config(seed, 1);
    let runs: Vec<(usize, f64)> = (0..REPS)
        .map(|_| {
            let (run, secs) = timed(|| run_fleet(&fleet_cfg));
            (run.violations().len(), secs)
        })
        .collect();
    m.push(
        "fleet.run_ms",
        median(&runs.iter().map(|r| r.1 * 1e3).collect::<Vec<_>>()),
        "ms",
    );
    m.push("fleet.violations", runs[0].0 as f64, "count");
    m.push(
        "runner.jobs2_speedup",
        serial_secs / parallel_secs.max(1e-12),
        "x",
    );
    m.push(
        "ledger.unattributed_frac",
        (1.0 - ledger.attributed / ledger.wall.max(1e-12)).max(0.0),
        "ratio",
    );

    if !alloc_count::is_active() {
        res.other_errors
            .push("counting allocator is not registered".to_string());
    }
    let mut output = Fnv::default();
    for out in &serial {
        output.word(out.fp);
    }
    let n = &mut res.notes;
    n.push(format!(
        "context: workload {} | seed {seed} | available_parallelism {} | traced ledger | shape {:?}",
        kind.name(),
        laminar_bench::default_jobs(),
        shape,
    ));
    n.push(format!(
        "counts: {} trials per pass, run serially, at --jobs 2, and traced | {} trajectories per pass | traced pass {:.2} s, {:.2} s inside timed layer calls",
        plan.trials.len(),
        plan.trajectories_per_pass(),
        ledger.wall,
        ledger.attributed,
    ));
    n.push(format!(
        "probe shapes: sim depth {} | rollout batch {} on {} replicas | repack over {} replicas | data batch {} | ckpt cadence points {}",
        largest.replicas(),
        replica_batch(&middle),
        middle.replicas(),
        largest.replicas(),
        plan.specs.len(),
        c.points,
    ));
    res.close_notes(first_failure, output.0, plan.input_fp());
    for (name, _, moves) in LAYER_METRICS {
        res.notes.push(format!("predicts: {name} -> {moves}"));
    }
    res
}
