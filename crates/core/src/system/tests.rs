//! Laminar system behaviour tests. Cross-system throughput comparisons
//! against the baselines live in the workspace-level `tests/` suite, which
//! can see both crates.

use super::*;
use laminar_runtime::{RecordingTrace, RlSystem, SpanKind};
use laminar_workload::{Checkpoint, WorkloadGenerator};

fn cfg() -> SystemConfig {
    let mut c = SystemConfig::small_test(WorkloadGenerator::single_turn(3, Checkpoint::Math7B));
    c.train_gpus = 4;
    c.rollout_gpus = 4;
    c
}

#[test]
fn laminar_completes_with_low_staleness() {
    let r = LaminarSystem::default().run(&cfg());
    assert_eq!(r.iteration_secs.len(), 2);
    assert!(r.throughput > 0.0);
    assert!(
        r.max_staleness() <= 4,
        "paper observes ≤4: {}",
        r.max_staleness()
    );
    assert_eq!(
        r.mixed_version_fraction(),
        0.0,
        "single version per trajectory"
    );
}

#[test]
fn rollout_waits_are_small() {
    let r = LaminarSystem::default().run(&cfg());
    // Pull-from-colocated-relay over PCIe: well under the NCCL global
    // sync cost of the same model (Figure 14).
    let nccl = cfg()
        .collective()
        .nccl_broadcast_secs(&cfg().model, cfg().rollout_gpus);
    for &w in &r.rollout_waits {
        assert!(w < nccl, "pull {w} must beat global sync {nccl}");
    }
}

#[test]
fn fault_injection_recovers() {
    let sys = LaminarSystem {
        faults: vec![FaultEvent::machine_crash(
            Time::from_secs(60),
            vec![0, 1],
            Duration::from_secs(252),
        )],
        record_timeline: true,
        sample_every: Duration::from_secs(20),
        ..LaminarSystem::default()
    };
    let mut c = cfg();
    c.iterations = 3;
    let r = sys.run(&c);
    assert_eq!(
        r.iteration_secs.len(),
        3,
        "training survives the machine failure"
    );
    assert!(!r.gen_series.is_empty());
}

#[test]
fn trainer_fault_recovers_from_checkpoint() {
    let sys = LaminarSystem {
        faults: vec![FaultEvent::trainer_crash(
            Time::from_secs(120),
            Duration::from_secs(90),
        )],
        checkpoint_every: 1,
        ..LaminarSystem::default()
    };
    let mut c = cfg();
    c.iterations = 3;
    c.warmup = 0;
    let clean = LaminarSystem::default().run(&c);
    let hurt = sys.run(&c);
    // Same number of iterations complete; the faulty run is slower but
    // bounded (checkpoint every version => at most one replayed update).
    assert_eq!(hurt.iteration_secs.len(), clean.iteration_secs.len());
    let slow: f64 = hurt.iteration_secs.iter().sum();
    let fast: f64 = clean.iteration_secs.iter().sum();
    assert!(slow >= fast, "fault cannot speed training up");
    assert!(
        slow < fast + 600.0,
        "recovery cost bounded: {slow} vs {fast}"
    );
}

#[test]
fn elastic_replicas_raise_throughput() {
    let mut c = cfg();
    c.iterations = 3;
    c.warmup = 1;
    let base = LaminarSystem::default().run(&c);
    let grown = LaminarSystem {
        elastic: Some(ElasticSpec {
            at: Time::from_secs(30),
            replicas: 4,
        }),
        ..LaminarSystem::default()
    }
    .run(&c);
    assert!(
        grown.throughput > base.throughput,
        "extra rollouts must help a generation-bound job: {} vs {}",
        grown.throughput,
        base.throughput
    );
}

#[test]
fn no_repack_variant_runs() {
    let sys = LaminarSystem {
        repack: false,
        ..LaminarSystem::default()
    };
    let r = sys.run(&cfg());
    assert_eq!(r.repack_events, 0);
    assert!(r.throughput > 0.0);
    assert_eq!(r.system, "laminar-no-repack");
}

#[test]
fn traced_run_covers_every_laminar_phase() {
    let mut trace = RecordingTrace::new();
    let traced = LaminarSystem::default().run_traced(&cfg(), &mut trace);
    let count = |k: SpanKind| trace.of_kind(k).len();
    // Engine phases plus driver phases all present.
    assert!(count(SpanKind::Prefill) > 0);
    assert!(count(SpanKind::DecodeStep) > 0);
    assert!(count(SpanKind::TrainStep) >= cfg().total_iterations());
    assert!(
        count(SpanKind::WeightSync) > 0,
        "relay publishes + replica pulls traced"
    );
    for s in trace.spans() {
        assert!(s.end >= s.start);
    }
    // Replica-side weight pulls carry the replica id; actor publishes are
    // global.
    let syncs = trace.of_kind(SpanKind::WeightSync);
    assert!(
        syncs.iter().any(|s| s.replica.is_none()),
        "actor publish spans"
    );
    // Tracing must not perturb the simulation.
    let plain = LaminarSystem::default().run(&cfg());
    assert_eq!(plain.throughput, traced.throughput);
    assert_eq!(plain.iteration_secs, traced.iteration_secs);
}

/// Regression: killing every replica in one event used to redirect drained
/// trajectories onto replicas listed later in the same kill set. With all
/// victims marked dead before any redirect is planned, nothing can be
/// redirected (there is no survivor) — everything returns to the prompt
/// pool and the lost-work invariants hold.
#[test]
fn killing_all_replicas_redirects_nothing() {
    let sys = LaminarSystem {
        faults: vec![FaultEvent::machine_crash(
            Time::from_secs(30),
            vec![0, 1, 2, 3],
            Duration::from_secs(60),
        )],
        ..LaminarSystem::default()
    };
    let mut c = cfg();
    c.iterations = 3;
    let run = sys.run_chaos(&c);
    assert_eq!(
        run.outcome.audit.redirects, 0,
        "no survivor can take redirects when the whole fleet dies"
    );
    assert!(
        run.outcome.audit.repooled > 0,
        "drained work returns to the prompt pool"
    );
    assert_eq!(run.violations(), Vec::<String>::new());
    assert_eq!(run.report.iteration_secs.len(), 3);
}

/// `load_samples` is the only filter that keeps a repack off a dead
/// machine: the rollout manager plans over whatever it is handed. After
/// a kill, the samples name live replicas only.
#[test]
fn repack_samples_only_live_replicas() {
    let mut run = LaminarSystem::default().start(&cfg(), false);
    assert!(!LaminarSystem::advance(&mut run, Time::from_secs(20)));
    let sim = &mut run.sim;
    let now = sim.scheduler.now();
    sim.world
        .kill_machines(&[0, 1], Duration::from_secs(600), now, &mut sim.scheduler);
    let samples = sim.world.load_samples(now);
    assert!(!samples.is_empty(), "the survivors are sampled");
    assert!(samples.iter().all(|s| s.replica >= 2), "{samples:?}");
}

/// Regression: redirects used to ignore the target's occupancy entirely.
/// With every replica loaded to its roofline batch bound, a kill must fall
/// back to the prompt pool instead of overcommitting a survivor.
#[test]
fn kill_redirect_respects_target_capacity() {
    let mut c = cfg();
    c.iterations = 3;
    // Deep prompt pool so every replica starts with a full over-roofline
    // batch, and a kill at 1 s — before anything completes — so all four
    // survivors are provably at capacity when the redirects are planned.
    c.prompts_per_batch = 64;
    let roofline_b = c.decode_model().roofline_batch_limit();
    let sys = LaminarSystem {
        faults: vec![FaultEvent::machine_crash(
            Time::from_secs(1),
            vec![0],
            Duration::from_secs(60),
        )],
        replica_batch: Some(roofline_b + 8),
        ..LaminarSystem::default()
    };
    let run = sys.run_chaos(&c);
    assert_eq!(
        run.outcome.audit.redirects, 0,
        "survivors past the roofline bound must not accept redirects"
    );
    assert!(
        run.outcome.audit.repooled as usize >= roofline_b,
        "the victim's whole batch returns to the prompt pool: {}",
        run.outcome.audit.repooled
    );
    assert_eq!(run.violations(), Vec::<String>::new());
}

/// Regression: trainer recovery used to discard the checkpoint resume
/// version. The failure span now carries the version the actor rolled back
/// to, which must equal the newest checkpoint at the failure instant.
#[test]
fn trainer_recovery_rolls_back_to_checkpoint_version() {
    let every = 2;
    let sys = LaminarSystem {
        faults: vec![FaultEvent::trainer_crash(
            Time::from_secs(120),
            Duration::from_secs(60),
        )],
        checkpoint_every: every,
        ..LaminarSystem::default()
    };
    let mut c = cfg();
    c.iterations = 4;
    c.warmup = 0;
    let run = sys.run_chaos(&c);
    let failures: Vec<_> = run
        .trace
        .of_kind(SpanKind::Failure)
        .into_iter()
        .filter(|s| s.replica.is_none())
        .collect();
    assert_eq!(failures.len(), 1, "exactly one trainer failure span");
    let fail = failures[0];
    let v_at_fail = run
        .trace
        .of_kind(SpanKind::TrainStep)
        .iter()
        .filter(|s| s.end <= fail.start)
        .count() as u64;
    assert!(v_at_fail >= 1, "failure strikes after the first iteration");
    assert_eq!(
        fail.version,
        v_at_fail - v_at_fail % every,
        "actor resumes from the newest checkpoint, not the crash version"
    );
    assert_eq!(
        fail.tokens,
        v_at_fail % every,
        "replayed update count recorded on the span"
    );
    assert_eq!(run.violations(), Vec::<String>::new());
    assert_eq!(run.report.iteration_secs.len(), 4);
}

/// The acceptance scenario: a replica crash while the relay tier is down
/// *and* the trainer is mid-recovery, plus a straggler and an env stall.
/// All invariants green, and the run is deterministic.
#[test]
fn overlapping_chaos_scenario_upholds_invariants() {
    let mut c = SystemConfig::small_test(laminar_workload::WorkloadGenerator::multi_turn(5));
    c.train_gpus = 4;
    c.rollout_gpus = 4;
    c.iterations = 3;
    c.warmup = 0;
    let sys = LaminarSystem {
        faults: crate::chaos::overlapping_scenario(4),
        ..LaminarSystem::default()
    };
    let a = sys.run_chaos(&c);
    assert_eq!(a.violations(), Vec::<String>::new());
    assert!(
        a.outcome.audit.faults_applied >= 5,
        "all five scheduled faults strike"
    );
    assert!(a.outcome.completed() > 0);
    let b = sys.run_chaos(&c);
    assert_eq!(a.report.throughput, b.report.throughput, "deterministic");
    assert_eq!(
        a.trace.to_jsonl(),
        b.trace.to_jsonl(),
        "deterministic trace"
    );
}

/// Soak: a dense generated schedule (200+ faults inside a 90 s horizon)
/// pushed through `run_chaos`. Every invariant must hold — including the
/// recovery-plane ones (no admission past an open breaker, degraded-mode
/// staleness within bound) and full reclamation of dead-replica state (KV
/// accounting, heap entries, health-map rows) — and the whole ordeal must
/// be deterministic.
#[test]
fn soak_dense_schedule_upholds_all_invariants() {
    let mut c = cfg();
    c.iterations = 3;
    c.warmup = 0;
    let chaos = crate::chaos::ChaosConfig {
        events: 220,
        earliest: Time::from_secs(5),
        horizon: Time::from_secs(90),
        replicas: c.replicas(),
    };
    let sys = LaminarSystem {
        faults: crate::chaos::generate_schedule(11, &chaos),
        staleness_cap: Some(4),
        ..LaminarSystem::default()
    };
    let a = sys.run_chaos(&c);
    assert_eq!(a.violations(), Vec::<String>::new());
    assert!(
        a.outcome.audit.faults_applied >= 100,
        "the schedule actually lands: {} faults applied",
        a.outcome.audit.faults_applied
    );
    assert_eq!(a.report.iteration_secs.len(), 3, "training survives");
    let b = sys.run_chaos(&c);
    assert_eq!(a.trace.to_jsonl(), b.trace.to_jsonl(), "deterministic");
}

/// Losing half the fleet for longer than the degraded window must open a
/// `degraded` span, shrink admission, and close it with a `recovered` span
/// once capacity returns — all without breaching the (relaxed) staleness
/// bound.
#[test]
fn sustained_capacity_loss_enters_and_exits_degraded_mode() {
    let mut c = cfg();
    c.iterations = 3;
    c.warmup = 0;
    let sys = LaminarSystem {
        faults: vec![FaultEvent::machine_crash(
            Time::from_secs(10),
            vec![0, 1],
            Duration::from_secs(50),
        )],
        staleness_cap: Some(4),
        ..LaminarSystem::default()
    };
    let run = sys.run_chaos(&c);
    assert_eq!(run.violations(), Vec::<String>::new());
    assert!(
        run.outcome.audit.degraded_entries >= 1,
        "half the fleet gone past the window must degrade the driver"
    );
    let degraded = run.trace.of_kind(SpanKind::Degraded);
    let recovered = run.trace.of_kind(SpanKind::Recovered);
    assert!(!degraded.is_empty(), "degraded marker span emitted");
    assert!(
        !recovered.is_empty(),
        "capacity returning closes the episode with a recovered span"
    );
    // The recovered span covers the whole episode: entry to exit.
    let ep = recovered[0];
    assert!(ep.end > ep.start, "episode has positive MTTR");
    assert_eq!(run.report.iteration_secs.len(), 3);
}

/// A flapping straggler — repeated `SlowNode` hits inside the breaker
/// window — must trip its circuit breaker, and the driver must stop
/// admitting work on that replica until the cooldown probe.
#[test]
fn flapping_slow_node_trips_breaker_and_blocks_admission() {
    let mut c = cfg();
    c.iterations = 3;
    c.warmup = 0;
    let flapper = 1usize;
    let flap = |secs: u64| FaultEvent {
        at: Time::from_secs(secs),
        kind: crate::chaos::FaultKind::SlowNode {
            replica: flapper,
            factor: 3.0,
            duration: Duration::from_secs(5),
        },
    };
    let sys = LaminarSystem {
        faults: vec![flap(10), flap(18), flap(26)],
        ..LaminarSystem::default()
    };
    let run = sys.run_chaos(&c);
    assert_eq!(run.violations(), Vec::<String>::new());
    assert!(
        run.outcome.breaker_trips[flapper] >= 1,
        "three flaps inside the window must trip the breaker: {:?}",
        run.outcome.breaker_trips
    );
    assert!(
        run.outcome.audit.breaker_blocked >= 1,
        "an open breaker must deny at least one admission"
    );
    assert_eq!(run.report.iteration_secs.len(), 3);
}

/// Regression: a permanently-stalled env call used to wedge its batch (the
/// trajectory never completed, the iteration never filled). The retry
/// budget now bounds the stall — the trajectory ends early as aborted and
/// the run completes every iteration.
#[test]
fn permanently_stalled_env_aborts_trajectory_instead_of_wedging() {
    let mut c = SystemConfig::small_test(laminar_workload::WorkloadGenerator::multi_turn(9));
    c.train_gpus = 4;
    c.rollout_gpus = 4;
    c.iterations = 3;
    c.warmup = 0;
    // Several strikes so at least one lands while env calls are in flight;
    // `extra` is effectively infinite next to the retry budget.
    let stall = |secs: u64| FaultEvent {
        at: Time::from_secs(secs),
        kind: crate::chaos::FaultKind::EnvStall {
            replica: 0,
            extra: Duration::from_secs(100_000),
        },
    };
    let sys = LaminarSystem {
        faults: vec![stall(5), stall(15), stall(25)],
        ..LaminarSystem::default()
    };
    let run = sys.run_chaos(&c);
    assert_eq!(run.violations(), Vec::<String>::new());
    assert!(
        run.outcome.env_aborts >= 1,
        "the stalled call must burn its retry budget and abort"
    );
    assert_eq!(
        run.report.iteration_secs.len(),
        3,
        "the batch must not wedge: every iteration completes"
    );
}

/// A straggler window must slow generation while it lasts and leave the
/// run's guarantees intact once it ends.
#[test]
fn slow_node_hurts_throughput_then_recovers() {
    let mut c = cfg();
    c.iterations = 3;
    c.warmup = 0;
    let clean = LaminarSystem::default().run(&c);
    let sys = LaminarSystem {
        faults: vec![FaultEvent {
            at: Time::from_secs(10),
            kind: crate::chaos::FaultKind::SlowNode {
                replica: 0,
                factor: 4.0,
                duration: Duration::from_secs(120),
            },
        }],
        ..LaminarSystem::default()
    };
    let run = sys.run_chaos(&c);
    assert_eq!(run.violations(), Vec::<String>::new());
    assert!(
        run.report.throughput <= clean.throughput,
        "a 4× straggler cannot speed the run up: {} vs {}",
        run.report.throughput,
        clean.throughput
    );
}
