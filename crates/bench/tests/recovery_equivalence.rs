//! Acceptance gate for deterministic checkpoint/restore: every system runs
//! uninterrupted, checkpointed, and resumed-from-every-snapshot, at two
//! different cadences, and the report text and trace JSONL must be
//! byte-identical across all three. Snapshot-by-clone copies the scheduler
//! queue storage verbatim and every system buffers its trace spans in run
//! state, so a resumed run re-emits the complete history from `t = 0`.

use laminar_baselines::{OneStepStaleness, PartialRollout, StreamGeneration, VerlSync};
use laminar_core::LaminarSystem;
use laminar_runtime::recovery::{check_checkpoint_soak, check_resume_equivalence, Recoverable};
use laminar_runtime::SystemConfig;
use laminar_sim::Duration;
use laminar_workload::{Checkpoint, WorkloadGenerator};

/// Disaggregated placement; `train_gpus = 0` below yields the colocated
/// placement verl requires.
fn disagg() -> SystemConfig {
    let mut c = SystemConfig::small_test(WorkloadGenerator::single_turn(7, Checkpoint::Math7B));
    c.train_gpus = 4;
    c.rollout_gpus = 4;
    c.iterations = 3;
    c.warmup = 0;
    c
}

fn colocated() -> SystemConfig {
    let mut c = disagg();
    c.train_gpus = 0;
    c.rollout_gpus = 8;
    c
}

fn assert_equivalent<S: Recoverable>(sys: &S, cfg: &SystemConfig, name: &str) {
    // Two cadences with no common divisor, so snapshots land at different
    // run states in each pass.
    for secs in [20u64, 33] {
        let eq = check_resume_equivalence(sys, cfg, Duration::from_secs(secs));
        assert!(
            eq.snapshots > 0,
            "{name} @ {secs}s: run too short to cross a cadence point"
        );
        assert!(
            eq.identical(),
            "{name} @ {secs}s: {} ({}/{} resumes identical, checkpointed identical: {})",
            eq.first_divergence.as_deref().unwrap_or("diverged"),
            eq.resumes_identical,
            eq.snapshots,
            eq.checkpointed_identical,
        );
    }
}

#[test]
fn laminar_resume_is_byte_identical() {
    assert_equivalent(&LaminarSystem::default(), &disagg(), "laminar");
}

#[test]
fn verl_resume_is_byte_identical() {
    assert_equivalent(&VerlSync, &colocated(), "verl");
}

#[test]
fn one_step_resume_is_byte_identical() {
    assert_equivalent(&OneStepStaleness, &disagg(), "one-step");
}

#[test]
fn stream_gen_resume_is_byte_identical() {
    assert_equivalent(&StreamGeneration, &disagg(), "stream-gen");
}

#[test]
fn partial_rollout_resume_is_byte_identical() {
    assert_equivalent(&PartialRollout, &disagg(), "partial-rollout");
}

/// Checkpointing a chaos-laden Laminar run must be equally transparent:
/// snapshots taken mid-fault (dead replicas, tripped breakers, degraded
/// mode) still resume byte-identically.
#[test]
fn laminar_resume_under_faults_is_byte_identical() {
    let cfg = disagg();
    let sys = LaminarSystem {
        faults: laminar_core::overlapping_scenario(cfg.replicas()),
        ..LaminarSystem::default()
    };
    assert_equivalent(&sys, &cfg, "laminar+faults");
}

/// A cadence longer than the run commits no checkpoint, so neither checker
/// has anything to prove: both fail closed and name the reason.
#[test]
fn checks_fail_closed_when_no_checkpoint_is_committed() {
    let cfg = disagg();
    let (sys, every) = (LaminarSystem::default(), Duration::from_secs(100_000));
    for check in [
        check_resume_equivalence(&sys, &cfg, every),
        check_checkpoint_soak(&sys, &cfg, every),
    ] {
        let counts = (check.snapshots, check.resumes);
        assert_eq!(counts, (0, 0), "the cadence must outlast the run");
        assert!(!check.identical(), "a run with no checkpoint must not pass");
        let why = check.first_divergence.unwrap_or_default();
        assert!(
            why.starts_with("run ended before the first cadence point"),
            "reason must say no checkpoint was committed, got {why:?}"
        );
    }
}
