//! Property-style tests of replica-engine invariants under randomized
//! workloads, including multi-turn segments, interrupts, and moves.
//!
//! Cases are generated from [`SimRng`] with fixed seeds so failures are
//! reproducible: rerun with the printed `case` seed to replay one instance.

use laminar_cluster::{DecodeModel, GpuSpec, ModelSpec};
use laminar_rollout::{EngineConfig, ReplicaEngine};
use laminar_sim::{Duration, SimRng, Time};
use laminar_workload::{Segment, TrajectorySpec};

const CASES: u64 = 32;

fn decode() -> DecodeModel {
    DecodeModel::new(ModelSpec::qwen_7b(), GpuSpec::h800(), 1)
}

/// 1-3 decode segments separated by env calls, random lengths.
fn random_spec(rng: &mut SimRng, id: u64) -> TrajectorySpec {
    let decodes = rng.range_u64(1, 4) as usize;
    let mut segments = Vec::new();
    for i in 0..decodes {
        if i > 0 {
            segments.push(Segment::Env {
                latency: Duration::from_secs(rng.below(20)),
            });
        }
        segments.push(Segment::Decode {
            tokens: rng.range_u64(64, 2000),
        });
    }
    TrajectorySpec {
        id,
        prompt_id: id,
        group_index: 0,
        prompt_tokens: rng.range_u64(64, 1024),
        segments: segments.into(),
    }
}

fn run_to_idle(e: &mut ReplicaEngine) {
    let mut guard = 0;
    while let Some(t) = e.next_event_time() {
        e.advance_to(t);
        guard += 1;
        assert!(guard < 2_000_000, "engine failed to quiesce");
    }
    assert!(e.is_idle());
}

/// Multi-segment trajectories all complete with exact token counts, and
/// KVCache accounting returns to zero at quiesce.
#[test]
fn multi_turn_conservation() {
    for case in 0..CASES {
        let mut rng = SimRng::derive(0xC0_45E5, "multi_turn_conservation", case);
        let n = rng.range_u64(1, 12);
        let mut e = ReplicaEngine::new(0, decode(), EngineConfig::default());
        let mut expected = 0u64;
        for i in 0..n {
            let s = random_spec(&mut rng, i);
            expected += s.total_tokens();
            e.submit(s, Time::ZERO);
        }
        run_to_idle(&mut e);
        let done = e.take_completions();
        let total: u64 = done.iter().map(|c| c.spec.total_tokens()).sum();
        assert_eq!(total, expected, "case {case}");
        assert!(
            e.kv_used_tokens().abs() < 1e-6,
            "case {case}: kv must drain to zero"
        );
        assert!(e.kv_reserved_tokens().abs() < 1e-6, "case {case}");
    }
}

/// Interrupting at arbitrary times never loses or duplicates work, and
/// records the version history faithfully.
#[test]
fn interrupts_preserve_work() {
    for case in 0..CASES {
        let mut rng = SimRng::derive(0xC0_45E5, "interrupts_preserve_work", case);
        let n = rng.range_u64(1, 10) as usize;
        let cut_secs = rng.range_u64(1, 200);
        let mut e = ReplicaEngine::new(0, decode(), EngineConfig::default());
        for i in 0..n as u64 {
            let spec = TrajectorySpec {
                id: i,
                prompt_id: i,
                group_index: 0,
                prompt_tokens: 256,
                segments: vec![Segment::Decode {
                    tokens: 1500 + i * 137,
                }]
                .into(),
            };
            e.submit(spec, Time::ZERO);
        }
        e.interrupt_with_weights(1, Time::from_secs(cut_secs));
        e.interrupt_with_weights(2, Time::from_secs(cut_secs + 5));
        run_to_idle(&mut e);
        let done = e.take_completions();
        assert_eq!(done.len(), n, "case {case}");
        for c in &done {
            // Versions are non-decreasing along the trajectory and end at
            // the newest interrupting version that touched it.
            let versions = c.policy_versions.to_vec();
            assert!(
                versions.windows(2).all(|w| w[0] <= w[1]),
                "case {case}: {versions:?}"
            );
            assert!(c.policy_versions.last() <= 2, "case {case}");
        }
    }
}

/// Draining at an arbitrary instant and injecting into a fresh replica
/// completes everything with exact totals.
#[test]
fn move_at_any_time_conserves() {
    for case in 0..CASES {
        let mut rng = SimRng::derive(0xC0_45E5, "move_at_any_time_conserves", case);
        let cut_ms = rng.range_u64(1, 120_000);
        let mut src = ReplicaEngine::new(0, decode(), EngineConfig::default());
        let mut expected = 0u64;
        for i in 0..6u64 {
            let spec = TrajectorySpec {
                id: i,
                prompt_id: i,
                group_index: 0,
                prompt_tokens: 300,
                segments: vec![
                    Segment::Decode {
                        tokens: 900 + i * 211,
                    },
                    Segment::Env {
                        latency: Duration::from_secs(3 + i),
                    },
                    Segment::Decode { tokens: 700 },
                ]
                .into(),
            };
            expected += spec.total_tokens();
            src.submit(spec, Time::ZERO);
        }
        let cut = Time::from_millis(cut_ms);
        src.advance_to(cut);
        let mut done = src.take_completions();
        let moved = src.drain_in_progress(cut);
        let mut dst = ReplicaEngine::new(1, decode(), EngineConfig::default());
        dst.inject(moved, cut);
        run_to_idle(&mut dst);
        done.extend(dst.take_completions());
        assert_eq!(done.len(), 6, "case {case} (cut at {cut_ms}ms)");
        let total: u64 = done.iter().map(|c| c.spec.total_tokens()).sum();
        assert_eq!(total, expected, "case {case} (cut at {cut_ms}ms)");
    }
}
