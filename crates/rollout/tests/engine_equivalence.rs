//! Equivalence of the indexed O(1)-per-event replica engine against the
//! retained naive full-scan reference over randomized schedules.
//!
//! Both engines are driven through identical operation sequences —
//! staggered submissions, mid-flight weight interrupts, and event-by-event
//! stepping — and must produce the same trajectory timeline: the same
//! completions in the same order, with the same policy-version histories,
//! and completion instants equal up to a few nanoseconds (the indexed
//! engine accumulates decode progress globally instead of per trajectory,
//! so the last-ulp float rounding of an event instant may differ; the
//! per-segment snap-to-exact logic prevents any accumulation beyond that).
//!
//! Cases are generated from [`SimRng`] with fixed seeds so failures are
//! reproducible from the printed `case` index.

use laminar_cluster::{DecodeModel, GpuSpec, ModelSpec};
use laminar_rollout::{CompletedTraj, EngineConfig, NaiveReplicaEngine, ReplicaEngine};
use laminar_sim::{Duration, SimRng, Time};
use laminar_workload::{Segment, TrajectorySpec};

const CASES: u64 = 24;
/// Completion-instant tolerance. Event times are whole nanoseconds; the
/// global-accumulator rounding can shift an instant by an ulp, which after
/// ns-rounding is at most a few ns per segment boundary.
const TIME_TOL_NS: i64 = 64;

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

/// One randomized operation schedule, applied identically to both engines.
#[derive(Debug, Clone)]
enum Op {
    Submit(Time, TrajectorySpec),
    Interrupt(Time, u64),
    /// Non-interrupting weight publish ([`ReplicaEngine::set_weight_version`]).
    SetVersion(Time, u64),
}

fn random_schedule(rng: &mut SimRng) -> Vec<Op> {
    let n = rng.range_u64(2, 24);
    let mut ops: Vec<Op> = (0..n)
        .map(|i| Op::Submit(Time::from_secs(rng.below(60)), random_spec(rng, i)))
        .collect();
    let interrupts = rng.below(3);
    for v in 0..interrupts {
        ops.push(Op::Interrupt(
            Time::from_secs(rng.range_u64(10, 120)),
            v + 1,
        ));
    }
    ops.sort_by_key(|op| match *op {
        Op::Submit(t, ref s) => (t, 0, s.id),
        Op::Interrupt(t, v) => (t, 1, v),
        Op::SetVersion(t, v) => (t, 2, v),
    });
    ops
}

/// A denser schedule in the style of the chaos plane's fault timelines:
/// more trajectories, staggered arrival over a longer window, and an
/// interleaved mix of interrupting and non-interrupting weight publishes
/// with monotonically increasing versions.
fn chaos_schedule(rng: &mut SimRng) -> Vec<Op> {
    let n = rng.range_u64(8, 48);
    let mut ops: Vec<Op> = (0..n)
        .map(|i| Op::Submit(Time::from_secs(rng.below(180)), random_spec(rng, i)))
        .collect();
    let publishes = rng.range_u64(2, 7);
    let mut at = 0u64;
    for v in 0..publishes {
        at += rng.range_u64(10, 60);
        ops.push(if rng.chance(0.5) {
            Op::Interrupt(Time::from_secs(at), v + 1)
        } else {
            Op::SetVersion(Time::from_secs(at), v + 1)
        });
    }
    ops.sort_by_key(|op| match *op {
        Op::Submit(t, ref s) => (t, 0, s.id),
        Op::Interrupt(t, v) => (t, 1, v),
        Op::SetVersion(t, v) => (t, 2, v),
    });
    ops
}

fn assert_timeline_eq(case: u64, indexed: &[CompletedTraj], naive: &[CompletedTraj]) {
    assert_eq!(
        indexed.len(),
        naive.len(),
        "case {case}: completion counts differ"
    );
    for (a, b) in indexed.iter().zip(naive) {
        assert_eq!(
            a.spec.id, b.spec.id,
            "case {case}: completion order differs"
        );
        assert_eq!(
            a.policy_versions, b.policy_versions,
            "case {case}: version history differs for id {}",
            a.spec.id
        );
        assert_eq!(a.started_at, b.started_at, "case {case}: start differs");
        let dt = a.finished_at.as_nanos() as i64 - b.finished_at.as_nanos() as i64;
        assert!(
            dt.abs() <= TIME_TOL_NS,
            "case {case}: id {} finished at {} (indexed) vs {} (naive), Δ={dt}ns",
            a.spec.id,
            a.finished_at.as_nanos(),
            b.finished_at.as_nanos()
        );
    }
}

/// Steps both engines through the same schedule event by event; the indexed
/// hot path must reproduce the naive timeline.
#[test]
fn indexed_engine_matches_naive_reference() {
    for case in 0..CASES {
        let mut rng = SimRng::derive(0x1D_EA1, "engine_equivalence", case);
        let ops = random_schedule(&mut rng);
        let cfg = EngineConfig {
            max_concurrency: rng.range_u64(2, 32) as usize,
            ..EngineConfig::default()
        };
        let mut fast = ReplicaEngine::new(0, decode(), cfg.clone());
        let mut slow = NaiveReplicaEngine::new(decode(), cfg);
        for op in &ops {
            match op {
                Op::Submit(t, spec) => {
                    fast.submit(spec.clone(), *t);
                    slow.submit(spec.clone(), *t);
                }
                Op::Interrupt(t, v) => {
                    fast.interrupt_with_weights(*v, *t);
                    slow.interrupt_with_weights(*v, *t);
                }
                Op::SetVersion(t, v) => {
                    fast.set_weight_version(*v, *t);
                    slow.set_weight_version(*v, *t);
                }
            }
        }
        let mut guard = 0u64;
        loop {
            // Drive each engine by its own next-event time: the instants may
            // drift by an ulp, so lockstepping on one engine's clock would
            // bias the comparison.
            let (tf, ts) = (fast.next_event_time(), slow.next_event_time());
            if tf.is_none() && ts.is_none() {
                break;
            }
            if let Some(t) = tf {
                fast.advance_to(t);
            }
            if let Some(t) = ts {
                slow.advance_to(t);
            }
            guard += 1;
            assert!(guard < 4_000_000, "case {case}: engines failed to quiesce");
        }
        assert!(fast.is_idle(), "case {case}: indexed engine left work");
        assert!(slow.is_idle(), "case {case}: naive engine left work");
        assert_timeline_eq(case, &fast.take_completions(), &slow.take_completions());
        assert!(
            (fast.tokens_decoded() - slow.tokens_decoded()).abs() < 1.0,
            "case {case}: decoded token totals diverged: {} vs {}",
            fast.tokens_decoded(),
            slow.tokens_decoded()
        );
        assert_eq!(fast.completed_count(), slow.completed_count());
    }
}

/// The slab-backed active set must be invisible next to the naive
/// reference's `BTreeMap` under chaos-style schedules: dense staggered
/// arrivals with a mixed stream of interrupting and non-interrupting weight
/// publishes, over the same seed range the chaos plane sweeps. Guards the
/// slab's id-ordered iteration, free-list reuse, and the `(first, extras)`
/// policy-version encoding against the reference timeline.
#[test]
fn slab_engine_matches_naive_over_chaos_schedules() {
    for seed in 0..32u64 {
        let mut rng = SimRng::derive(seed, "chaos-schedule", 0);
        let ops = chaos_schedule(&mut rng);
        let cfg = EngineConfig {
            max_concurrency: rng.range_u64(2, 48) as usize,
            ..EngineConfig::default()
        };
        let mut fast = ReplicaEngine::new(0, decode(), cfg.clone());
        let mut slow = NaiveReplicaEngine::new(decode(), cfg);
        for op in &ops {
            match op {
                Op::Submit(t, spec) => {
                    fast.submit(spec.clone(), *t);
                    slow.submit(spec.clone(), *t);
                }
                Op::Interrupt(t, v) => {
                    fast.interrupt_with_weights(*v, *t);
                    slow.interrupt_with_weights(*v, *t);
                }
                Op::SetVersion(t, v) => {
                    fast.set_weight_version(*v, *t);
                    slow.set_weight_version(*v, *t);
                }
            }
        }
        let mut guard = 0u64;
        loop {
            let (tf, ts) = (fast.next_event_time(), slow.next_event_time());
            if tf.is_none() && ts.is_none() {
                break;
            }
            if let Some(t) = tf {
                fast.advance_to(t);
            }
            if let Some(t) = ts {
                slow.advance_to(t);
            }
            guard += 1;
            assert!(guard < 8_000_000, "seed {seed}: engines failed to quiesce");
        }
        assert!(fast.is_idle(), "seed {seed}: slab engine left work");
        assert!(slow.is_idle(), "seed {seed}: naive engine left work");
        assert_timeline_eq(seed, &fast.take_completions(), &slow.take_completions());
        assert_eq!(fast.completed_count(), slow.completed_count());
    }
}

/// The indexed engine's lazy accounting must stay internally consistent:
/// repeated runs of the same schedule are byte-identical.
#[test]
fn indexed_engine_is_deterministic_across_runs() {
    let run = |case: u64| {
        let mut rng = SimRng::derive(0xD0_0D5, "engine_equivalence_det", case);
        let ops = random_schedule(&mut rng);
        let mut e = ReplicaEngine::new(0, decode(), EngineConfig::default());
        for op in &ops {
            match op {
                Op::Submit(t, spec) => e.submit(spec.clone(), *t),
                Op::Interrupt(t, v) => e.interrupt_with_weights(*v, *t),
                Op::SetVersion(t, v) => e.set_weight_version(*v, *t),
            }
        }
        let mut guard = 0u64;
        while let Some(t) = e.next_event_time() {
            e.advance_to(t);
            guard += 1;
            assert!(guard < 4_000_000);
        }
        e.take_completions()
            .into_iter()
            .map(|c| (c.spec.id, c.finished_at.as_nanos(), c.policy_versions))
            .collect::<Vec<_>>()
    };
    for case in 0..8 {
        assert_eq!(run(case), run(case), "case {case}");
    }
}
