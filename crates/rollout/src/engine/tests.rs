//! Engine behaviour tests spanning all three engine modules.

use super::*;
use crate::traj::Phase;
use laminar_cluster::{GpuSpec, ModelSpec};
use laminar_sim::Duration;
use laminar_workload::Segment;

fn decode_model() -> DecodeModel {
    DecodeModel::new(ModelSpec::qwen_7b(), GpuSpec::h800(), 1)
}

fn spec(id: u64, prompt: u64, tokens: u64) -> TrajectorySpec {
    TrajectorySpec {
        id,
        prompt_id: id,
        group_index: 0,
        prompt_tokens: prompt,
        segments: vec![Segment::Decode { tokens }],
    }
}

fn spec_env(id: u64, prompt: u64, t1: u64, env_secs: u64, t2: u64) -> TrajectorySpec {
    TrajectorySpec {
        id,
        prompt_id: id,
        group_index: 0,
        prompt_tokens: prompt,
        segments: vec![
            Segment::Decode { tokens: t1 },
            Segment::Env {
                latency: Duration::from_secs(env_secs),
            },
            Segment::Decode { tokens: t2 },
        ],
    }
}

fn run_to_idle(e: &mut ReplicaEngine) -> Time {
    let mut now = Time::ZERO;
    let mut guard = 0;
    while let Some(t) = e.next_event_time() {
        e.advance_to(t);
        now = t;
        guard += 1;
        assert!(guard < 1_000_000);
    }
    assert!(e.is_idle());
    now
}

#[test]
fn single_trajectory_completion_time_brackets() {
    let dm = decode_model();
    let mut e = ReplicaEngine::new(0, dm.clone(), EngineConfig::default());
    e.submit(spec(1, 1000, 2000), Time::ZERO);
    run_to_idle(&mut e);
    let done = e.take_completions();
    assert_eq!(done.len(), 1);
    let t = done[0].finished_at.as_secs_f64();
    let lo = dm.prefill_secs(1000) + 2000.0 * dm.step_secs(1, 1000.0);
    let hi = dm.prefill_secs(1000) + 2000.0 * dm.step_secs(1, 3000.0);
    assert!(t >= lo * 0.99 && t <= hi * 1.01, "t={t} lo={lo} hi={hi}");
    assert_eq!(done[0].policy_versions, vec![0]);
}

#[test]
fn completions_in_length_order_and_batched() {
    let mut e = ReplicaEngine::new(0, decode_model(), EngineConfig::default());
    e.submit(spec(1, 500, 4000), Time::ZERO);
    e.submit(spec(2, 500, 1000), Time::ZERO);
    e.submit(spec(3, 500, 2500), Time::ZERO);
    run_to_idle(&mut e);
    let done = e.take_completions();
    let order: Vec<u64> = done.iter().map(|c| c.spec.id).collect();
    assert_eq!(order, vec![2, 3, 1], "shorter trajectories finish first");
    // Memory-bound batching: 3 concurrent trajectories take barely
    // longer than the longest alone.
    let t3 = done.last().expect("three done").finished_at.as_secs_f64();
    let mut solo = ReplicaEngine::new(1, decode_model(), EngineConfig::default());
    solo.submit(spec(9, 500, 4000), Time::ZERO);
    run_to_idle(&mut solo);
    let t1 = solo.take_completions()[0].finished_at.as_secs_f64();
    assert!(t3 < t1 * 1.25, "t3={t3} t1={t1}");
}

#[test]
fn kv_capacity_blocks_admission() {
    let dm = decode_model();
    let cap = dm.kvcache_capacity_tokens();
    let big = cap * 2 / 3;
    let mut e = ReplicaEngine::new(0, dm, EngineConfig::default());
    e.submit(spec(1, 100, big - 100), Time::ZERO);
    e.submit(spec(2, 100, big - 100), Time::ZERO);
    assert_eq!(e.active_count(), 1);
    assert_eq!(e.waiting_count(), 1);
    run_to_idle(&mut e);
    assert_eq!(e.take_completions().len(), 2);
}

#[test]
fn max_concurrency_respected() {
    let cfg = EngineConfig {
        max_concurrency: 2,
        ..EngineConfig::default()
    };
    let mut e = ReplicaEngine::new(0, decode_model(), cfg);
    for i in 0..5 {
        e.submit(spec(i, 100, 500), Time::ZERO);
    }
    assert_eq!(e.active_count(), 2);
    assert_eq!(e.n_reqs(), 5);
    run_to_idle(&mut e);
    assert_eq!(e.take_completions().len(), 5);
}

#[test]
fn env_call_adds_latency_and_preserves_cache() {
    let dm = decode_model();
    let mut e = ReplicaEngine::new(0, dm.clone(), EngineConfig::default());
    e.submit(spec_env(1, 500, 1000, 30, 1000), Time::ZERO);
    run_to_idle(&mut e);
    let done = e.take_completions();
    let t = done[0].finished_at.as_secs_f64();
    assert!(t > 30.0, "env latency must be on the critical path: {t}");
    // Roughly: prefill + 2000 decode steps + 30s env.
    let decode_upper = 2000.0 * dm.step_secs(1, 2500.0);
    assert!(
        t < 30.0 + dm.prefill_secs(500) + decode_upper * 1.1 + 1.0,
        "t={t}"
    );
}

#[test]
fn interrupt_records_mixed_versions_and_reprefills() {
    let mut e = ReplicaEngine::new(0, decode_model(), EngineConfig::default());
    e.submit(spec(1, 1000, 8000), Time::ZERO);
    // Let it decode for a while.
    e.advance_to(Time::from_secs(30));
    assert!(e.tokens_decoded() > 100.0);
    e.interrupt_with_weights(5, Time::from_secs(30));
    run_to_idle(&mut e);
    let done = e.take_completions();
    assert_eq!(done[0].policy_versions, vec![0, 5]);
}

#[test]
fn drain_and_inject_preserve_progress() {
    let dm = decode_model();
    let mut src = ReplicaEngine::new(0, dm.clone(), EngineConfig::default());
    src.submit(spec(1, 1000, 6000), Time::ZERO);
    src.advance_to(Time::from_secs(20));
    let before = src.tokens_decoded();
    assert!(before > 0.0);
    let moved = src.drain_in_progress(Time::from_secs(20));
    assert_eq!(moved.len(), 1);
    assert!(src.is_idle());
    assert!((moved[0].total_decoded - before).abs() < 1.0);

    let mut dst = ReplicaEngine::new(1, dm, EngineConfig::default());
    dst.inject(moved, Time::from_secs(20));
    run_to_idle(&mut dst);
    let done = dst.take_completions();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].spec.decode_tokens(), 6000);
    assert_eq!(
        done[0].started_at,
        Time::ZERO,
        "start time survives the move"
    );
}

#[test]
fn kv_utilization_lifecycle_ramps_up_then_down() {
    // Figure 9: utilization ramps to a peak, holds while waiting
    // trajectories backfill, then falls in the long-tail phase.
    let dm = decode_model();
    let cap = dm.kvcache_capacity_tokens();
    let cfg = EngineConfig {
        record_kv_series: true,
        ..EngineConfig::default()
    };
    let mut e = ReplicaEngine::new(0, dm, cfg);
    // 40 trajectories of ~1/16 capacity each: ~2.5 waves.
    for i in 0..40 {
        let tokens = cap / 16 + (i * 97) % 400;
        e.submit(spec(i, 200, tokens.max(1000)), Time::ZERO);
    }
    run_to_idle(&mut e);
    let peak = e
        .kv_series()
        .points()
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0f64, f64::max);
    assert!(peak > 0.8, "peak utilization {peak}");
    let last = e.kv_series().points().last().expect("series recorded").1;
    assert!(last < 0.2, "must ramp down at the tail, got {last}");
}

#[test]
fn deterministic_across_runs() {
    let build = || {
        let mut e = ReplicaEngine::new(0, decode_model(), EngineConfig::default());
        for i in 0..20 {
            e.submit(spec(i, 300 + i * 13, 1000 + (i * 331) % 4000), Time::ZERO);
        }
        run_to_idle(&mut e);
        e.take_completions()
            .iter()
            .map(|c| (c.spec.id, c.finished_at.as_nanos()))
            .collect::<Vec<_>>()
    };
    assert_eq!(build(), build());
}

#[test]
fn set_weight_version_applies_to_new_work() {
    let mut e = ReplicaEngine::new(0, decode_model(), EngineConfig::default());
    e.set_weight_version(7, Time::ZERO);
    e.submit(spec(1, 100, 500), Time::ZERO);
    run_to_idle(&mut e);
    assert_eq!(e.take_completions()[0].policy_versions, vec![7]);
    assert_eq!(e.weight_version(), 7);
}

#[test]
fn mid_env_move_with_expired_call_resumes_next_segment() {
    // A multi-turn trajectory is drained during its env call; the call
    // returns while the state is in transit; the destination must resume
    // at the segment *after* the env call.
    let dm = decode_model();
    let mut src = ReplicaEngine::new(0, dm.clone(), EngineConfig::default());
    // 500 decode tokens take ~3s; the env call then lasts 10s.
    src.submit(spec_env(1, 400, 500, 10, 700), Time::ZERO);
    src.advance_to(Time::from_secs(5));
    let moved = src.drain_in_progress(Time::from_secs(5));
    assert_eq!(moved.len(), 1);
    assert!(
        matches!(moved[0].phase, Phase::Env { .. }),
        "expected to drain mid-env, got {:?}",
        moved[0].phase
    );
    // Inject long after the env call returned.
    let mut dst = ReplicaEngine::new(1, dm, EngineConfig::default());
    dst.inject(moved, Time::from_secs(60));
    run_to_idle(&mut dst);
    let done = dst.take_completions();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].spec.decode_tokens(), 1200);
}

#[test]
fn mean_decode_batch_tracks_occupancy() {
    let mut e = ReplicaEngine::new(0, decode_model(), EngineConfig::default());
    for i in 0..8 {
        e.submit(spec(i, 200, 3000), Time::ZERO);
    }
    run_to_idle(&mut e);
    let mean = e.mean_decode_batch();
    assert!(mean > 4.0 && mean <= 8.0, "mean batch {mean}");
}

#[test]
fn trace_spans_cover_every_phase_of_a_multi_turn_trajectory() {
    use laminar_sim::trace::SpanKind;
    let cfg = EngineConfig {
        record_trace: true,
        ..EngineConfig::default()
    };
    let mut e = ReplicaEngine::new(3, decode_model(), cfg);
    e.set_weight_version(2, Time::ZERO);
    e.submit(spec_env(1, 400, 500, 10, 700), Time::ZERO);
    run_to_idle(&mut e);
    let spans = e.take_trace_spans();
    let count = |k: SpanKind| spans.iter().filter(|s| s.kind == k).count();
    assert_eq!(count(SpanKind::Prefill), 1, "one admission prefill");
    assert_eq!(count(SpanKind::DecodeStep), 2, "two decode segments");
    assert_eq!(count(SpanKind::EnvCall), 1, "one env call");
    for s in &spans {
        assert_eq!(s.replica, Some(3));
        assert_eq!(s.version, 2);
        assert!(s.end >= s.start);
    }
    // Tokens attached where meaningful.
    let decoded: u64 = spans
        .iter()
        .filter(|s| s.kind == SpanKind::DecodeStep)
        .map(|s| s.tokens)
        .sum();
    assert_eq!(decoded, 1200);
    // Disabled engines record nothing.
    let mut quiet = ReplicaEngine::new(0, decode_model(), EngineConfig::default());
    quiet.submit(spec(1, 100, 500), Time::ZERO);
    run_to_idle(&mut quiet);
    assert!(quiet.take_trace_spans().is_empty());
}

/// The cached next transition equals a fresh prune + `earliest`, and the
/// slab's id-ordered views, its storage-order visitor and the progress
/// stream all show exactly the live set.
fn assert_cache_and_views(e: &ReplicaEngine, live: &std::collections::BTreeSet<u64>) {
    assert!(e.event_tops_live(), "stale event-heap top");
    assert!(e.next_is_fresh(), "cached next transition is stale");
    let mut ids = Vec::new();
    e.active.ids_into(&mut ids);
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ids_into not ascending"
    );
    assert!(
        ids.iter().eq(live.iter()),
        "ids_into {ids:?} vs live {live:?}"
    );
    let states: Vec<u64> = e.active_states().map(|(id, _)| id).collect();
    assert_eq!(states, ids, "active_states order");
    assert!(e.active_states().all(|(id, st)| st.spec.id == id));
    assert!(ids
        .iter()
        .all(|&id| e.active.get(id).unwrap().spec.id == id));
    let mut visited: Vec<u64> = e.active.values().map(|st| st.spec.id).collect();
    visited.sort_unstable();
    assert_eq!(visited, ids, "storage-order visitor");
    let mut streamed = Vec::new();
    e.for_each_in_progress(|id, _, _| streamed.push(id));
    streamed.sort_unstable();
    assert_eq!(streamed, ids, "progress stream");
}

#[test]
fn cached_transition_and_slab_views_survive_random_ops() {
    use laminar_sim::SimRng;
    use std::collections::BTreeSet;
    for case in 0..24u64 {
        let mut rng = SimRng::derive(0x5_1AB, "cache_and_slab", case);
        let cfg = EngineConfig {
            max_concurrency: 1 + rng.below(12) as usize,
            horizon_steps: rng.range_f64(8.0, 256.0),
            env_stall_budget: rng.chance(0.5).then(|| Duration::from_secs(rng.below(8))),
            ..EngineConfig::default()
        };
        let mut e = ReplicaEngine::new(0, decode_model(), cfg.clone());
        let mut donor = ReplicaEngine::new(1, decode_model(), cfg);
        // Ids handed to `e` and not yet completed or drained back out.
        let mut held = BTreeSet::new();
        let mut now = Time::ZERO;
        let mut next_id = 0u64;
        for step in 0..250u64 {
            now += Duration::from_millis(rng.below(2000));
            match rng.below(10) {
                0 | 1 => {
                    let s = spec_env(
                        next_id,
                        rng.range_u64(50, 800),
                        rng.range_u64(20, 600),
                        rng.below(6),
                        rng.range_u64(20, 600),
                    );
                    if rng.chance(0.3) {
                        donor.submit(s, now);
                    } else {
                        e.submit(s, now);
                        held.insert(next_id);
                    }
                    next_id += 1;
                }
                2 => {
                    let moved = donor.drain_in_progress(now);
                    held.extend(moved.iter().map(|st| st.spec.id));
                    e.inject(moved, now);
                }
                3 => {
                    let moved = e.drain_in_progress(now);
                    for st in &moved {
                        assert!(held.remove(&st.spec.id));
                    }
                    donor.inject(moved, now);
                }
                4 => e.interrupt_with_weights(step, now),
                5 => e.set_weight_version(step, now),
                6 => e.set_perf_factor(rng.range_f64(1.0, 3.0), now),
                7 => {
                    e.delay_env_returns(Duration::from_millis(rng.below(4000)), now);
                }
                8 => e.stall_prefill_queue(now + Duration::from_millis(rng.below(3000))),
                _ => {
                    if let Some(t) = e.next_event_time() {
                        now = now.max(t);
                    }
                    e.advance_to(now);
                }
            }
            for c in e.take_completions() {
                assert!(held.remove(&c.spec.id), "completed an id it did not hold");
            }
            let waiting: BTreeSet<u64> = e.waiting_states().map(|st| st.spec.id).collect();
            let live: BTreeSet<u64> = held.difference(&waiting).copied().collect();
            assert_cache_and_views(&e, &live);
        }
    }
}
