//! Property-style tests of core invariants across crates.
//!
//! Randomised inputs come from [`SimRng::derive`] with a fixed root seed and
//! a per-test label, so every run covers the same deterministic case set; a
//! failing assertion names its `case` index for direct reproduction.

use laminar::cluster::{DecodeModel, GpuSpec, ModelSpec};
use laminar::prelude::*;
use laminar::rollout::{EngineConfig, ReplicaLoad};
use laminar::sim::{SimRng, Time};
use laminar::workload::Segment;

const SEED: u64 = 0x1A417A8;
const CASES: u64 = 64;

/// Algorithm 1 never overfills a destination and never releases a
/// replica into itself or into another released replica.
#[test]
fn repack_plan_respects_capacity_and_disjointness() {
    for case in 0..CASES {
        let mut rng = SimRng::derive(SEED, "repack_plan", case);
        let n = 2 + rng.below(22) as usize;
        let replicas: Vec<ReplicaLoad> = (0..n)
            .map(|i| {
                let kv = rng.range_f64(0.0, 500.0);
                ReplicaLoad {
                    replica: i,
                    kv_used: kv,
                    kv_reserved: kv,
                    kv_prev: kv + 1.0,
                    n_reqs: 1 + rng.below(31) as usize,
                    weight_version: 0,
                }
            })
            .collect();
        let c_max = rng.range_f64(200.0, 800.0);
        let b = 8 + rng.below(56) as usize;
        let plan = plan_repack(&replicas, c_max, b);
        let released: Vec<usize> = plan.released();
        // No destination is itself released.
        for &(src, dst) in &plan.moves {
            assert_ne!(src, dst, "case {case}: self-move");
            assert!(
                !released.contains(&dst),
                "case {case}: released destination {dst}"
            );
        }
        // Each source released at most once.
        let mut sorted = released.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            released.len(),
            "case {case}: source released twice"
        );
        // Projected destination loads stay within both bounds.
        for dst in plan.moves.iter().map(|&(_, d)| d) {
            let base = &replicas[dst];
            let extra_kv: f64 = plan
                .moves
                .iter()
                .filter(|&&(_, d)| d == dst)
                .map(|&(s, _)| replicas[s].kv_used)
                .sum();
            let extra_reqs: usize = plan
                .moves
                .iter()
                .filter(|&&(_, d)| d == dst)
                .map(|&(s, _)| replicas[s].n_reqs)
                .sum();
            assert!(
                base.kv_used + extra_kv <= c_max + 1e-9,
                "case {case}: KV overflow on {dst}"
            );
            assert!(
                base.n_reqs + extra_reqs <= b,
                "case {case}: request overflow on {dst}"
            );
        }
    }
}

/// The replica engine conserves trajectories and tokens: everything
/// submitted completes exactly once with exactly the spec's tokens.
#[test]
fn engine_conserves_trajectories_and_tokens() {
    for case in 0..CASES {
        let mut rng = SimRng::derive(SEED, "engine_conserves", case);
        let count = 1 + rng.below(23) as usize;
        let lens: Vec<u64> = (0..count).map(|_| rng.range_u64(64, 3000)).collect();
        let prompt = rng.range_u64(16, 512);
        let decode = DecodeModel::new(ModelSpec::qwen_7b(), GpuSpec::h800(), 1);
        let mut e = ReplicaEngine::new(0, decode, EngineConfig::default());
        let mut expected_tokens = 0u64;
        for (i, &len) in lens.iter().enumerate() {
            expected_tokens += len + prompt;
            e.submit(
                TrajectorySpec {
                    id: i as u64,
                    prompt_id: i as u64,
                    group_index: 0,
                    prompt_tokens: prompt,
                    segments: vec![Segment::Decode { tokens: len }].into(),
                },
                Time::ZERO,
            );
        }
        let mut guard = 0;
        while let Some(t) = e.next_event_time() {
            e.advance_to(t);
            guard += 1;
            assert!(guard < 1_000_000, "case {case}: engine did not quiesce");
        }
        assert!(e.is_idle(), "case {case}");
        let done = e.take_completions();
        assert_eq!(
            done.len(),
            lens.len(),
            "case {case}: trajectory lost or duplicated"
        );
        let total: u64 = done.iter().map(|c| c.spec.total_tokens()).sum();
        assert_eq!(total, expected_tokens, "case {case}: token count drifted");
        let mut ids: Vec<u64> = done.iter().map(|c| c.spec.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..lens.len() as u64).collect::<Vec<_>>(),
            "case {case}"
        );
    }
}

/// Workload generation is a pure function of (seed, id) and respects
/// the configured caps.
#[test]
fn workload_specs_deterministic_and_capped() {
    for case in 0..CASES {
        let mut rng = SimRng::derive(SEED, "workload_caps", case);
        let seed = rng.below(1000);
        let id = rng.below(5000);
        let w = WorkloadGenerator::single_turn(seed, Checkpoint::Math7B);
        let a = w.trajectory(id, id / 16, (id % 16) as usize, 1.0);
        let b = w.trajectory(id, id / 16, (id % 16) as usize, 1.0);
        assert_eq!(&a, &b, "case {case}: not deterministic");
        assert!(
            a.prompt_tokens >= 1 && a.prompt_tokens <= 2048,
            "case {case}"
        );
        assert!(
            a.decode_tokens() >= 1 && a.decode_tokens() <= 16_384,
            "case {case}"
        );
    }
}

/// Multi-turn specs alternate decode/env and respect the call cap.
#[test]
fn multi_turn_specs_alternate() {
    for case in 0..CASES {
        let mut rng = SimRng::derive(SEED, "multi_turn", case);
        let seed = rng.below(200);
        let id = rng.below(500);
        let w = WorkloadGenerator::multi_turn(seed);
        let t = w.trajectory(id, id / 16, (id % 16) as usize, 1.0);
        assert!(t.env_calls() >= 1 && t.env_calls() <= 8, "case {case}");
        assert!(
            matches!(t.segments.first(), Some(Segment::Decode { .. })),
            "case {case}: must start with a decode segment"
        );
        assert!(
            matches!(t.segments.last(), Some(Segment::Decode { .. })),
            "case {case}: must end with a decode segment"
        );
        for pair in t.segments.windows(2) {
            let ok = matches!(
                pair,
                [Segment::Decode { .. }, Segment::Env { .. }]
                    | [Segment::Env { .. }, Segment::Decode { .. }]
            );
            assert!(ok, "case {case}: segments must alternate");
        }
    }
}

/// The experience buffer conserves items under any interleaving of
/// writes and samples.
#[test]
fn buffer_conserves_experiences() {
    use laminar::data::{Eviction, Sampler};
    for case in 0..CASES {
        let mut rng = SimRng::derive(SEED, "buffer_conserves", case);
        let ops = 1 + rng.below(59) as usize;
        let mut buf = ExperienceBuffer::new(Sampler::Fifo, Eviction::None);
        let mut sample_rng = SimRng::new(1);
        let mut written = 0u64;
        let mut sampled = 0u64;
        for _ in 0..ops {
            let n = 1 + rng.below(63) as usize;
            if rng.chance(0.5) {
                for _ in 0..n {
                    buf.write(Experience {
                        trajectory_id: written,
                        prompt_id: written / 16,
                        group_index: 0,
                        prompt_tokens: 1,
                        response_tokens: 1,
                        policy_versions: vec![0],
                        started_at: Time::ZERO,
                        finished_at: Time::ZERO,
                    });
                    written += 1;
                }
            } else {
                sampled += buf.sample(n, 0, &mut sample_rng).len() as u64;
            }
        }
        assert_eq!(
            written,
            sampled + buf.len() as u64,
            "case {case}: experiences leaked"
        );
    }
}

/// Chain-broadcast optimal time is never worse than any fixed chunking.
#[test]
fn optimal_chunking_dominates() {
    use laminar::cluster::{ChainBroadcast, LinkSpec};
    let chain = ChainBroadcast::new(LinkSpec::new("rdma", 90e9, 5e-6));
    for case in 0..CASES {
        let mut rng = SimRng::derive(SEED, "optimal_chunking", case);
        let p = 3 + rng.below(197) as usize;
        let bytes = rng.range_f64(1.0, 200.0) * 1e9;
        let k = 1 + rng.below(9_999) as usize;
        let opt = chain.optimal_broadcast_secs(p, bytes);
        assert!(
            opt <= chain.broadcast_secs(p, bytes, k) + 1e-9,
            "case {case}: k={k} beat the optimum"
        );
    }
}
