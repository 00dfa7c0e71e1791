//! Fault-tolerance integration tests spanning the relay tier, the data
//! module, and the Laminar system (§3.3, §4.3, §8.5).

use laminar::prelude::*;
use laminar::sim::Time as SimTime;
use std::time::Duration as StdDuration;

#[test]
fn relay_tier_survives_cascading_failures() {
    let mut tier = RelayTier::new(RelayTierConfig::fast(8));
    tier.publish(1, laminar::relay::Bytes::from(vec![1u8; 1 << 18]));
    assert!(tier.wait_converged(1, StdDuration::from_secs(10)));

    // Three failures in sequence, including two master re-elections.
    for (v, victim) in [(2u64, 0usize), (3, 1), (4, 5)] {
        tier.kill(victim);
        let report = tier.repair();
        assert_eq!(report.failed, vec![victim]);
        tier.publish(v, laminar::relay::Bytes::from(vec![v as u8; 1 << 18]));
        assert!(
            tier.wait_converged(v, StdDuration::from_secs(10)),
            "survivors must converge after losing relay {victim}"
        );
    }
    assert_eq!(tier.alive_nodes(), vec![2, 3, 4, 6, 7]);
    assert_eq!(tier.master(), 2);
    tier.shutdown();
}

#[test]
fn relay_elasticity_grow_while_publishing() {
    let mut tier = RelayTier::new(RelayTierConfig::fast(2));
    tier.publish(1, laminar::relay::Bytes::from(vec![9u8; 1 << 16]));
    assert!(tier.wait_converged(1, StdDuration::from_secs(10)));
    for _ in 0..3 {
        tier.add_node();
    }
    tier.publish(2, laminar::relay::Bytes::from(vec![8u8; 1 << 16]));
    assert!(tier.wait_converged(2, StdDuration::from_secs(10)));
    assert_eq!(tier.alive_nodes().len(), 5);
    tier.shutdown();
}

#[test]
fn machine_failure_never_loses_training_progress() {
    let workload = WorkloadGenerator::single_turn(31, Checkpoint::Math7B);
    let mut cfg = SystemConfig::new(ModelSpec::qwen_7b(), 4, 4, 1, workload);
    cfg.prompts_per_batch = 32;
    cfg.group_size = 4;
    cfg.iterations = 3;
    cfg.warmup = 0;

    // Baseline without failure.
    let clean = LaminarSystem::default().run(&cfg);

    // Same job with half the rollout replicas dying at t=30s.
    let faulty = LaminarSystem {
        faults: vec![FaultEvent::machine_crash(
            SimTime::from_secs(30),
            vec![0, 1],
            laminar::sim::Duration::from_secs(120),
        )],
        ..LaminarSystem::default()
    };
    let hurt = faulty.run(&cfg);

    // The job completes the same number of iterations, consuming full
    // batches — no global restart, no lost batches.
    assert_eq!(hurt.iteration_secs.len(), clean.iteration_secs.len());
    assert_eq!(hurt.consumed.len(), clean.consumed.len());
    // It is allowed to be slower, but not pathologically so.
    let slow: f64 = hurt.iteration_secs.iter().sum();
    let fast: f64 = clean.iteration_secs.iter().sum();
    assert!(
        slow < fast * 4.0,
        "failure recovery too costly: {slow} vs {fast}"
    );
}

#[test]
fn partial_response_pool_preserves_progress_across_drain() {
    use laminar::data::PartialResponsePool;
    use laminar::sim::Time;
    let workload = WorkloadGenerator::single_turn(3, Checkpoint::Math7B);
    let mut pool = PartialResponsePool::new();
    for id in 0..10u64 {
        let spec = workload.trajectory(id, id, 0, 1.0);
        pool.begin(spec, (id % 3) as usize, 5, Time::from_secs(1));
        pool.update(id, 100 * id, 0);
    }
    let lost = pool.drain_rollout(1);
    assert!(!lost.is_empty());
    for p in &lost {
        assert_eq!(
            p.generated_tokens,
            100 * p.spec.id,
            "streamed progress preserved"
        );
        assert_eq!(p.policy_versions, vec![5]);
    }
    assert_eq!(pool.len() + lost.len(), 10);
}
