//! Determinism regression: every system is a pure function of its
//! configuration. Two runs with the same seed must produce byte-identical
//! reports — the property the whole simulation methodology rests on
//! (identical virtual-time schedules, identical RNG draws, no dependence
//! on wall-clock, thread timing, or map iteration order).
//!
//! Two runs of one build agree even when a refactor reorders a float
//! operation, so the workload's spec streams and every system's report are
//! also pinned to golden fingerprints recorded from an earlier build. A
//! golden changes only with an intended behaviour change; the failure
//! message prints the replacement table.

use laminar::prelude::*;
use laminar::runtime::delta::fnv1a_bytes;
use laminar::runtime::recovery::fnv1a;

/// FNV-1a of the `encode_words` stream of two consecutive 48-prompt
/// `batch()` calls on a fresh DAPO-Math-17k dataset, per
/// `(workload, seed, evolution)`.
const SPEC_GOLDENS: [(&str, u64, f64, u64); 12] = [
    ("math7b", 1, 1.0, 0xfb38a2840f35b47e),
    ("math7b", 1, 1.006, 0x33b6a0d063179ad3),
    ("math7b", 7, 1.0, 0x652be5de418663c7),
    ("math7b", 7, 1.006, 0x327687abf083b436),
    ("math32b", 1, 1.0, 0x899e33acd4dda432),
    ("math32b", 1, 1.006, 0xe2b81c65a110255f),
    ("math32b", 7, 1.0, 0xb605a6d83c9a36f4),
    ("math32b", 7, 1.006, 0x005de967a588a995),
    ("multi-turn", 1, 1.0, 0x55a7a1f5f2933fd5),
    ("multi-turn", 1, 1.006, 0xf4519b5d27579cd4),
    ("multi-turn", 7, 1.0, 0xa506dcabf9a7c00f),
    ("multi-turn", 7, 1.006, 0x6240884b1f96c610),
];

/// FNV-1a of each system's `Debug` report on the seed-11 `small_test`
/// config (colocated for verl-sync, disaggregated for the rest), in the
/// order `all_five_systems_are_deterministic` runs them.
const REPORT_GOLDENS: [(&str, u64); 5] = [
    ("verl-sync", 0x0c23513d3adc7abb),
    ("one-step", 0x060e5205565c1852),
    ("stream-gen", 0x52e33956a6eed24a),
    ("partial-rollout", 0xd3b10f29915efc86),
    ("laminar", 0x618c36ab3b9e92cd),
];

/// Disaggregated placement (Laminar); `train_gpus = 0` below yields the
/// colocated placement the barrier baselines require.
fn cfg(seed: u64) -> SystemConfig {
    let workload = WorkloadGenerator::single_turn(seed, Checkpoint::Math7B);
    let mut c = SystemConfig::small_test(workload);
    c.train_gpus = 4;
    c.rollout_gpus = 4;
    c.seed = seed;
    c
}

fn colocated(seed: u64) -> SystemConfig {
    let mut c = cfg(seed);
    c.train_gpus = 0;
    c.rollout_gpus = 8;
    c
}

/// Runs `sys` twice, requires byte-identical reports, and returns the
/// report's fingerprint.
fn deterministic_report_fp(name: &str, sys: &dyn RlSystem, cfg: &SystemConfig) -> u64 {
    let a = format!("{:?}", sys.run(cfg));
    let b = format!("{:?}", sys.run(cfg));
    assert_eq!(a, b, "{name}: two same-seed runs diverged");
    fnv1a_bytes(a.as_bytes())
}

#[test]
fn all_five_systems_are_deterministic() {
    let colo = colocated(11);
    let disagg = cfg(11);
    let laminar = LaminarSystem::default();
    let systems: [(&dyn RlSystem, &SystemConfig); 5] = [
        (&VerlSync, &colo),
        (&OneStepStaleness, &disagg),
        (&StreamGeneration, &disagg),
        (&PartialRollout, &disagg),
        (&laminar, &disagg),
    ];
    let mut drifted = Vec::new();
    for ((sys, cfg), (name, golden)) in systems.into_iter().zip(REPORT_GOLDENS) {
        let got = deterministic_report_fp(name, sys, cfg);
        if got != golden {
            drifted.push(format!("    (\"{name}\", {got:#018x}),"));
        }
    }
    assert!(
        drifted.is_empty(),
        "run reports drifted from REPORT_GOLDENS. If the behaviour change is \
         intended, re-record these entries of REPORT_GOLDENS in \
         tests/determinism.rs:\n{}",
        drifted.join("\n")
    );
}

fn generator(name: &str, seed: u64) -> WorkloadGenerator {
    match name {
        "math7b" => WorkloadGenerator::single_turn(seed, Checkpoint::Math7B),
        "math32b" => WorkloadGenerator::single_turn(seed, Checkpoint::Math32B),
        "multi-turn" => WorkloadGenerator::multi_turn(seed),
        _ => panic!("no generator named {name}"),
    }
}

#[test]
fn batch_spec_streams_match_goldens() {
    let mut drifted = Vec::new();
    for (name, seed, evolution, golden) in SPEC_GOLDENS {
        let w = generator(name, seed);
        let mut ds = Dataset::dapo_math_17k();
        let mut words = Vec::new();
        for _ in 0..2 {
            let batch = ds.next_batch(48);
            let specs = w.batch(&batch, evolution);
            let one_by_one: Vec<TrajectorySpec> = batch
                .assignments()
                .map(|(id, prompt, g)| w.trajectory(id, prompt, g, evolution))
                .collect();
            assert!(
                specs == one_by_one,
                "{name} seed {seed} evolution {evolution}: batch() differs from per-id trajectory()"
            );
            for s in &specs {
                s.encode_words(&mut words);
            }
        }
        let got = fnv1a(words);
        if got != golden {
            drifted.push(format!(
                "    (\"{name}\", {seed}, {evolution:?}, {got:#018x}),"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "batch() spec streams drifted from SPEC_GOLDENS. If the workload change \
         is intended, re-record these entries of SPEC_GOLDENS in \
         tests/determinism.rs:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn traced_and_plain_runs_agree() {
    // Tracing is pure observation: enabling it must not perturb a single
    // event, and the recorded spans must themselves be deterministic.
    let c = cfg(13);
    let mut t1 = RecordingTrace::new();
    let mut t2 = RecordingTrace::new();
    let r1 = LaminarSystem::default().run_traced(&c, &mut t1);
    let r2 = LaminarSystem::default().run_traced(&c, &mut t2);
    let plain = LaminarSystem::default().run(&c);
    assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    assert_eq!(format!("{r1:?}"), format!("{plain:?}"));
    assert_eq!(
        t1.to_jsonl(),
        t2.to_jsonl(),
        "trace output diverged across runs"
    );
    assert!(!t1.spans().is_empty());
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the trivial way the determinism test could pass: a
    // system ignoring its seed entirely.
    let a = LaminarSystem::default().run(&cfg(11));
    let b = LaminarSystem::default().run(&cfg(12));
    assert_ne!(
        format!("{a:?}"),
        format!("{b:?}"),
        "seed must influence the run"
    );
}
