//! Determinism regression: every system is a pure function of its
//! configuration. Two runs with the same seed must produce byte-identical
//! reports — the property the whole simulation methodology rests on
//! (identical virtual-time schedules, identical RNG draws, no dependence
//! on wall-clock, thread timing, or map iteration order).
//!
//! Two runs of one build agree even when a refactor reorders a float
//! operation, so the workload's spec streams and every system's report are
//! also pinned to golden fingerprints recorded from an earlier build. So
//! are the checkpoint plane's hashes — chunk keys, image fingerprints,
//! manifest ids, and the snapshot fingerprints that checkpoint descriptor
//! files persist — so a descriptor written by an earlier build of the same
//! checkpoint image format (`delta::IMAGE_FORMAT`) keeps verifying; a
//! format change re-records them once. So are the fault paths no
//! fault-free run reaches: degraded mode, breaker trips, env-call aborts,
//! the fleet under faults, and the fig13 learner. A golden changes only
//! with an intended behaviour change; the failure message prints the
//! replacement table.

use laminar::prelude::*;
use laminar::runtime::delta::chunk_key;
use laminar::runtime::{DeltaStore, Recoverable, StateImage, StatePlane};

/// FNV-1a over raw bytes: the fingerprint of report text, trace JSONL and
/// fleet fingerprints in the goldens below. The checkpoint plane hashes
/// with its own word fold; this one stays byte-serial FNV-1a so these
/// goldens keep the values earlier builds recorded.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// FNV-1a over a word stream, each word as its eight little-endian bytes:
/// the fingerprint of spec streams, cadence folds and learning curves.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a_bytes(&bytes)
}

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

/// Chunk keys, image fingerprints, and the manifest id and fingerprint of
/// two commits of [`synthetic_image`] (the second dedups all but one chunk).
const CHECKPOINT_HASH_GOLDENS: [(&str, u64); 8] = [
    ("chunk_key []", 0xbc13060e2d1aac79),
    ("chunk_key [1, 2, 3]", 0xe825cefb35adb65f),
    ("chunk_key page 0", 0xef515d908b602401),
    ("image fingerprint salt 1", 0xe259f385e4e2a439),
    ("commit 0 manifest id", 0x8874e0c122b16848),
    ("commit 0 manifest fingerprint", 0xe259f385e4e2a439),
    ("commit 1 manifest id", 0x77e32d23715a9cf3),
    ("commit 1 manifest fingerprint", 0xe214cba4cf1bdf2a),
];

/// State-image fingerprints of the first cadence points of a 20 s
/// `run_delta_checkpointed` on the seed-11 `small_test` config, per
/// `(system, index)`, as the committed manifests record them. Checkpoint
/// descriptor lines carry these values.
const SNAPSHOT_GOLDENS: [(&str, usize, u64); 4] = [
    ("laminar", 0, 0x8f756567529b15d6),
    ("laminar", 1, 0x0e6734374fed2ce0),
    ("partial-rollout", 0, 0x2665d7d4cfa3d415),
    ("partial-rollout", 1, 0x1e0d74f0c267d654),
];

/// Checkpoint count and FNV-1a fold of every checkpoint's
/// `(index, at_ns, manifest fingerprint)` for a `run_delta_checkpointed` on
/// the seed-11 `small_test` config, per `(system, cadence secs)`. The
/// barrier systems pause only between iterations, so an iteration that
/// crosses several cadence points yields one snapshot per point; the fold
/// pins where each pause lands as well as the state it holds.
const CADENCE_GOLDENS: [(&str, u64, usize, u64); 10] = [
    ("verl-sync", 20, 11, 0x79d68deaf27cf45c),
    ("verl-sync", 33, 6, 0x7ec11bcee2e3f841),
    ("one-step", 20, 11, 0xd9b574ddd7b473a7),
    ("one-step", 33, 7, 0x9fbc53c111d8faa4),
    ("stream-gen", 20, 11, 0x98c09446621323ec),
    ("stream-gen", 33, 6, 0x0b24499c6f68211d),
    ("partial-rollout", 20, 2, 0xab218a6335de8dd4),
    ("partial-rollout", 33, 1, 0xff5862c74db97da8),
    ("laminar", 20, 6, 0x68869a1955b71153),
    ("laminar", 33, 4, 0x2a5bdd65c512151d),
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

/// A fixed two-plane image: a paged stream of spread words and a plane of
/// natural chunks, one of which carries `salt`.
fn synthetic_image(salt: u64) -> StateImage {
    let stream: Vec<u64> = (0..100u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut paged = StatePlane::new("paged");
    paged.extend_paged(&stream);
    let mut natural = StatePlane::new("natural");
    natural.push_chunk(vec![1, 2, 3]);
    natural.push_chunk(vec![salt, u64::MAX]);
    natural.push_chunk(Vec::new());
    let mut image = StateImage::new();
    image.push_plane(paged);
    image.push_plane(natural);
    image
}

#[test]
fn checkpoint_hashes_match_goldens() {
    let first = synthetic_image(1);
    let second = synthetic_image(2);
    let mut store = DeltaStore::new();
    let (id0, _) = store.commit(Time::from_secs(10), &first);
    let (id1, stats) = store.commit(Time::from_secs(20), &second);
    assert_eq!(
        (stats.chunks_new, stats.chunks_reused),
        (1, 6),
        "second commit must dedup every chunk but the salted one"
    );
    let manifest = |id| store.manifest(id).expect("committed manifest");
    let got = [
        chunk_key(&[]),
        chunk_key(&[1, 2, 3]),
        chunk_key(&first.planes()[0].chunks[0]),
        first.fingerprint(),
        id0,
        manifest(id0).fingerprint,
        id1,
        manifest(id1).fingerprint,
    ];
    let drifted: Vec<String> = CHECKPOINT_HASH_GOLDENS
        .iter()
        .zip(got)
        .filter(|((_, golden), got)| got != golden)
        .map(|((name, _), got)| format!("    (\"{name}\", {got:#018x}),"))
        .collect();
    assert!(
        drifted.is_empty(),
        "checkpoint hashes drifted from CHECKPOINT_HASH_GOLDENS. If the format \
         change is intended, re-record these entries of CHECKPOINT_HASH_GOLDENS \
         in tests/determinism.rs:\n{}",
        drifted.join("\n")
    );
}

/// `(index, at_ns, fingerprint)` of every checkpoint a `secs`-cadence
/// `run_delta_checkpointed` commits, the fingerprint read from the
/// committed manifest.
fn checkpoint_fps<S: Recoverable>(sys: &S, cfg: &SystemConfig, secs: u64) -> Vec<[u64; 3]> {
    let mut store = DeltaStore::new();
    let every = Duration::from_secs(secs);
    let (_, checkpoints) = sys.run_delta_checkpointed(cfg, every, &mut NullTrace, &mut store);
    checkpoints
        .iter()
        .map(|c| {
            let manifest = store.manifest(c.manifest_id).expect("committed manifest");
            [c.index as u64, c.at.as_nanos(), manifest.fingerprint]
        })
        .collect()
}

/// Fingerprints of the first `n` 20 s cadence checkpoints.
fn snapshot_fps<S: Recoverable>(sys: &S, cfg: &SystemConfig, n: usize) -> Vec<u64> {
    let fps = checkpoint_fps(sys, cfg, 20);
    assert!(fps.len() >= n, "run crossed {} cadence points", fps.len());
    fps[..n].iter().map(|&[.., fp]| fp).collect()
}

/// Checkpoint count and `(index, at_ns, fingerprint)` fold at a `secs`
/// cadence.
fn cadence_fold<S: Recoverable>(sys: &S, cfg: &SystemConfig, secs: u64) -> (usize, u64) {
    let fps = checkpoint_fps(sys, cfg, secs);
    (fps.len(), fnv1a(fps.into_iter().flatten()))
}

#[test]
fn snapshot_fingerprints_match_goldens() {
    let disagg = cfg(11);
    let mut got = snapshot_fps(&LaminarSystem::default(), &disagg, 2);
    got.extend(snapshot_fps(&PartialRollout, &disagg, 2));
    let mut drifted: Vec<String> = SNAPSHOT_GOLDENS
        .iter()
        .zip(got)
        .filter(|((.., golden), got)| got != golden)
        .map(|((name, index, _), got)| format!("    (\"{name}\", {index}, {got:#018x}),"))
        .collect();

    let colo = colocated(11);
    let mut folds = Vec::new();
    for secs in [20, 33] {
        folds.push(cadence_fold(&VerlSync, &colo, secs));
    }
    for secs in [20, 33] {
        folds.push(cadence_fold(&OneStepStaleness, &disagg, secs));
    }
    for secs in [20, 33] {
        folds.push(cadence_fold(&StreamGeneration, &disagg, secs));
    }
    for secs in [20, 33] {
        folds.push(cadence_fold(&PartialRollout, &disagg, secs));
    }
    for secs in [20, 33] {
        folds.push(cadence_fold(&LaminarSystem::default(), &disagg, secs));
    }
    drifted.extend(
        CADENCE_GOLDENS
            .iter()
            .zip(folds)
            .filter(|(&(.., count, fold), got)| *got != (count, fold))
            .map(|((name, secs, ..), (count, fold))| {
                format!("    (\"{name}\", {secs}, {count}, {fold:#018x}),")
            }),
    );
    assert!(
        drifted.is_empty(),
        "snapshot fingerprints drifted from SNAPSHOT_GOLDENS or CADENCE_GOLDENS. \
         Checkpoint descriptors written by earlier builds carry these values; if \
         the change is intended, re-record these entries in \
         tests/determinism.rs:\n{}",
        drifted.join("\n")
    );
}

/// FNV-1a of the report `Debug` followed by the trace JSONL of the three
/// recovery-plane `run_chaos` scenarios of `laminar-core`'s tests
/// `sustained_capacity_loss_enters_and_exits_degraded_mode`,
/// `flapping_slow_node_trips_breaker_and_blocks_admission` and
/// `permanently_stalled_env_aborts_trajectory_instead_of_wedging`; FNV-1a of `FleetRun::fingerprint()` for
/// the standard 4-cell fleet under the overlapping fleet fault scenario;
/// and FNV-1a of the `(secs, reward)` f64 bits of a short fig13 learning
/// curve per staleness regime. No fault-free golden reaches these paths.
const FAULT_GOLDENS: [(&str, u64); 6] = [
    ("degraded", 0x75a2b2781ec843ed),
    ("breaker", 0x784a4979299cb90b),
    ("env-abort", 0xf802d881c295ece7),
    ("fleet", 0xaaf9c9a46b3910ec),
    ("grpo on-policy", 0x43c3c66afa1c0903),
    ("grpo mixed-4", 0xda8afcea33803933),
];

/// The single-turn 7B `small_test` config the core recovery-plane tests
/// run: 3 iterations, no warmup, disaggregated 4 + 4 GPUs.
fn chaos_cfg(workload: WorkloadGenerator) -> SystemConfig {
    let mut c = SystemConfig::small_test(workload);
    c.train_gpus = 4;
    c.rollout_gpus = 4;
    c.iterations = 3;
    c.warmup = 0;
    c
}

/// Runs a chaos scenario, requires it clean and complete, and returns the
/// run with the fingerprint of its report and trace.
fn chaos_fp(
    faults: Vec<FaultEvent>,
    staleness_cap: Option<u64>,
    cfg: &SystemConfig,
) -> (ChaosRun, u64) {
    let sys = LaminarSystem {
        faults,
        staleness_cap,
        ..LaminarSystem::default()
    };
    let run = sys.run_chaos(cfg);
    assert_eq!(run.violations(), Vec::<String>::new());
    assert_eq!(
        run.report.iteration_secs.len(),
        3,
        "every iteration completes"
    );
    let mut bytes = format!("{:?}", run.report);
    bytes.push_str(&run.trace.to_jsonl());
    let fp = fnv1a_bytes(bytes.as_bytes());
    (run, fp)
}

fn curve_fp(regime: StalenessRegime) -> u64 {
    let cfg = ConvergenceConfig {
        iterations: 60,
        eval_every: 20,
        eval_episodes: 400,
        ..ConvergenceConfig::standard(10.0, 3)
    };
    let curve = convergence_curve(&regime, &cfg);
    assert_eq!(curve.len(), 3, "one point per 20 iterations");
    fnv1a(
        curve
            .into_iter()
            .flat_map(|(t, r)| [t.to_bits(), r.to_bits()]),
    )
}

#[test]
fn fault_paths_match_goldens() {
    let math = || chaos_cfg(WorkloadGenerator::single_turn(3, Checkpoint::Math7B));
    let mut got = Vec::new();

    let crash = FaultEvent::machine_crash(Time::from_secs(10), vec![0, 1], Duration::from_secs(50));
    let (run, fp) = chaos_fp(vec![crash], Some(4), &math());
    assert!(
        run.outcome.audit.degraded_entries >= 1,
        "the run must degrade"
    );
    got.push(fp);

    let flapper = 1;
    let flap = |secs| FaultEvent {
        at: Time::from_secs(secs),
        kind: FaultKind::SlowNode {
            replica: flapper,
            factor: 3.0,
            duration: Duration::from_secs(5),
        },
    };
    let (run, fp) = chaos_fp(vec![flap(10), flap(18), flap(26)], None, &math());
    assert!(
        run.outcome.breaker_trips[flapper] >= 1,
        "the breaker must trip"
    );
    assert!(
        run.outcome.audit.breaker_blocked >= 1,
        "an admission must be blocked"
    );
    got.push(fp);

    let stall = |secs| FaultEvent {
        at: Time::from_secs(secs),
        kind: FaultKind::EnvStall {
            replica: 0,
            extra: Duration::from_secs(100_000),
        },
    };
    let multi = chaos_cfg(WorkloadGenerator::multi_turn(9));
    let (run, fp) = chaos_fp(vec![stall(5), stall(15), stall(25)], None, &multi);
    assert!(run.outcome.env_aborts >= 1, "an env call must abort");
    got.push(fp);

    let mut fleet = FleetConfig::standard(4, 3, 5);
    fleet.faults = fleet_overlapping_scenario(4);
    let run = run_fleet(&fleet);
    assert_eq!(run.violations(), Vec::<String>::new());
    assert!(
        run.report.quarantine_entries >= 1,
        "a cell must be quarantined"
    );
    assert!(
        run.report.redispatched >= 1,
        "orphaned work must be re-dispatched"
    );
    got.push(fnv1a_bytes(run.fingerprint().as_bytes()));

    got.push(curve_fp(StalenessRegime::OnPolicy));
    got.push(curve_fp(StalenessRegime::Mixed { window: 4 }));

    let drifted: Vec<String> = FAULT_GOLDENS
        .iter()
        .zip(got)
        .filter(|((_, golden), got)| got != golden)
        .map(|((name, _), got)| format!("    (\"{name}\", {got:#018x}),"))
        .collect();
    assert!(
        drifted.is_empty(),
        "fault-path runs drifted from FAULT_GOLDENS. If the behaviour change is \
         intended, re-record these entries of FAULT_GOLDENS in \
         tests/determinism.rs:\n{}",
        drifted.join("\n")
    );
}
