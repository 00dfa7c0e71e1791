//! Property tests for delta checkpoints.
//!
//! `run_delta_checkpointed` commits each cadence point's
//! [`StateImage`](laminar_runtime::StateImage) into a deduplicating
//! [`DeltaStore`]. The contract: the image the store holds for a checkpoint
//! must be *byte-identical* to a fresh `encode_state` of the checkpoint's
//! cloned snapshot — the state a resume actually runs — and the manifest's
//! recorded fingerprint must match both. These tests sweep that property
//! across 16 seeds of generated chaos schedules, then soak a tight cadence
//! (hundreds of checkpoints in one run) and prove a resume off the full
//! manifest chain.

use laminar_core::{generate_schedule, ChaosConfig, LaminarSystem};
use laminar_runtime::recovery::{check_checkpoint_soak, Recoverable};
use laminar_runtime::{DeltaStore, RecordingTrace, SystemConfig};
use laminar_sim::{Duration, Time};
use laminar_workload::{Checkpoint, WorkloadGenerator};

fn small_cfg() -> SystemConfig {
    let mut c = SystemConfig::small_test(WorkloadGenerator::single_turn(7, Checkpoint::Math7B));
    c.train_gpus = 4;
    c.rollout_gpus = 4;
    c.iterations = 3;
    c.warmup = 0;
    c
}

/// Committed image == fresh encode of the cloned snapshot == manifest
/// fingerprint, at every cadence point, across 16 seeds of chaos schedules.
/// A plane the clone fails to carry (or the store fails to keep) breaks the
/// `StateImage` equality, not just the fingerprint — so a mismatch
/// pinpoints the plane rather than hiding behind a hash.
#[test]
fn committed_images_match_fresh_snapshot_encodes_across_chaos_seeds() {
    let cfg = small_cfg();
    for seed in 0..16u64 {
        let faults = generate_schedule(
            seed,
            &ChaosConfig {
                events: 4,
                earliest: Time::from_secs_f64(10.0),
                horizon: Time::from_secs_f64(150.0),
                replicas: cfg.replicas(),
            },
        );
        let sys = LaminarSystem {
            faults,
            ..LaminarSystem::default()
        };
        let mut store = DeltaStore::new();
        let mut trace = RecordingTrace::new();
        let (_report, checkpoints) =
            sys.run_delta_checkpointed(&cfg, Duration::from_secs(20), &mut trace, &mut store);
        assert!(
            !checkpoints.is_empty(),
            "seed {seed}: run too short to cross a cadence point"
        );
        for ckpt in &checkpoints {
            let fresh = LaminarSystem::encode_state(&ckpt.state);
            let manifest = store.manifest(ckpt.manifest_id).unwrap_or_else(|| {
                panic!("seed {seed}: checkpoint {} manifest missing", ckpt.index)
            });
            store.verify(manifest, &fresh).unwrap_or_else(|e| {
                panic!("seed {seed}: checkpoint {} failed verify: {e}", ckpt.index)
            });
            let reconstructed = store.reconstruct(manifest).unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: checkpoint {} failed reconstruct: {e}",
                    ckpt.index
                )
            });
            assert_eq!(
                reconstructed, fresh,
                "seed {seed}: checkpoint {} committed image differs from fresh encode",
                ckpt.index
            );
            assert_eq!(
                manifest.fingerprint,
                fresh.fingerprint(),
                "seed {seed}: checkpoint {} manifest fingerprint != fresh fingerprint",
                ckpt.index
            );
            store
                .verify_chain(manifest.id)
                .unwrap_or_else(|e| panic!("seed {seed}: broken manifest chain: {e}"));
        }
    }
}

/// Long-horizon soak: a 2 s cadence commits checkpoints by the hundred in
/// one run. Every manifest chain and fingerprint verifies, every live state
/// matches its stored chunks word for word, the checkpointed run never
/// perturbs the uninterrupted one, and the resume from the *final*
/// checkpoint — reachable only through the entire manifest chain —
/// reproduces the uninterrupted run byte for byte.
#[test]
fn tight_cadence_soak_resumes_off_full_manifest_chain() {
    let cfg = small_cfg();
    let sys = LaminarSystem {
        faults: laminar_core::overlapping_scenario(cfg.replicas()),
        ..LaminarSystem::default()
    };
    let soak = check_checkpoint_soak(&sys, &cfg, Duration::from_secs(2));
    assert!(
        soak.snapshots >= 100,
        "expected a hundreds-of-checkpoints soak, got {}",
        soak.snapshots
    );
    assert!(
        soak.identical(),
        "soak diverged: {} ({}/{} fingerprints verified, checkpointed identical: {}, \
         last resume identical: {})",
        soak.first_divergence.as_deref().unwrap_or("unknown"),
        soak.fingerprints_verified,
        soak.snapshots,
        soak.checkpointed_identical,
        soak.last_resume_identical,
    );
    // Deduplication is the point of the exercise: at a 2 s cadence the
    // overwhelming majority of chunks must be reused from earlier commits.
    assert!(
        soak.cost.chunks_reused as f64 >= 0.8 * soak.cost.chunks_total as f64,
        "chunk reuse collapsed: {}/{}",
        soak.cost.chunks_reused,
        soak.cost.chunks_total
    );
}
