//! Allocation budgets of the per-trajectory hot paths.
//!
//! This test binary registers the counting allocator and replays a fixed
//! micro batch — 96 single-turn trajectories at seed 11, all submitted at
//! t = 0, one mid-flight weight interrupt — on the slab-indexed engine,
//! once untraced and once with span tracing serialized to JSONL through
//! one reusable buffer. It also generates one 512×16 global batch of specs:
//! a single-turn spec holds its one segment inline, so a single-turn batch
//! allocates only the result vector, and a multi-turn batch may add one
//! segment list per spec. It encodes a mid-run Laminar snapshot as a
//! checkpoint image and commits it to a warm delta store: an image holds
//! each plane as one word buffer, and a commit stores its new chunks as one
//! segment, so both cost allocations per plane (and per replica, whose
//! engine writes four record runs), not per chunk. It clones that snapshot,
//! whose trajectory records (specs, partial responses, in-flight states)
//! are heap-free, so the clone may allocate once per buffered experience
//! (its version list) plus a fixed amount per replica. Last, it runs that
//! configuration to completion on Laminar and on verl, each within its
//! recorded allocations per completed trajectory. Allocation counts are
//! deterministic, so a budget breach is a real code change (a per-event
//! allocation crept into the engine or the trace pipeline, a per-spec one
//! into the workload generator, a per-chunk one into the checkpoint plane,
//! or a per-trajectory one into a system's records or completion
//! delivery), never machine noise.
//!
//! The file holds one `#[test]` on purpose: the counters are process-wide,
//! and a second test running on another thread would leak its allocations
//! into the measurement.

use laminar_baselines::VerlSync;
use laminar_bench::alloc_count::{self, CountingAlloc};
use laminar_cluster::{DecodeModel, GpuSpec, ModelSpec};
use laminar_core::LaminarSystem;
use laminar_rollout::{EngineConfig, ReplicaEngine};
use laminar_runtime::{DeltaStore, NullTrace, Recoverable, RlSystem, SystemConfig};
use laminar_sim::Time;
use laminar_workload::{Checkpoint, Dataset, TrajectorySpec, WorkloadGenerator};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator round trips per engine event measured when the budget was set,
/// untraced and traced. The budget is each plus 20%.
const UNTRACED_ALLOCS_PER_EVENT: f64 = 0.237;
const TRACED_ALLOCS_PER_EVENT: f64 = 0.279;

/// Allocator round trips per completed trajectory of a whole run of the
/// checkpoint legs' configuration, measured when the budget was set. The
/// budget is each plus 20%.
const LAMINAR_RUN_ALLOCS_PER_TRAJ: f64 = 2.041;
const VERL_RUN_ALLOCS_PER_TRAJ: f64 = 1.238;

/// Allocations an image encode may make per plane or replica, and a
/// commit beyond one key list per plane.
const ENCODE_ALLOCS_PER_PLANE: u64 = 8;
const COMMIT_ALLOCS_BEYOND_PLANES: u64 = 8;

/// Allocations a snapshot clone may make per replica beyond one per
/// buffered experience.
const CLONE_ALLOCS_PER_REPLICA: u64 = 16;

/// Runs of the batch per leg; the second reuses the warmed JSONL buffer.
const REPEATS: usize = 2;

fn micro_batch() -> Vec<TrajectorySpec> {
    let workload = WorkloadGenerator::single_turn(11, Checkpoint::Math7B);
    (0..96u64)
        .map(|i| workload.trajectory(i, i / 16, (i % 16) as usize, 1.0))
        .collect()
}

/// Allocations per processed engine event over `REPEATS` runs of `specs`.
fn allocs_per_event(specs: &[TrajectorySpec], traced: bool) -> f64 {
    let cfg = EngineConfig {
        record_trace: traced,
        ..EngineConfig::default()
    };
    let mut jsonl = String::new();
    let mut events = 0u64;
    let ((), stats) = alloc_count::measure(|| {
        for _ in 0..REPEATS {
            let decode = DecodeModel::new(ModelSpec::qwen_7b(), GpuSpec::h800(), 1);
            let mut e = ReplicaEngine::new(0, decode, cfg.clone());
            for s in specs {
                e.submit(s.clone(), Time::ZERO);
            }
            e.interrupt_with_weights(1, Time::from_secs(30));
            while let Some(t) = e.next_event_time() {
                e.advance_to(t);
            }
            events += e.events_processed();
            if traced {
                jsonl.clear();
                for sp in e.trace_spans() {
                    sp.write_json(&mut jsonl)
                        .expect("fmt::Write on String is infallible");
                    jsonl.push('\n');
                }
                assert!(!jsonl.is_empty(), "traced run recorded no spans");
            }
        }
    });
    assert!(events > 0, "the micro batch processed no events");
    stats.allocs as f64 / events as f64
}

/// `(specs, allocations)` of one `batch()` call over a 512×16 global batch.
fn batch_allocs(workload: &WorkloadGenerator) -> (u64, u64) {
    let batch = Dataset::dapo_math_17k().next_batch(512);
    let (specs, stats) = alloc_count::measure(|| workload.batch(&batch, 1.006));
    (specs.len() as u64, stats.allocs)
}

/// Allocation counts of the checkpoint plane and the snapshot clone on
/// one mid-run snapshot.
struct CheckpointAllocs {
    planes: u64,
    replicas: u64,
    chunks: u64,
    encode: u64,
    commit: u64,
    experiences: u64,
    clone: u64,
}

/// The seed-11 `small_test` configuration at four iterations of 64
/// prompts: 8 rollout replicas and 8 trainer GPUs.
fn config() -> SystemConfig {
    let mut cfg = SystemConfig::small_test(WorkloadGenerator::single_turn(11, Checkpoint::Math7B));
    cfg.iterations = 4;
    cfg.prompts_per_batch = 64;
    cfg
}

/// Encodes the 60 s pause point of a traced Laminar run of [`config`]
/// and commits it to a store that already holds the 30 s point's image,
/// then clones the paused run, counting the allocations of each call.
fn checkpoint_allocs() -> CheckpointAllocs {
    let cfg = config();
    let mut run = LaminarSystem::default().start(&cfg, true);
    let mut store = DeltaStore::new();
    let (warm, at) = (Time::from_secs(30), Time::from_secs(60));
    assert!(
        !LaminarSystem::advance(&mut run, warm),
        "the run ended before 30 s"
    );
    store.commit(warm, &LaminarSystem::encode_state(&run));
    assert!(
        !LaminarSystem::advance(&mut run, at),
        "the run ended before 60 s"
    );
    let (image, encode) = alloc_count::measure(|| LaminarSystem::encode_state(&run));
    let (_, commit) = alloc_count::measure(|| store.commit(at, &image));
    let (copy, clone) = alloc_count::measure(|| run.clone());
    drop(copy);
    let buffer = image
        .planes()
        .iter()
        .find(|p| p.name == "buffer")
        .expect("a Laminar image has a buffer plane");
    CheckpointAllocs {
        planes: image.planes().len() as u64,
        replicas: cfg.replicas() as u64,
        chunks: image.planes().iter().map(|p| p.chunk_count() as u64).sum(),
        encode: encode.allocs,
        commit: commit.allocs,
        // The buffer plane is a head chunk plus one chunk per experience.
        experiences: buffer.chunk_count() as u64 - 1,
        clone: clone.allocs,
    }
}

/// `(completed trajectories, allocations)` of one untraced run of `sys`.
fn run_allocs(sys: &dyn RlSystem, cfg: &SystemConfig) -> (u64, u64) {
    let (report, stats) = alloc_count::measure(|| sys.run_traced(cfg, &mut NullTrace));
    (report.latencies.len() as u64, stats.allocs)
}

#[test]
fn engine_hot_path_stays_within_allocation_budget() {
    let specs = micro_batch();
    alloc_count::enable();
    let untraced = allocs_per_event(&specs, false);
    let traced = allocs_per_event(&specs, true);
    let single_turn = batch_allocs(&WorkloadGenerator::single_turn(11, Checkpoint::Math7B));
    let multi_turn = batch_allocs(&WorkloadGenerator::multi_turn(11));
    let ckpt = checkpoint_allocs();
    let laminar = run_allocs(&LaminarSystem::default(), &config());
    let mut colocated = config();
    colocated.train_gpus = 0;
    let verl = run_allocs(&VerlSync, &colocated);
    alloc_count::disable();
    assert!(
        alloc_count::is_active(),
        "the counting allocator is not registered in this test binary"
    );
    for (leg, measured, baseline) in [
        ("untraced", untraced, UNTRACED_ALLOCS_PER_EVENT),
        ("traced", traced, TRACED_ALLOCS_PER_EVENT),
    ] {
        let budget = baseline * 1.2;
        assert!(
            measured <= budget,
            "{leg} engine: {measured:.3} allocs/event, over the budget of \
             {budget:.3} ({baseline:.3} + 20%)"
        );
    }
    let (specs, allocs) = single_turn;
    assert_eq!(
        allocs, 1,
        "single-turn batch(): {allocs} allocations for {specs} specs, where the result \
         vector is the only one (each spec holds its segment inline)"
    );
    let (specs, allocs) = multi_turn;
    assert!(
        allocs <= specs + 1,
        "multi-turn batch(): {allocs} allocations for {specs} specs, over the budget of \
         {} (one segment list per spec plus the result vector)",
        specs + 1
    );
    let per_plane = ckpt.planes + ckpt.replicas;
    assert!(
        ckpt.encode <= ENCODE_ALLOCS_PER_PLANE * per_plane,
        "encoding a Laminar snapshot: {} allocations, over the budget of {} \
         ({ENCODE_ALLOCS_PER_PLANE} per plane or replica, {} planes, {} replicas)",
        ckpt.encode,
        ENCODE_ALLOCS_PER_PLANE * per_plane,
        ckpt.planes,
        ckpt.replicas
    );
    assert!(
        ckpt.chunks >= 4 * ENCODE_ALLOCS_PER_PLANE * per_plane,
        "the snapshot has only {} chunks: too few for the encode budget to \
         tell per-plane from per-chunk allocation",
        ckpt.chunks
    );
    assert!(
        ckpt.commit <= ckpt.planes + COMMIT_ALLOCS_BEYOND_PLANES,
        "committing a Laminar image: {} allocations, over the budget of {} \
         (one key list per plane plus {COMMIT_ALLOCS_BEYOND_PLANES})",
        ckpt.commit,
        ckpt.planes + COMMIT_ALLOCS_BEYOND_PLANES
    );
    let clone_budget = ckpt.experiences + CLONE_ALLOCS_PER_REPLICA * ckpt.replicas;
    assert!(
        ckpt.clone <= clone_budget,
        "cloning a Laminar snapshot: {} allocations, over the budget of {clone_budget} \
         (one per buffered experience, {}, plus {CLONE_ALLOCS_PER_REPLICA} per replica, {})",
        ckpt.clone,
        ckpt.experiences,
        ckpt.replicas
    );
    for (leg, (trajectories, allocs), baseline) in [
        ("laminar", laminar, LAMINAR_RUN_ALLOCS_PER_TRAJ),
        ("verl", verl, VERL_RUN_ALLOCS_PER_TRAJ),
    ] {
        assert!(trajectories > 0, "the {leg} run completed no trajectory");
        let (measured, budget) = (allocs as f64 / trajectories as f64, baseline * 1.2);
        assert!(
            measured <= budget,
            "{leg} run: {measured:.3} allocs per trajectory ({allocs} for {trajectories}), \
             over the budget of {budget:.3} ({baseline:.3} + 20%)"
        );
    }
}
