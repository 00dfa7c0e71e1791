//! Allocation budgets of the per-trajectory hot paths.
//!
//! This test binary registers the counting allocator and replays a fixed
//! micro batch — 96 single-turn trajectories at seed 11, all submitted at
//! t = 0, one mid-flight weight interrupt — on the slab-indexed engine,
//! once untraced and once with span tracing serialized to JSONL through
//! one reusable buffer. It also generates one 512×16 global batch of specs,
//! single-turn and multi-turn, whose only allocations may be the result
//! vector and one segment list per spec. Allocation counts are
//! deterministic, so a budget breach is a real code change (a per-event
//! allocation crept into the engine or the trace pipeline, or a per-spec
//! one into the workload generator), never machine noise.
//!
//! The file holds one `#[test]` on purpose: the counters are process-wide,
//! and a second test running on another thread would leak its allocations
//! into the measurement.

use laminar_bench::alloc_count::{self, CountingAlloc};
use laminar_cluster::{DecodeModel, GpuSpec, ModelSpec};
use laminar_rollout::{EngineConfig, ReplicaEngine};
use laminar_sim::Time;
use laminar_workload::{Checkpoint, Dataset, TrajectorySpec, WorkloadGenerator};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator round trips per engine event measured when the budget was set,
/// untraced and traced. The budget is each plus 20%.
const UNTRACED_ALLOCS_PER_EVENT: f64 = 0.539;
const TRACED_ALLOCS_PER_EVENT: f64 = 0.581;

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
                e.drain_trace_spans(&mut |spans| {
                    for sp in spans {
                        sp.write_json(&mut jsonl)
                            .expect("fmt::Write on String is infallible");
                        jsonl.push('\n');
                    }
                });
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

#[test]
fn engine_hot_path_stays_within_allocation_budget() {
    let specs = micro_batch();
    alloc_count::enable();
    let untraced = allocs_per_event(&specs, false);
    let traced = allocs_per_event(&specs, true);
    let single_turn = batch_allocs(&WorkloadGenerator::single_turn(11, Checkpoint::Math7B));
    let multi_turn = batch_allocs(&WorkloadGenerator::multi_turn(11));
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
    for (leg, (specs, allocs)) in [("single-turn", single_turn), ("multi-turn", multi_turn)] {
        assert!(
            allocs <= specs + 1,
            "{leg} batch(): {allocs} allocations for {specs} specs, over the budget of \
             {} (one segment list per spec plus the result vector)",
            specs + 1
        );
    }
}
