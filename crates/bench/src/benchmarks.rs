//! The sharded-driver scaling curve behind `laminar-experiments
//! --shard-curve`.
//!
//! One fixed Laminar system run is repeated at shard counts 1, 2, 4, and 8
//! (requested raw, not clamped — on a small machine the extra workers
//! timeshare, and the point of the curve is the sharded code path itself),
//! recording wall seconds, the fence-window profile, and allocator round
//! trips per shard count, plus a determinism verdict: every leg's report
//! debug string and JSONL event trace must be byte-identical to the serial
//! leg's. A `false` there is a correctness bug, never noise.
//!
//! The JSON is hand-rolled (the workspace is dependency-free) and stamped
//! `schema: 6`: a `shard_curve` block with `secs_by_shards`, the
//! `deterministic` verdict, the serial-over-best `speedup`, and a
//! `window_stats` sub-block (barriers per run, central events per fence
//! window, batch sizes, allocations per sharded point). Whole-run timing
//! of the engine, checkpoint plane, fleet plane, and experiment grids is
//! the `perfbench` benchmark's job, not this module's.

use crate::alloc_count;
use laminar_cluster::ModelSpec;
use laminar_core::{placement_for, LaminarSystem, SystemKind, WindowStats};
use laminar_runtime::{RecordingTrace, SystemConfig};
use laminar_workload::{Checkpoint, WorkloadGenerator};
use std::fmt::Write as _;
use std::path::Path;

/// One point of the sharded-driver scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct ShardPoint {
    /// Requested shard count (worker threads between lookahead fences).
    pub shards: usize,
    /// Wall seconds for the fixed system run at this shard count.
    pub secs: f64,
    /// Fence-window profile of the run (all-zero on the serial driver,
    /// which fences nothing).
    pub stats: WindowStats,
    /// Allocator round trips during the run (0 when the counting
    /// allocator is not registered).
    pub allocs: u64,
}

/// `"shards": value` pairs for every point, comma-joined — the body of one
/// per-shard-count JSON object.
fn by_shards(points: &[ShardPoint], value: impl Fn(&ShardPoint) -> String) -> String {
    points
        .iter()
        .map(|p| format!("\"{}\": {}", p.shards, value(p)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The shard-curve report — the CI multi-core datapoint.
#[derive(Debug, Clone)]
pub struct ShardCurveReport {
    /// `"smoke"` or `"full"`.
    pub mode: &'static str,
    /// The machine's available parallelism at run time.
    pub available_parallelism: usize,
    /// Wall seconds for one fixed Laminar system run at each shard count,
    /// serial (1) first.
    pub points: Vec<ShardPoint>,
    /// True when every shard count produced the byte-identical report and
    /// JSONL event trace the serial driver did. Deterministic by design —
    /// `false` is a correctness regression, not noise.
    pub deterministic: bool,
}

impl ShardCurveReport {
    /// Serial-over-best-sharded wall-clock ratio (1.0 when no comparison is
    /// possible). Below 1.0 on machines where the shard workers timeshare a
    /// single core — the determinism verdict is the load-bearing output
    /// there.
    pub fn speedup(&self) -> f64 {
        let serial = self.points.iter().find(|p| p.shards == 1).map(|p| p.secs);
        let best = self
            .points
            .iter()
            .filter(|p| p.shards > 1)
            .map(|p| p.secs)
            .min_by(f64::total_cmp);
        match (serial, best) {
            (Some(s), Some(b)) => s / b.max(1e-12),
            _ => 1.0,
        }
    }

    /// Serializes the report (see the module docs for the schema).
    pub fn to_json(&self) -> String {
        let sharded: Vec<ShardPoint> = self
            .points
            .iter()
            .filter(|p| p.shards > 1)
            .copied()
            .collect();
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": 6,");
        let _ = writeln!(s, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(
            s,
            "  \"available_parallelism\": {},",
            self.available_parallelism
        );
        let _ = writeln!(s, "  \"shard_curve\": {{");
        let _ = writeln!(
            s,
            "    \"secs_by_shards\": {{{}}},",
            by_shards(&self.points, |p| format!("{:.3}", p.secs))
        );
        let _ = writeln!(s, "    \"deterministic\": {},", self.deterministic);
        let _ = writeln!(s, "    \"speedup\": {:.2},", self.speedup());
        let _ = writeln!(s, "    \"window_stats\": {{");
        let _ = writeln!(
            s,
            "      \"barriers_by_shards\": {{{}}},",
            by_shards(&sharded, |p| p.stats.barriers.to_string())
        );
        let _ = writeln!(
            s,
            "      \"events_per_window_by_shards\": {{{}}},",
            by_shards(&sharded, |p| format!("{:.3}", p.stats.events_per_window()))
        );
        let _ = writeln!(
            s,
            "      \"batched_windows_by_shards\": {{{}}},",
            by_shards(&sharded, |p| p.stats.batched_windows.to_string())
        );
        let _ = writeln!(
            s,
            "      \"max_batch_by_shards\": {{{}}},",
            by_shards(&sharded, |p| p.stats.max_batch.to_string())
        );
        let _ = writeln!(
            s,
            "      \"handoff_replays_by_shards\": {{{}}},",
            by_shards(&sharded, |p| p.stats.handoff_replays.to_string())
        );
        let _ = writeln!(
            s,
            "      \"allocs_by_shards\": {{{}}}",
            by_shards(&sharded, |p| p.allocs.to_string())
        );
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "  }}");
        let _ = writeln!(s, "}}");
        s
    }

    /// Human-readable summary for the terminal.
    pub fn summary(&self) -> String {
        let points = self
            .points
            .iter()
            .map(|p| format!("{}:{:.2}s", p.shards, p.secs))
            .collect::<Vec<_>>()
            .join(" | ");
        let windows = self
            .points
            .iter()
            .filter(|p| p.shards > 1)
            .map(|p| {
                format!(
                    "{}: {} barriers, {:.2} ev/window, max batch {}",
                    p.shards,
                    p.stats.barriers,
                    p.stats.events_per_window(),
                    p.stats.max_batch
                )
            })
            .collect::<Vec<_>>()
            .join(" | ");
        format!(
            "shards: {points} | {:.2}x | deterministic: {} | cores {}\n\
             window: {windows}",
            self.speedup(),
            self.deterministic,
            self.available_parallelism,
        )
    }

    /// Writes the JSON report to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Runs the shard curve with allocation accounting bracketed around it.
/// See [`ShardCurveReport`].
pub fn run_shard_curve(smoke: bool) -> ShardCurveReport {
    alloc_count::enable();
    let (points, deterministic) = time_shard_curve(smoke);
    alloc_count::disable();
    ShardCurveReport {
        mode: if smoke { "smoke" } else { "full" },
        available_parallelism: crate::runner::default_jobs(),
        points,
        deterministic,
    }
}

/// The fixed run the curve repeats: Laminar on 7B at 16 GPUs, single-turn
/// math at seed 11, no warm-up, 2 iterations in smoke mode and 3 in full.
fn shard_curve_config(smoke: bool) -> SystemConfig {
    let model = ModelSpec::qwen_7b();
    let p = placement_for(SystemKind::Laminar, &model, 16);
    let mut cfg = SystemConfig::new(
        model,
        p.train,
        p.rollout,
        p.tp,
        WorkloadGenerator::single_turn(11, Checkpoint::Math7B),
    );
    cfg.iterations = if smoke { 2 } else { 3 };
    cfg.warmup = 0;
    cfg
}

/// Measures the sharded-driver scaling curve: one fixed Laminar system run
/// repeated at each shard count, returning the points plus the determinism
/// verdict (report debug string and JSONL trace byte-identical to the
/// serial leg at every count). Each point carries the fence-window profile
/// and, when the counting allocator is registered, the run's allocator
/// round trips — the guard on the zero-alloc window hot loop: the sharded
/// driver reuses World-owned scratch (eligibility flags, completion-head
/// arena, wake arenas) across windows, so its allocation count must stay
/// within a small factor of the serial driver's instead of growing by
/// O(allocs × barriers).
fn time_shard_curve(smoke: bool) -> (Vec<ShardPoint>, bool) {
    let cfg = shard_curve_config(smoke);
    let mut curve: Vec<ShardPoint> = Vec::new();
    let mut fingerprint: Option<(String, String)> = None;
    let mut deterministic = true;
    for shards in [1usize, 2, 4, 8] {
        let sys = LaminarSystem {
            shards,
            ..LaminarSystem::default()
        };
        let mut trace = RecordingTrace::new();
        let start = std::time::Instant::now();
        let ((report, stats), alloc_stats) =
            alloc_count::measure(|| sys.run_traced_stats(&cfg, &mut trace));
        let secs = start.elapsed().as_secs_f64();
        let fp = (format!("{report:?}"), trace.to_jsonl());
        match &fingerprint {
            None => fingerprint = Some(fp),
            Some(serial) => deterministic &= *serial == fp,
        }
        curve.push(ShardPoint {
            shards,
            secs,
            stats,
            allocs: alloc_stats.allocs,
        });
    }
    if alloc_count::is_active() {
        let serial_allocs = curve[0].allocs.max(1);
        for p in curve.iter().filter(|p| p.shards > 1) {
            assert!(
                p.allocs <= serial_allocs.saturating_mul(3) / 2 + 64 * p.shards as u64,
                "sharded window loop is no longer allocation-free: \
                 {} allocs at shards={} vs {} serial (a per-window scratch \
                 allocation regressed — see World::advance_shards)",
                p.allocs,
                p.shards,
                serial_allocs
            );
        }
    }
    (curve, deterministic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_curve_json_is_well_formed() {
        let r = ShardCurveReport {
            mode: "smoke",
            available_parallelism: 8,
            points: vec![
                ShardPoint {
                    shards: 1,
                    secs: 2.0,
                    stats: WindowStats::default(),
                    allocs: 1000,
                },
                ShardPoint {
                    shards: 4,
                    secs: 1.0,
                    stats: WindowStats {
                        barriers: 100,
                        central_events: 250,
                        handoff_replays: 40,
                        batched_windows: 60,
                        max_batch: 9,
                    },
                    allocs: 1100,
                },
            ],
            deterministic: true,
        };
        assert!((r.speedup() - 2.0).abs() < 1e-9);
        let j = r.to_json();
        assert!(j.contains("\"schema\": 6"));
        assert!(j.contains("\"available_parallelism\": 8"));
        assert!(j.contains("\"secs_by_shards\": {\"1\": 2.000, \"4\": 1.000}"));
        assert!(j.contains("\"deterministic\": true"));
        assert!(j.contains("\"speedup\": 2.00"));
        assert!(j.contains("\"barriers_by_shards\": {\"4\": 100}"));
        assert!(j.contains("\"events_per_window_by_shards\": {\"4\": 2.500}"));
        assert!(j.contains("\"batched_windows_by_shards\": {\"4\": 60}"));
        assert!(j.contains("\"max_batch_by_shards\": {\"4\": 9}"));
        assert!(j.contains("\"handoff_replays_by_shards\": {\"4\": 40}"));
        assert!(j.contains("\"allocs_by_shards\": {\"4\": 1100}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    /// Fence barriers the smoke curve's shards=2 run crossed when this
    /// budget was set. The count is deterministic; growth means the
    /// fence-batching planner lost window width (narrower windows, more
    /// synchronization per run).
    const SMOKE_BARRIERS_S2: u64 = 6_355;

    #[test]
    fn smoke_curve_fence_barriers_stay_within_budget() {
        let sys = LaminarSystem {
            shards: 2,
            ..LaminarSystem::default()
        };
        let (_, stats) =
            sys.run_traced_stats(&shard_curve_config(true), &mut RecordingTrace::new());
        let budget = SMOKE_BARRIERS_S2 * 6 / 5;
        assert!(
            stats.barriers > 0,
            "shards=2 run crossed no fence barriers: the sharded driver did not run"
        );
        assert!(
            stats.barriers <= budget,
            "shards=2 smoke run crossed {} fence barriers, over the budget of {budget} \
             ({SMOKE_BARRIERS_S2} + 20%): the fence-batching planner lost window width",
            stats.barriers
        );
    }
}
