//! Experiment registry: one entry per paper table/figure.

pub mod ablations;
pub mod async_figs;
pub mod chaos;
pub mod convergence_fig;
pub mod fleet;
pub mod perf_figs;
pub mod recovery;
pub mod tables;
pub mod throughput;
pub mod workload_figs;

use laminar_baselines::{OneStepStaleness, PartialRollout, StreamGeneration, VerlSync};
use laminar_cluster::ModelSpec;
use laminar_core::{placement_for, LaminarSystem, SystemKind};
use laminar_runtime::{RecordingTrace, RlSystem, RunReport, SystemConfig, TraceSink};
use laminar_workload::WorkloadGenerator;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Harness options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Shrink batches/iterations for minutes-scale runs (default). `false`
    /// runs the paper-sized configurations.
    pub quick: bool,
    /// Root seed.
    pub seed: u64,
    /// When set, every system run appends its event-trace spans to this
    /// JSONL file (one span object per line).
    pub trace: Option<PathBuf>,
    /// Worker threads for intra-experiment grid fan-out ([`Opts::run_grid`]).
    /// `1` (the default) runs every grid cell inline.
    pub jobs: usize,
    /// Root seed for the `chaos` experiment's fault-schedule generator.
    /// Seed `k` of the sweep uses `chaos_seed + k`.
    pub chaos_seed: u64,
    /// Root seed for the `recovery` experiment's sustained fault schedules.
    pub recovery_seed: u64,
    /// Cells behind the admission router for the `fleet` experiment's
    /// acceptance scenario (`--fleet-cells`, min 4).
    pub fleet_cells: usize,
    /// Root seed for the `fleet` experiment's fault-schedule generator
    /// (`--fleet-seed`). Seed `k` of the sweep uses `fleet_seed + k`.
    pub fleet_seed: u64,
    /// Checkpoint cadence override (virtual seconds) for the `recovery`
    /// experiment's checkpoint/restore section. `None` exercises the two
    /// built-in cadences.
    pub checkpoint_every: Option<f64>,
    /// When set, trace spans are buffered here instead of written straight
    /// to [`Opts::trace`]; the experiment driver flushes whole-experiment
    /// buffers to the file in deterministic id order after the parallel
    /// fan-out completes. Spans within one experiment stay ordered because
    /// [`Opts::run_grid`] sinks per-run traces in grid input order and
    /// serial code paths sink at call time. Install via
    /// [`Opts::buffer_trace`]; leave `None` to write straight to the file.
    pub trace_buf: Option<Arc<Mutex<String>>>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            quick: true,
            seed: 7,
            trace: None,
            jobs: 1,
            chaos_seed: 1,
            recovery_seed: 1,
            fleet_cells: 4,
            fleet_seed: 1,
            checkpoint_every: None,
            trace_buf: None,
        }
    }
}

impl Opts {
    /// Builds the [`SystemConfig`] for a system at a Table 2 scale point,
    /// applying quick-mode shrinking.
    pub fn config(
        &self,
        kind: SystemKind,
        model: ModelSpec,
        total_gpus: usize,
        workload: WorkloadGenerator,
    ) -> SystemConfig {
        let p = placement_for(kind, &model, total_gpus);
        let mut cfg = SystemConfig::new(model, p.train, p.rollout, p.tp, workload);
        cfg.seed = self.seed;
        if self.quick {
            // Keep the paper's batch geometry (it sets per-replica decode
            // batch sizes, which throughput depends on) and trim the
            // iteration count instead.
            cfg.iterations = 2;
            cfg.warmup = 2;
        } else {
            cfg.iterations = 3;
            cfg.warmup = 3;
        }
        cfg
    }

    /// Redirects trace output into an in-memory buffer and returns the
    /// buffer handle. Used by the experiment driver to run experiments in
    /// parallel while keeping the on-disk trace file ordered: each
    /// experiment writes to its own buffer, and the driver flushes buffers
    /// to [`Opts::trace`] in experiment id order.
    pub fn buffer_trace(&mut self) -> Arc<Mutex<String>> {
        let buf = Arc::new(Mutex::new(String::new()));
        self.trace_buf = Some(Arc::clone(&buf));
        buf
    }

    /// Whether runs should record trace spans at all.
    pub(crate) fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Sinks one run's recorded spans: into the in-memory buffer when one is
    /// installed, otherwise appended to the [`Opts::trace`] JSONL file.
    pub(crate) fn sink_trace(&self, rec: &RecordingTrace) {
        match (&self.trace_buf, &self.trace) {
            (Some(buf), _) => rec.write_jsonl_into(&mut buf.lock().expect("trace buffer")),
            (None, Some(path)) => rec.append_jsonl(path).expect("append trace JSONL"),
            (None, None) => {}
        }
    }

    /// Runs a system kind on a configuration. With [`Opts::trace`] set, the
    /// run's event spans are appended to the JSONL trace file (or to the
    /// installed trace buffer).
    pub fn run_system(&self, kind: SystemKind, cfg: &SystemConfig) -> RunReport {
        if !self.tracing() {
            return dispatch(kind, cfg, &mut laminar_runtime::NullTrace);
        }
        let mut rec = RecordingTrace::new();
        let report = dispatch(kind, cfg, &mut rec);
        self.sink_trace(&rec);
        report
    }

    /// Runs a batch of independent system runs, fanning them across
    /// [`Opts::jobs`] worker threads, and returns the reports in input
    /// order. Trace spans are recorded per run and sunk sequentially in
    /// input order after all runs finish, so the trace file (or buffer) is
    /// byte-identical to a `jobs = 1` run.
    pub fn run_grid(&self, runs: Vec<(SystemKind, SystemConfig)>) -> Vec<RunReport> {
        let tracing = self.tracing();
        let results = crate::runner::run_indexed(runs, self.jobs, |_, (kind, cfg)| {
            if tracing {
                let mut rec = RecordingTrace::new();
                let report = dispatch(kind, &cfg, &mut rec);
                (report, Some(rec))
            } else {
                (dispatch(kind, &cfg, &mut laminar_runtime::NullTrace), None)
            }
        });
        results
            .into_iter()
            .map(|(report, rec)| {
                if let Some(rec) = rec {
                    self.sink_trace(&rec);
                }
                report
            })
            .collect()
    }

    /// The evaluated cluster scales for a model, trimmed in quick mode.
    pub fn scales(&self, model: &ModelSpec) -> Vec<usize> {
        let all = laminar_core::placement::paper_scales(model);
        if self.quick {
            // First, middle, and last scale keep the trend visible.
            vec![all[0], all[2], all[4]]
        } else {
            all
        }
    }
}

/// Runs `kind` on `cfg`, forwarding spans to `trace`.
pub(crate) fn dispatch(
    kind: SystemKind,
    cfg: &SystemConfig,
    trace: &mut dyn TraceSink,
) -> RunReport {
    match kind {
        SystemKind::Verl => VerlSync.run_traced(cfg, trace),
        SystemKind::OneStep => OneStepStaleness.run_traced(cfg, trace),
        SystemKind::StreamGen => StreamGeneration.run_traced(cfg, trace),
        SystemKind::PartialRollout => PartialRollout.run_traced(cfg, trace),
        SystemKind::Laminar => LaminarSystem::default().run_traced(cfg, trace),
    }
}

/// One registered experiment: id, a one-line title, the spec/CLI knobs it
/// honors beyond the common set (`--seed`, `--full/--quick`, `--jobs`,
/// `--trace`), and its run function.
///
/// This table is the single source of truth: the id list, the dispatch,
/// and the binary's `--list` output all derive from it.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentDef {
    /// Stable experiment id (also the result file stem).
    pub id: &'static str,
    /// One-line description for `--list`.
    pub title: &'static str,
    /// Experiment-specific knobs beyond the common set.
    pub knobs: &'static [&'static str],
    /// Renders the report.
    pub run: fn(&Opts) -> String,
}

/// Every experiment, in paper order.
pub static REGISTRY: &[ExperimentDef] = &[
    ExperimentDef {
        id: "fig1b",
        title: "RL iteration time breakdown under the synchronous system",
        knobs: &[],
        run: throughput::fig1b,
    },
    ExperimentDef {
        id: "fig2",
        title: "workload skew across task distributions",
        knobs: &[],
        run: workload_figs::fig2,
    },
    ExperimentDef {
        id: "fig4",
        title: "one-step decode latency vs decode batch size",
        knobs: &[],
        run: perf_figs::fig4,
    },
    ExperimentDef {
        id: "fig9",
        title: "KVCache utilization lifecycle",
        knobs: &[],
        run: perf_figs::fig9,
    },
    ExperimentDef {
        id: "fig10",
        title: "inherent staleness over trajectory finish-time ranges",
        knobs: &[],
        run: async_figs::fig10,
    },
    ExperimentDef {
        id: "fig11",
        title: "training throughput, single-turn math, all scales",
        knobs: &[],
        run: throughput::fig11,
    },
    ExperimentDef {
        id: "fig12",
        title: "training throughput, multi-turn tool calling",
        knobs: &[],
        run: throughput::fig12,
    },
    ExperimentDef {
        id: "fig13",
        title: "reward vs wall-clock time across staleness regimes",
        knobs: &[],
        run: convergence_fig::fig13,
    },
    ExperimentDef {
        id: "fig14",
        title: "rollout waiting time during weight sync",
        knobs: &[],
        run: perf_figs::fig14,
    },
    ExperimentDef {
        id: "fig15",
        title: "throughput timeline across a rollout-machine failure",
        knobs: &[],
        run: async_figs::fig15,
    },
    ExperimentDef {
        id: "fig16",
        title: "repack efficiency",
        knobs: &[],
        run: async_figs::fig16,
    },
    ExperimentDef {
        id: "fig17",
        title: "response-length distributions per checkpoint",
        knobs: &[],
        run: workload_figs::fig17,
    },
    ExperimentDef {
        id: "fig18",
        title: "chain-pipelined relay broadcast latency",
        knobs: &[],
        run: perf_figs::fig18,
    },
    ExperimentDef {
        id: "table1",
        title: "rollout statistics with and without repack",
        knobs: &[],
        run: async_figs::table1,
    },
    ExperimentDef {
        id: "table2",
        title: "GPU allocation per system and scale",
        knobs: &[],
        run: tables::table2,
    },
    ExperimentDef {
        id: "table3",
        title: "convergence hyperparameters",
        knobs: &[],
        run: tables::table3,
    },
    ExperimentDef {
        id: "ablate-repack",
        title: "ablation: repack on/off across scales",
        knobs: &[],
        run: ablations::ablate_repack,
    },
    ExperimentDef {
        id: "ablate-idleness",
        title: "ablation: idleness metric (KVCache lifecycle vs static threshold)",
        knobs: &[],
        run: ablations::ablate_idleness,
    },
    ExperimentDef {
        id: "ablate-sampling",
        title: "ablation: experience sampling strategy vs consumed staleness",
        knobs: &[],
        run: ablations::ablate_sampling,
    },
    ExperimentDef {
        id: "ablate-chunks",
        title: "ablation: chain broadcast chunk count",
        knobs: &[],
        run: ablations::ablate_chunks,
    },
    ExperimentDef {
        id: "ablate-batch",
        title: "ablation: per-replica batch size vs throughput and staleness",
        knobs: &[],
        run: ablations::ablate_batch,
    },
    ExperimentDef {
        id: "ablate-evolution",
        title: "ablation: evolving trajectory lengths",
        knobs: &[],
        run: ablations::ablate_evolution,
    },
    ExperimentDef {
        id: "chaos",
        title: "seeded fault schedules with invariant checking (spec: specs/chaos-sweep.toml)",
        knobs: &["--chaos-seed"],
        run: chaos::chaos,
    },
    ExperimentDef {
        id: "recovery",
        title: "degradation, MTTR, checkpoint/restore (spec: specs/recovery-sweep.toml)",
        knobs: &["--recovery-seed", "--checkpoint-every", "--resume-from"],
        run: recovery::recovery,
    },
    ExperimentDef {
        id: "fleet",
        title: "fleet control plane: admission routing, quarantine, chaos invariants (spec: specs/fleet-chaos.toml)",
        knobs: &["--fleet-cells", "--fleet-seed"],
        run: fleet::fleet,
    },
];

/// Looks up a registered experiment by id.
pub fn find_experiment(id: &str) -> Option<&'static ExperimentDef> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// Every experiment id, in paper order (derived from [`REGISTRY`]).
pub fn all_experiment_ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.id).collect()
}

/// Runs one experiment by id, returning the report text.
///
/// # Panics
///
/// Panics on an unknown id; use [`all_experiment_ids`] to enumerate.
pub fn run_experiment(id: &str, opts: &Opts) -> String {
    let def = find_experiment(id).unwrap_or_else(|| panic!("unknown experiment id: {id}"));
    (def.run)(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let ids = all_experiment_ids();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn quick_scales_keep_endpoints() {
        let o = Opts::default();
        let s = o.scales(&ModelSpec::qwen_7b());
        assert_eq!(s, vec![16, 64, 256]);
        let full = Opts {
            quick: false,
            ..Opts::default()
        };
        assert_eq!(full.scales(&ModelSpec::qwen_7b()).len(), 5);
    }
}
