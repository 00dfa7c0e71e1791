//! The `chaos` experiment: seeded fault schedules against the Laminar
//! system, with every run checked by the lost-work / version / convergence
//! invariant suite (§6 fault tolerance, hardened).
//!
//! Two parts:
//!
//! 1. the fixed *acceptance scenario* — a trainer crash, a relay outage, a
//!    two-replica machine crash, a straggler, and an env stall, all
//!    overlapping — run twice to prove byte-determinism;
//! 2. the seeded sweep, expressed as the lab spec
//!    `specs/chaos-sweep.toml`: the planner expands variants × seeds,
//!    trials fan across `--jobs` threads through the deterministic
//!    executor, and rows aggregate into the summary table. The legacy
//!    `--chaos-seed N` flag is a thin alias that re-roots the spec's seed
//!    set (and `--seed N` its data seed).

use super::Opts;
use crate::lab::{self, LabSpec, Summary};
use laminar_cluster::ModelSpec;
use laminar_core::{overlapping_scenario, LaminarSystem, SystemKind};
use laminar_workload::{Checkpoint, WorkloadGenerator};
use std::fmt::Write;

/// The sweep's spec: the committed `specs/chaos-sweep.toml`, shrunk in
/// quick mode, with the legacy seed flags applied as aliases.
pub(crate) fn chaos_spec(opts: &Opts) -> LabSpec {
    let mut spec = LabSpec::parse(include_str!("../../../../specs/chaos-sweep.toml"))
        .expect("in-tree chaos-sweep spec parses");
    if opts.quick {
        spec.apply_quick();
    }
    spec.reseed(opts.chaos_seed);
    spec.data_seed = opts.seed;
    spec
}

/// Runs the chaos experiment and renders its report.
pub fn chaos(opts: &Opts) -> String {
    let total = if opts.quick { 16 } else { 64 };
    let mut cfg = opts.config(
        SystemKind::Laminar,
        ModelSpec::qwen_7b(),
        total,
        WorkloadGenerator::single_turn(opts.seed, Checkpoint::Math7B),
    );
    cfg.iterations = 3;
    cfg.warmup = 0;
    let replicas = cfg.replicas();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Chaos — seeded fault schedules with invariant checking\n\
         ({} on {total} GPUs, {replicas} replicas, root chaos seed {})\n",
        cfg.model.name, opts.chaos_seed
    );

    // Part 1: the fixed acceptance scenario, run twice for determinism.
    let sys = LaminarSystem {
        faults: overlapping_scenario(replicas),
        ..LaminarSystem::default()
    };
    let a = sys.run_chaos(&cfg);
    let b = sys.run_chaos(&cfg);
    let deterministic = format!("{:?}", a.report) == format!("{:?}", b.report)
        && a.trace.spans() == b.trace.spans();
    let violations = a.violations();
    let _ = writeln!(
        out,
        "acceptance scenario: {} faults applied, {} trajectories completed,\n\
         {} redirects, {} repooled, violations: {}, deterministic: {}",
        a.outcome.audit.faults_applied,
        a.outcome.completed(),
        a.outcome.audit.redirects,
        a.outcome.audit.repooled,
        if violations.is_empty() {
            "none".to_string()
        } else {
            violations.join("; ")
        },
        if deterministic { "yes" } else { "NO" },
    );
    if opts.trace.is_some() {
        opts.sink_trace(&a.trace);
    }

    // Part 2: the seeded sweep through the lab (spec → planner → executor
    // → analysis). Trials fan across --jobs workers; rows and trace spans
    // come back in plan order, so the report is byte-identical at any jobs
    // count.
    let spec = chaos_spec(opts);
    let rows = lab::run_lab(&spec, opts);
    let _ = writeln!(
        out,
        "\nsweep spec `{}` ({} seeds rooted at {}):\n",
        spec.name,
        spec.seeds.len(),
        opts.chaos_seed
    );
    let _ = writeln!(
        out,
        "{:>6}  {:>6}  {:>9}  {:>9}  {:>9}  {:>8}  {:>10}  schedule",
        "seed", "faults", "admitted", "completed", "redirects", "repooled", "violations"
    );
    let mut all_green = true;
    for r in &rows {
        let m = |k: &str| r.metric(k).unwrap_or(0.0) as u64;
        all_green &= m("violations") == 0;
        let _ = writeln!(
            out,
            "{:>6}  {:>6}  {:>9}  {:>9}  {:>9}  {:>8}  {:>10}  {}",
            r.seed,
            m("faults"),
            m("admitted"),
            m("completed"),
            m("redirects"),
            m("repooled"),
            m("violations"),
            r.note,
        );
    }
    let _ = writeln!(out, "\naggregates over the sweep:\n");
    out.push_str(&Summary::from_rows(&rows).render());
    let _ = writeln!(
        out,
        "\nEvery scheduled fault is drawn from SimRng::derive(seed, \"chaos-schedule\", 0);\n\
         the invariant checker proves no trajectory was lost or duplicated, per-replica\n\
         weight versions stayed monotone, and survivors reconverged to the relay version.\n\
         all seeds green: {}",
        if all_green && violations.is_empty() && deterministic {
            "yes"
        } else {
            "NO"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_report_is_green_and_deterministic() {
        let o = Opts::default();
        let s = chaos(&o);
        assert!(s.contains("deterministic: yes"), "{s}");
        assert!(s.contains("all seeds green: yes"), "{s}");
        assert_eq!(s, chaos(&o), "report is reproducible");
    }

    #[test]
    fn chaos_seed_flag_aliases_onto_the_spec() {
        let o = Opts {
            chaos_seed: 42,
            seed: 9,
            ..Opts::default()
        };
        let spec = chaos_spec(&o);
        assert_eq!(spec.seeds, vec![42, 43, 44, 45], "quick mode keeps 4 seeds");
        assert_eq!(spec.data_seed, 9);
        assert_eq!(spec.variants.len(), 1);
        assert_eq!(spec.variants[0].gpus, 16, "quick shrink applied");
        let full = chaos_spec(&Opts {
            quick: false,
            ..Opts::default()
        });
        assert_eq!(full.seeds.len(), 8);
        assert_eq!(full.variants[0].gpus, 64);
    }
}
