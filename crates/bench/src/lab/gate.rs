//! Regression gates: per-metric thresholds evaluated against a committed
//! baseline rows file or a sibling variant of the same run.
//!
//! Gates are declarations carried by the spec: each names a (variant,
//! metric, stat) aggregate and bounds it relative to its baseline. Gates *fail
//! closed* — a missing metric, variant, or baseline aggregate is a
//! failure, not a silent pass — and the binary exits nonzero when any
//! gate fails, which is what lets CI block on a regression.

use super::analysis::{parse_rows_jsonl, Summary};
use super::spec::{GateBaseline, GateSpec, LabSpec};
use crate::table::TextTable;
use std::path::Path;

/// One evaluated gate.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Gate name from the spec.
    pub name: String,
    /// Whether every declared bound held.
    pub pass: bool,
    /// Human-readable comparison carrying everything needed to act on a
    /// failure without re-running: the metric, the observed value, the
    /// baseline it was judged against, and each bound's *computed*
    /// threshold (violated ones marked), e.g.
    /// `laminar throughput mean: observed 98.0, baseline 130.0,
    /// needs >= 104.0000 [VIOLATED] (max_drop 0.2)`.
    pub detail: String,
}

fn evaluate_one(
    gate: &GateSpec,
    summary: &Summary,
    baseline: &Summary,
    baseline_variant: &str,
) -> GateOutcome {
    let value = summary.stat(&gate.variant, &gate.metric, gate.stat);
    let base = baseline.stat(baseline_variant, &gate.metric, gate.stat);
    let (Some(value), Some(base)) = (value, base) else {
        return GateOutcome {
            name: gate.name.clone(),
            pass: false,
            detail: format!(
                "{} {} {}: missing aggregate ({})",
                gate.variant,
                gate.metric,
                gate.stat.name(),
                if value.is_none() { "run" } else { "baseline" },
            ),
        };
    };
    // Each bound is rendered with its computed threshold — the number the
    // observed value was actually compared against — so a failure line is
    // actionable on its own: metric, observed, baseline, and how far the
    // violated threshold was.
    let mut pass = true;
    let mut bounds = Vec::new();
    let mut check = |ok: bool, cmp: &str, threshold: f64, origin: String| {
        pass &= ok;
        bounds.push(format!(
            "{cmp} {threshold:.4}{} ({origin})",
            if ok { "" } else { " [VIOLATED]" },
        ));
    };
    if let Some(d) = gate.max_drop {
        let t = (1.0 - d) * base;
        check(value >= t, ">=", t, format!("max_drop {d}"));
    }
    if let Some(g) = gate.max_growth {
        let t = (1.0 + g) * base;
        check(value <= t, "<=", t, format!("max_growth {g}"));
    }
    if let Some(r) = gate.min_ratio {
        let t = r * base;
        check(value >= t, ">=", t, format!("min_ratio {r}"));
    }
    if let Some(r) = gate.max_ratio {
        let t = r * base;
        check(value <= t, "<=", t, format!("max_ratio {r}"));
    }
    GateOutcome {
        name: gate.name.clone(),
        pass,
        detail: format!(
            "{} {} {}: observed {:.4}, baseline {:.4}, needs {}",
            gate.variant,
            gate.metric,
            gate.stat.name(),
            value,
            base,
            bounds.join(" and "),
        ),
    }
}

/// Evaluates every gate in the spec against the run's summary. File
/// baselines resolve relative to `spec_dir`; an unreadable or unparsable
/// baseline is a configuration error (`Err`), while an out-of-bounds or
/// missing aggregate is a failed gate.
pub fn evaluate_gates(
    spec: &LabSpec,
    summary: &Summary,
    spec_dir: &Path,
) -> Result<Vec<GateOutcome>, String> {
    let mut outcomes = Vec::with_capacity(spec.gates.len());
    for gate in &spec.gates {
        let outcome = match &gate.baseline {
            GateBaseline::Variant(v) => evaluate_one(gate, summary, summary, v),
            GateBaseline::File(rel) => {
                let path = if Path::new(rel).is_absolute() {
                    Path::new(rel).to_path_buf()
                } else {
                    spec_dir.join(rel)
                };
                let text = std::fs::read_to_string(&path).map_err(|e| {
                    format!(
                        "gate `{}`: reading baseline {}: {e}",
                        gate.name,
                        path.display()
                    )
                })?;
                let rows = parse_rows_jsonl(&text).map_err(|e| {
                    format!("gate `{}`: baseline {}: {e}", gate.name, path.display())
                })?;
                let base = Summary::from_rows(&rows);
                evaluate_one(gate, summary, &base, &gate.variant)
            }
        };
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// Renders gate outcomes as a table; empty string when the spec has none.
pub fn render_gates(outcomes: &[GateOutcome]) -> String {
    if outcomes.is_empty() {
        return String::new();
    }
    let mut t = TextTable::new(vec!["gate", "result", "detail"]);
    for o in outcomes {
        t.row(vec![
            o.name.clone(),
            if o.pass { "pass" } else { "FAIL" }.to_string(),
            o.detail.clone(),
        ]);
    }
    t.render()
}

/// True iff every gate passed.
pub fn all_pass(outcomes: &[GateOutcome]) -> bool {
    outcomes.iter().all(|o| o.pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::analysis::{write_rows_jsonl, TrialRow};

    fn row(variant: &str, seed: u64, tp: f64) -> TrialRow {
        TrialRow {
            variant: variant.into(),
            seed,
            repeat: 0,
            metrics: vec![("throughput".into(), tp)],
            note: String::new(),
        }
    }

    fn spec_with_gate(gate_lines: &str) -> LabSpec {
        LabSpec::parse(&format!(
            "name = \"g\"\nseeds = [1]\n[variant.laminar]\nsystem = \"laminar\"\n\
             [variant.verl]\nsystem = \"verl\"\n[gate.g]\n{gate_lines}"
        ))
        .expect("parse")
    }

    #[test]
    fn variant_baseline_gates() {
        let spec = spec_with_gate(
            "metric = \"throughput\"\nvariant = \"laminar\"\nbaseline_variant = \"verl\"\nmin_ratio = 1.5",
        );
        let pass = Summary::from_rows(&[row("laminar", 1, 300.0), row("verl", 1, 100.0)]);
        let fail = Summary::from_rows(&[row("laminar", 1, 120.0), row("verl", 1, 100.0)]);
        let out = evaluate_gates(&spec, &pass, Path::new(".")).expect("eval");
        assert!(all_pass(&out), "{out:?}");
        let out = evaluate_gates(&spec, &fail, Path::new(".")).expect("eval");
        assert!(!all_pass(&out), "{out:?}");
        assert!(render_gates(&out).contains("FAIL"));
    }

    #[test]
    fn file_baseline_gates_resolve_relative_to_spec_dir() {
        let dir = std::env::temp_dir().join(format!("laminar-gate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let baseline = [row("laminar", 1, 100.0), row("laminar", 2, 110.0)];
        std::fs::write(dir.join("base.jsonl"), write_rows_jsonl("g", &baseline)).expect("write");
        let spec = spec_with_gate(
            "metric = \"throughput\"\nvariant = \"laminar\"\nbaseline = \"base.jsonl\"\nmax_drop = 0.2",
        );
        let ok = Summary::from_rows(&[row("laminar", 1, 95.0)]);
        let out = evaluate_gates(&spec, &ok, &dir).expect("eval");
        assert!(all_pass(&out), "{out:?}");
        let bad = Summary::from_rows(&[row("laminar", 1, 50.0)]);
        let out = evaluate_gates(&spec, &bad, &dir).expect("eval");
        assert!(!all_pass(&out), "{out:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failure_detail_names_metric_observed_baseline_and_threshold() {
        let spec = spec_with_gate(
            "metric = \"throughput\"\nvariant = \"laminar\"\nbaseline_variant = \"verl\"\nmax_drop = 0.2",
        );
        let s = Summary::from_rows(&[row("laminar", 1, 50.0), row("verl", 1, 100.0)]);
        let out = evaluate_gates(&spec, &s, Path::new(".")).expect("eval");
        assert!(!all_pass(&out), "{out:?}");
        let d = &out[0].detail;
        assert!(d.contains("throughput mean"), "{d}");
        assert!(d.contains("observed 50.0000"), "{d}");
        assert!(d.contains("baseline 100.0000"), "{d}");
        assert!(d.contains(">= 80.0000 [VIOLATED] (max_drop 0.2)"), "{d}");
        assert!(!d.contains('\n'), "detail stays on one line: {d}");
    }

    #[test]
    fn missing_aggregate_fails_closed() {
        let spec = spec_with_gate(
            "metric = \"nope\"\nvariant = \"laminar\"\nbaseline_variant = \"verl\"\nmin_ratio = 1.0",
        );
        let s = Summary::from_rows(&[row("laminar", 1, 1.0), row("verl", 1, 1.0)]);
        let out = evaluate_gates(&spec, &s, Path::new(".")).expect("eval");
        assert!(!all_pass(&out), "{out:?}");
        assert!(out[0].detail.contains("missing aggregate"), "{out:?}");
    }

    #[test]
    fn unreadable_file_baseline_is_a_config_error() {
        let spec = spec_with_gate(
            "metric = \"throughput\"\nvariant = \"laminar\"\nbaseline = \"does-not-exist.jsonl\"\nmax_drop = 0.2",
        );
        let s = Summary::from_rows(&[row("laminar", 1, 1.0)]);
        assert!(evaluate_gates(&spec, &s, Path::new("/nonexistent-dir")).is_err());
    }
}
