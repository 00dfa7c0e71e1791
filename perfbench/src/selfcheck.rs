//! `--self-check`: every workload on the shrunken shape. Every named metric
//! must print with its unit and a finite value, every output check must
//! pass, and the traced counts must repeat exactly across two runs.

use crate::e2e::{self, RunResult, E2E_METRICS};
use crate::layers::{self, EXACT_COUNTS, LAYER_METRICS};
use crate::workload::{Kind, Shape};
use std::process::ExitCode;
use std::time::Instant;

const SEED: u64 = 3;

/// Problems with one result against the metric list it must carry.
fn audit(what: &str, res: &RunResult, expected: &[(&str, &str)], problems: &mut Vec<String>) {
    if !res.correct() {
        problems.push(format!("{what}: output check failed: {:?}", res.notes));
    }
    if res.metrics.0.len() != expected.len() {
        problems.push(format!(
            "{what}: {} metrics printed, {} named",
            res.metrics.0.len(),
            expected.len()
        ));
    }
    for &(name, unit) in expected {
        match res.metrics.get(name) {
            None => problems.push(format!("{what}: {name} missing")),
            Some(m) if m.unit != unit => {
                problems.push(format!("{what}: {name} has unit {}, not {unit}", m.unit))
            }
            Some(m) if !m.value.is_finite() => {
                problems.push(format!("{what}: {name} is not finite"))
            }
            Some(_) => {}
        }
    }
}

pub fn run() -> ExitCode {
    let layer_units: Vec<(&str, &str)> = LAYER_METRICS.iter().map(|&(n, u, _)| (n, u)).collect();
    let mut problems = Vec::new();
    for kind in Kind::ALL {
        let name = kind.name();
        let e = e2e::run(kind, SEED, 0.0, Shape::Shrunk, Instant::now());
        audit(&format!("{name} e2e"), &e, &E2E_METRICS, &mut problems);
        let a = layers::run(kind, SEED, Shape::Shrunk);
        let b = layers::run(kind, SEED, Shape::Shrunk);
        for (leg, res) in [("traced run 1", &a), ("traced run 2", &b)] {
            audit(&format!("{name} {leg}"), res, &layer_units, &mut problems);
        }
        for count in EXACT_COUNTS {
            let va = a.metrics.get(count).map(|m| m.value.to_bits());
            let vb = b.metrics.get(count).map(|m| m.value.to_bits());
            if va != vb {
                problems.push(format!("{name}: {count} did not repeat ({va:?} vs {vb:?})"));
            }
        }
        println!(
            "self-check {name}: {} e2e + {} layer metrics",
            e.metrics.0.len(),
            a.metrics.0.len()
        );
    }
    for p in &problems {
        println!("self-check problem: {p}");
    }
    if problems.is_empty() {
        println!("self-check: all pass");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
