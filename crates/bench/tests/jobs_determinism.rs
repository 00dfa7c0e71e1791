//! The parallel experiment executor must be invisible in the output:
//! report text and trace JSONL are byte-identical for every `--jobs` value.

use laminar_bench::{run_experiment, run_indexed, Opts};
use laminar_runtime::trace::first_line_difference;
use std::path::PathBuf;

/// Fails naming the first differing line when the serial and parallel
/// outputs differ (a multi-megabyte `assert_eq!` would print both texts).
fn assert_same_bytes(serial: &str, parallel: &str, what: &str) {
    if let Some(d) = first_line_difference(serial, parallel) {
        panic!("{what} differs with --jobs 4 at {d}");
    }
}

fn temp_trace(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "laminar_jobs_det_{tag}_{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&p).ok();
    p
}

/// Runs `id` with the given job count, returning (report, trace bytes).
fn run_with_jobs(id: &str, jobs: usize, tag: &str) -> (String, String) {
    let path = temp_trace(tag);
    let opts = Opts {
        jobs,
        trace: Some(path.clone()),
        ..Opts::default()
    };
    let report = run_experiment(id, &opts);
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    (report, trace)
}

/// fig11 drives the model × scale × system grid through `Opts::run_grid`,
/// the parallel hot path of the experiment suite.
#[test]
fn grid_experiment_is_byte_identical_across_job_counts() {
    let (report1, trace1) = run_with_jobs("fig11", 1, "j1");
    let (report4, trace4) = run_with_jobs("fig11", 4, "j4");
    assert_same_bytes(&report1, &report4, "fig11 report text");
    assert!(!trace1.is_empty(), "serial run produced no trace spans");
    assert_same_bytes(&trace1, &trace4, "fig11 trace JSONL");
}

/// The chaos experiment fans its seeded sweep across workers and sinks each
/// run's trace in seed order; report and trace must be byte-identical for
/// any `--jobs` value (the acceptance criterion for `--chaos-seed`).
#[test]
fn chaos_experiment_is_byte_identical_across_job_counts() {
    let (report1, trace1) = run_with_jobs("chaos", 1, "chaos_j1");
    let (report4, trace4) = run_with_jobs("chaos", 4, "chaos_j4");
    assert_same_bytes(&report1, &report4, "chaos report text");
    assert!(
        !trace1.is_empty(),
        "serial chaos run produced no trace spans"
    );
    assert_same_bytes(&trace1, &trace4, "chaos trace JSONL");
    assert!(report1.contains("all seeds green: yes"), "{report1}");
}

/// The fleet experiment fans the fleet-chaos sweep's trials across workers
/// and reassembles rows in plan order; the rendered report must be
/// byte-identical for any `--jobs` value (the acceptance criterion for
/// `--fleet-seed`). Fleet runs emit no trace spans, so only the report is
/// compared.
#[test]
fn fleet_experiment_is_byte_identical_across_job_counts() {
    let run = |jobs: usize| {
        run_experiment(
            "fleet",
            &Opts {
                jobs,
                ..Opts::default()
            },
        )
    };
    let (report1, report4) = (run(1), run(4));
    assert_same_bytes(&report1, &report4, "fleet report text");
    assert!(report1.contains("all seeds green: yes"), "{report1}");
}

/// The binary's outer fan-out: several experiments in parallel, each with a
/// buffered trace flushed in id order, must reproduce the serial bytes.
#[test]
fn experiment_fanout_with_buffered_traces_matches_serial() {
    let ids = vec!["fig2".to_string(), "fig9".to_string(), "fig4".to_string()];
    let run_all = |jobs: usize| -> (Vec<String>, String) {
        let path = temp_trace(&format!("fan{jobs}"));
        let opts = Opts {
            jobs,
            trace: Some(path.clone()),
            ..Opts::default()
        };
        let runs = run_indexed(ids.clone(), jobs, |_, id| {
            let mut o = opts.clone();
            let buf = o.buffer_trace();
            let report = run_experiment(&id, &o);
            (report, buf)
        });
        let mut reports = Vec::new();
        let mut trace = String::new();
        for (report, buf) in runs {
            reports.push(report);
            trace.push_str(&buf.lock().expect("trace buffer"));
        }
        std::fs::remove_file(&path).ok();
        (reports, trace)
    };
    let (reports1, trace1) = run_all(1);
    let (reports4, trace4) = run_all(4);
    assert_eq!(reports1.len(), reports4.len());
    for (id, (r1, r4)) in ids.iter().zip(reports1.iter().zip(&reports4)) {
        assert_same_bytes(r1, r4, &format!("{id} report text"));
    }
    assert!(!trace1.is_empty(), "serial fan-out produced no trace spans");
    assert_same_bytes(&trace1, &trace4, "buffered trace JSONL");
}
