//! The untraced run: end-to-end metrics of one workload.

use crate::calib::{self, Calibrator};
use crate::stats::{median, percentile, samples_for_tail, timed, Fnv, Metrics};
use crate::workload::{run_trial, Kind, Plan, Shape};
use laminar_bench::alloc_count;
use std::time::Instant;

/// Every end-to-end metric, with its unit.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("traj_per_s", "traj/s"),
    ("trial_s_p50", "s"),
    ("trial_s_tail", "s"),
    ("peak_heap_mb", "MiB"),
];

/// Result of a run: metrics plus the counts and notes printed around them.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Checks outside the per-trial ones (set-up reproducibility, the
    /// allocator registration) that failed.
    pub other_errors: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.other_errors.is_empty()
    }

    /// Appends the lines every run ends its notes with: `fail_frac`, the
    /// first failing trial, other failed checks, and the fingerprints.
    pub fn close_notes(&mut self, first_failure: Option<String>, output_fp: u64, input_fp: u64) {
        let n = &mut self.notes;
        n.push(format!(
            "fail_frac: {} ratio ({} of {} trials failed their output check)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
        if let Some(f) = first_failure {
            n.push(format!("first failing trial: {f}"));
        }
        for e in &self.other_errors {
            n.push(format!("check failed: {e}"));
        }
        n.push(format!(
            "output_fp: {output_fp:016x} | input_fp: {input_fp:016x}"
        ));
    }
}

/// One set-up: configs, input specs and one untimed warm-up trial. Returns
/// the plan and the warm-up trial's fingerprint.
fn set_up(kind: Kind, seed: u64, shape: Shape, buf: &mut String) -> (Plan, u64, Option<String>) {
    let plan = Plan::build(kind, seed, shape);
    let warm = run_trial(&plan.trials[0], buf);
    (plan, warm.fp, warm.error)
}

/// Measures `kind` for at least `seconds` (and at least enough passes to
/// put ten trials beyond the tail percentile).
pub fn run(kind: Kind, seed: u64, seconds: f64, shape: Shape, process_start: Instant) -> RunResult {
    let mut res = RunResult::default();
    let mut buf = String::new();
    let mut cal = Calibrator::default();

    // Every timed interval is kept as (wall seconds, index of the
    // calibration reading before it, index of the reading after it) and
    // scaled to calibrated seconds once the run is over.
    //
    // The first set-up is timed from process start (and calibrated by the
    // reading after it only). One more runs before every later pass, so
    // `setup_s` is a median over the whole run rather than over one burst
    // of host noise at its start.
    let (plan, warm_fp, error) = set_up(kind, seed, shape, &mut buf);
    let first_setup = process_start.elapsed().as_secs_f64();
    let after = cal.read();
    let mut setups = vec![(first_setup, after, after)];
    if let Some(e) = error {
        res.other_errors
            .push(format!("warm-up {}: {e}", plan.trials[0].name));
    }
    let input_fp = plan.input_fp();

    let per_pass = plan.trials.len();
    let q = kind.tail_quantile();
    let min_passes = match shape {
        Shape::Full => samples_for_tail(q).div_ceil(per_pass).max(2),
        Shape::Shrunk => 2,
    };
    let mut expected: Vec<Option<u64>> = vec![None; per_pass];
    expected[0] = Some(warm_fp);
    let mut by_trial: Vec<Vec<(f64, usize, usize)>> = vec![Vec::new(); per_pass];
    let mut trajectories = 0u64;
    let mut peak_bytes = 0u64;
    let mut first_failure: Option<String> = None;
    let started = Instant::now();
    let mut passes = 0;
    while passes < min_passes || started.elapsed().as_secs_f64() < seconds {
        if passes > 0 {
            let before = cal.last();
            let ((p, fp, _), wall) = timed(|| set_up(kind, seed, shape, &mut buf));
            setups.push((wall, before, cal.read()));
            if (fp, p.input_fp()) != (warm_fp, input_fp) {
                res.other_errors.push(format!(
                    "set-up before pass {passes} did not reproduce the first"
                ));
            }
        }
        let ((), stats) = alloc_count::measure(|| {
            for (i, trial) in plan.trials.iter().enumerate() {
                let before = cal.last();
                let out = run_trial(trial, &mut buf);
                by_trial[i].push((out.secs, before, cal.read()));
                res.attempted += 1;
                trajectories += trial.trajectories();
                let mut error = out.error;
                match expected[i] {
                    None => expected[i] = Some(out.fp),
                    Some(fp) if fp != out.fp && error.is_none() => {
                        error = Some("output differs from an earlier repeat".to_string());
                    }
                    Some(_) => {}
                }
                if let Some(e) = error {
                    res.failed += 1;
                    first_failure
                        .get_or_insert_with(|| format!("{} (pass {passes}): {e}", trial.name));
                }
            }
        });
        peak_bytes = peak_bytes.max(stats.peak_bytes);
        passes += 1;
    }
    if !alloc_count::is_active() {
        res.other_errors
            .push("counting allocator is not registered".to_string());
    }

    let scaled = |xs: &[(f64, usize, usize)]| -> Vec<f64> {
        xs.iter()
            .map(|&(wall, b, a)| cal.scale(wall, b, a))
            .collect()
    };
    let walls = |xs: &[(f64, usize, usize)]| -> Vec<f64> { xs.iter().map(|x| x.0).collect() };
    let setup_secs = scaled(&setups);
    let secs_by_trial: Vec<Vec<f64>> = by_trial.iter().map(|t| scaled(t)).collect();
    let trial_secs: Vec<f64> = secs_by_trial.concat();
    // The median pass: each trial at its median time over the run's passes,
    // so a burst of host noise during one repeat moves neither the
    // throughput nor the median trial.
    let median_pass: Vec<f64> = secs_by_trial.iter().map(|s| median(s)).collect();
    let median_wall_pass: f64 = by_trial.iter().map(|t| median(&walls(t))).sum();
    let busy: f64 = by_trial.iter().map(|t| walls(t).iter().sum::<f64>()).sum();
    let mut output = Fnv::default();
    for fp in expected.iter().flatten() {
        output.word(*fp);
    }
    let m = &mut res.metrics;
    m.push("setup_s", median(&setup_secs), "s");
    m.push(
        "traj_per_s",
        plan.trajectories_per_pass() as f64 / median_pass.iter().sum::<f64>().max(1e-12),
        "traj/s",
    );
    m.push("trial_s_p50", median(&median_pass), "s");
    m.push("trial_s_tail", percentile(&trial_secs, q), "s");
    m.push(
        "peak_heap_mb",
        peak_bytes as f64 / (1u64 << 20) as f64,
        "MiB",
    );

    let n = &mut res.notes;
    n.push(format!(
        "context: workload {} | seed {seed} | available_parallelism {} | jobs 1 | shape {:?}",
        kind.name(),
        laminar_bench::default_jobs(),
        shape,
    ));
    n.push(format!(
        "counts: {passes} passes x {per_pass} trials = {} trials | {} trajectories ({} per pass) | measured {:.2} wall s of trials in {:.2} s",
        res.attempted,
        trajectories,
        plan.trajectories_per_pass(),
        busy,
        started.elapsed().as_secs_f64(),
    ));
    n.push(format!(
        "trial_s_tail is p{:.0} over {} trials ({} beyond it); trial_s_p50 over the median pass of {} trials; setup_s is the median of {} set-ups",
        q * 100.0,
        trial_secs.len(),
        ((1.0 - q) * trial_secs.len() as f64).floor(),
        per_pass,
        setup_secs.len(),
    ));
    n.push(format!(
        "calibration: {} kernel readings, median {:.6} s (nominal {} s), p10 {:.6} s, p90 {:.6} s | wall: traj_per_s {:.3}, setup_s {:.6}",
        cal.readings.len(),
        median(&cal.readings),
        calib::NOMINAL_SECS,
        percentile(&cal.readings, 0.1),
        percentile(&cal.readings, 0.9),
        plan.trajectories_per_pass() as f64 / median_wall_pass.max(1e-12),
        median(&walls(&setups)),
    ));
    let per_trial = plan
        .trials
        .iter()
        .zip(&median_pass)
        .map(|(t, secs)| format!("{} {secs:.4}", t.name))
        .collect::<Vec<_>>()
        .join(" | ");
    n.push(format!("median s per trial: {per_trial}"));
    res.close_notes(first_failure, output.0, input_fp);
    res
}
