//! Regenerates the paper's tables and figures.
//!
//! ```text
//! laminar-experiments [--full] [--seed N] [--jobs N] [--chaos-seed N]
//!                     [--recovery-seed N] [--fleet-cells N] [--fleet-seed N]
//!                     [--checkpoint-every SECS] [--out DIR]
//!                     [--trace FILE] <id>... | all | list
//! laminar-experiments --spec FILE... [--full] [--jobs N] [--out DIR]
//! laminar-experiments --resume-from FILE
//! laminar-experiments --list
//! ```
//!
//! Results are printed and written to `<out>/<id>.txt` (default `results/`).
//! With `--trace FILE`, every system run appends its event spans (prefill,
//! decode steps, weight syncs, train steps, stalls, repacks, failures) to
//! `FILE` as JSONL — one span object per line with virtual-time
//! nanosecond bounds, replica id, and weight version.
//!
//! `--jobs N` fans experiments (and each experiment's internal system-run
//! grids) across N worker threads. Output is byte-identical for every N:
//! result files are written, and trace spans flushed, in experiment id
//! order after the parallel runs complete. The default is the machine's
//! available parallelism; `--jobs 1` forces the serial path. Trial-level
//! `--jobs` is the only parallelism: each run is one serial event loop.
//! The repo benchmark is the `perfbench` package.
//!
//! `--checkpoint-every SECS` sets the checkpoint cadence the `recovery`
//! experiment exercises; its report includes `checkpoint ...` descriptor
//! lines. `--resume-from FILE` takes a file containing such a line (e.g.
//! `results/recovery.txt`), deterministically replays the run to that
//! checkpoint, verifies the snapshot fingerprint, and resumes it to
//! completion. `--recovery-seed N` reseeds the sustained fault schedules.
//!
//! `--fleet-cells N` widens the `fleet` experiment's acceptance scenario
//! to N Laminar cells (min 4) and `--fleet-seed N` re-roots the seed set
//! of its `specs/fleet-chaos.toml` sweep, the same way `--chaos-seed`
//! aliases onto the chaos spec.
//!
//! `--spec FILE` runs a declarative lab spec (variants × seeds × repeats,
//! see `specs/*.toml`) through the planner/executor, prints the summary
//! and gate tables, and writes `<out>/<name>.rows.jsonl` plus
//! `<name>.summary.txt`. The process exits nonzero if any regression gate
//! fails. `--full` runs the spec's paper-sized shape instead of its
//! `[quick]` override. `--list` prints every registered experiment with
//! its title and spec-overridable knobs.

use laminar_bench::{
    all_experiment_ids, default_jobs, effective_jobs, resume_from_descriptor, run_experiment,
    run_indexed, run_spec, LabSpec, Opts, REGISTRY,
};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut opts = Opts {
        jobs: default_jobs(),
        ..Opts::default()
    };
    let mut out_dir = PathBuf::from("results");
    let mut resume_from: Option<PathBuf> = None;
    let mut specs: Vec<PathBuf> = Vec::new();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => opts.quick = false,
            "--quick" => opts.quick = true,
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed requires an integer");
            }
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--jobs requires a positive integer");
            }
            "--chaos-seed" => {
                opts.chaos_seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--chaos-seed requires an integer");
            }
            "--recovery-seed" => {
                opts.recovery_seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--recovery-seed requires an integer");
            }
            "--fleet-cells" => {
                opts.fleet_cells = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--fleet-cells requires a positive integer");
            }
            "--fleet-seed" => {
                opts.fleet_seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--fleet-seed requires an integer");
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&s: &f64| s > 0.0)
                        .expect("--checkpoint-every requires positive virtual seconds"),
                );
            }
            "--resume-from" => {
                resume_from = Some(PathBuf::from(
                    args.next().expect("--resume-from requires a file"),
                ));
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().expect("--out requires a directory"));
            }
            "--trace" => {
                opts.trace = Some(PathBuf::from(args.next().expect("--trace requires a file")));
            }
            "--spec" => {
                specs.push(PathBuf::from(args.next().expect("--spec requires a file")));
            }
            "--list" | "list" => {
                // One row per registry entry: id, title, and the spec knobs
                // (legacy flags) the experiment honours beyond the common set.
                let width = REGISTRY.iter().map(|d| d.id.len()).max().unwrap_or(0);
                for def in REGISTRY {
                    let knobs = if def.knobs.is_empty() {
                        String::new()
                    } else {
                        format!("  [{}]", def.knobs.join(" "))
                    };
                    println!("{:width$}  {}{}", def.id, def.title, knobs);
                }
                return;
            }
            "all" => ids.extend(all_experiment_ids().iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
    }
    if let Some(path) = resume_from {
        // Deterministic checkpoint replay: rebuild the run described by the
        // descriptor, verify the snapshot fingerprint, resume to completion.
        println!("{}", resume_from_descriptor(&path, &opts));
        return;
    }
    if !specs.is_empty() {
        // Declarative lab path: each spec file runs variants × seeds ×
        // repeats through the planner/executor and is summarised, gated,
        // and persisted on its own. Any failing gate fails the process.
        std::fs::create_dir_all(&out_dir).expect("create results directory");
        let mut all_gates_pass = true;
        for path in &specs {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read spec {}: {e}", path.display()));
            let mut spec = LabSpec::parse(&text)
                .unwrap_or_else(|e| panic!("parse spec {}: {e}", path.display()));
            if opts.quick {
                spec.apply_quick();
            }
            let spec_dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
            let report = run_spec(&spec, &opts, spec_dir)
                .unwrap_or_else(|e| panic!("run spec {}: {e}", path.display()));
            println!("==== {} ====\n{}", spec.name, report.render());
            let rows_path = out_dir.join(format!("{}.rows.jsonl", spec.name));
            std::fs::write(&rows_path, &report.rows_jsonl).expect("write rows JSONL");
            eprintln!("wrote {}", rows_path.display());
            let summary_path = out_dir.join(format!("{}.summary.txt", spec.name));
            std::fs::write(&summary_path, report.render()).expect("write summary");
            eprintln!("wrote {}", summary_path.display());
            all_gates_pass &= report.gates_pass();
        }
        if !all_gates_pass {
            eprintln!("regression gates FAILED");
            std::process::exit(1);
        }
        return;
    }
    if ids.is_empty() {
        eprintln!(
            "usage: laminar-experiments [--full] [--seed N] [--jobs N] [--chaos-seed N] [--recovery-seed N] [--fleet-cells N] [--fleet-seed N] [--checkpoint-every SECS] [--out DIR] [--trace FILE] <id>... | all | list\n\
             \x20      laminar-experiments --spec FILE... [--full] [--jobs N] [--out DIR]\n\
             \x20      laminar-experiments --resume-from FILE\n\
             \x20      laminar-experiments --list"
        );
        eprintln!("experiments: {}", all_experiment_ids().join(" "));
        std::process::exit(2);
    }
    std::fs::create_dir_all(&out_dir).expect("create results directory");
    // Fan experiments across workers. Each worker gets its own Opts clone
    // with trace output redirected into a per-experiment buffer, so spans
    // never interleave; everything is printed, written, and flushed below in
    // the original id order, making the output independent of --jobs.
    //
    // When the request resolves to one worker (`--jobs 1`, a single id, or a
    // serial machine), experiments run inline in id order already, so the
    // per-experiment buffering detour is skipped and spans stream straight
    // to the trace file — same bytes, no whole-trace copy held in memory.
    let buffered = effective_jobs(opts.jobs, ids.len()) > 1;
    let runs = run_indexed(ids, opts.jobs, |_, id| {
        let mut o = opts.clone();
        let buf = (buffered && o.trace.is_some()).then(|| o.buffer_trace());
        let start = Instant::now();
        let report = run_experiment(&id, &o);
        (id, report, buf, start.elapsed())
    });
    for (id, report, buf, elapsed) in runs {
        println!("==== {id} ({elapsed:.2?}) ====\n{report}");
        let path = out_dir.join(format!("{id}.txt"));
        std::fs::write(&path, &report).expect("write result file");
        eprintln!("wrote {}", path.display());
        if let (Some(buf), Some(trace_path)) = (buf, &opts.trace) {
            let spans = buf.lock().expect("trace buffer");
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(trace_path)
                .expect("open trace file");
            f.write_all(spans.as_bytes()).expect("append trace JSONL");
        }
    }
}
