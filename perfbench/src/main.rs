//! Outside-in benchmark of the Laminar workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <math-grid|tool-grid|chaos-ckpt> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics; `--trace 1`
//! measures the per-layer ledger instead, by timing calls into each
//! layer's public functions. Both end with one JSON result line. Every
//! trial runs serially in this process. See `README.md` for the workloads
//! and the layer → end-to-end interaction list.

mod calib;
mod e2e;
mod layers;
mod selfcheck;
mod stats;
mod workload;

use laminar_bench::alloc_count::{self, CountingAlloc};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Kind, Shape};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Debug)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: laminar-perfbench --workload <math-grid|tool-grid|chaos-ckpt> \
                     --seed <n> --seconds <s> --trace <0|1>\n       laminar-perfbench --self-check";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    alloc_count::enable();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 1 && argv[0] == "--self-check" {
        return selfcheck::run();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let res = if args.trace {
        layers::run(args.workload, args.seed, Shape::Full)
    } else {
        e2e::run(
            args.workload,
            args.seed,
            args.seconds,
            Shape::Full,
            process_start,
        )
    };
    for line in &res.notes {
        println!("{line}");
    }
    for m in &res.metrics.0 {
        println!("metric {:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        stats::result_line(res.correct(), res.attempted, res.failed, &res.metrics)
    );
    ExitCode::SUCCESS
}
