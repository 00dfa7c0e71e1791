//! Experiment harness regenerating every table and figure in the paper's
//! evaluation (§8, appendices).
//!
//! Each experiment is a function from [`Opts`] to a formatted text report
//! (plus machine-readable values where useful). The
//! `laminar-experiments` binary dispatches on experiment id and writes
//! results under `results/`.
//!
//! `Opts::quick` (the default) shrinks batch sizes and iteration counts so
//! the full suite completes in minutes on a laptop while preserving every
//! qualitative shape; `--full` runs the paper-sized configurations
//! (8192-trajectory batches up to the 1024-GPU scale point).

pub mod alloc_count;
pub mod experiments;
pub mod lab;
pub mod runner;
pub mod table;

pub use experiments::recovery::resume_from_descriptor;
pub use experiments::{
    all_experiment_ids, find_experiment, run_experiment, ExperimentDef, Opts, REGISTRY,
};
pub use lab::{run_spec, LabReport, LabSpec};
pub use runner::{default_jobs, effective_jobs, run_indexed};
