//! Deterministic checkpoint/restore: the [`Recoverable`] trait and its
//! equivalence checker.
//!
//! A recoverable system can run with snapshots taken at a configurable
//! virtual-time cadence, and any snapshot can be resumed to completion.
//! Because every system in the workspace is a deterministic function of its
//! configuration, a resumed run is *provably byte-identical* to the
//! uninterrupted one: same report text, same trace, bit for bit. Systems
//! buffer their trace spans inside the run state (rather than streaming
//! them to the sink mid-run), so a resumed run re-emits the complete trace
//! from `t = 0` — strictly stronger than matching only the suffix, and what
//! [`check_resume_equivalence`] verifies.
//!
//! Snapshot *contents* are whole-state: the rollout engines (heaps and
//! resident trajectories included), experience/partial buffers, actor and
//! relay weight versions, the driver's clock, and the pending event queue
//! all ride along via `Clone`. The scheduler clone copies its queue storage
//! verbatim, so event pop order — including FIFO tie-breaks — survives the
//! round trip.

use crate::config::SystemConfig;
use crate::delta::{CommitStats, DeltaStore, StateImage};
use crate::report::{RlSystem, RunReport};
use crate::trace::{first_line_difference, RecordingTrace, TraceSink};
use laminar_sim::{Duration, Time};

/// One delta checkpoint: the committed manifest plus the in-memory resume
/// state it describes.
#[derive(Debug, Clone)]
pub struct DeltaCheckpoint<S> {
    /// The cadence instant this checkpoint represents (a multiple of the
    /// checkpoint interval). The run itself sits at its first safe pause
    /// point at or after this instant: between events for the event-driven
    /// systems, at an iteration boundary for the barrier systems.
    pub at: Time,
    /// 0-based index of the cadence point.
    pub index: usize,
    /// Manifest id in the [`DeltaStore`] the commit went to.
    pub manifest_id: u64,
    /// Cost accounting for the commit (delta vs whole-state bytes).
    pub stats: CommitStats,
    /// The in-memory resume state — the vehicle [`Recoverable::resume`]
    /// actually runs; the committed image is its persisted, verifiable twin.
    pub state: S,
}

/// An [`RlSystem`] supporting deterministic checkpoint/restore.
///
/// A system supplies four pieces — [`start`](Recoverable::start),
/// [`advance`](Recoverable::advance), [`finish`](Recoverable::finish) and
/// [`encode_state`](Recoverable::encode_state) — and the trait writes the
/// cadence loop ([`run_delta_checkpointed`](Recoverable::run_delta_checkpointed))
/// and [`resume`](Recoverable::resume) once for every system.
pub trait Recoverable: RlSystem {
    /// The full mid-run state. Cloneable so one run can yield many
    /// independent resumable snapshots.
    type Snapshot: Clone;

    /// Builds the run at `t = 0`, before anything has executed.
    fn start(&self, cfg: &SystemConfig, record_trace: bool) -> Self::Snapshot;

    /// Advances the run. Returns `true` once it has completed; otherwise
    /// stops at the run's first safe pause point at or after `until` and
    /// returns `false`.
    fn advance(run: &mut Self::Snapshot, until: Time) -> bool;

    /// Drains the run's buffered spans into `trace` and returns its final
    /// report.
    fn finish(run: Self::Snapshot, trace: &mut dyn TraceSink) -> RunReport;

    /// Resumes a snapshot to completion. The report and the *complete*
    /// trace (systems buffer spans in-state, so the resumed run emits the
    /// full history) are byte-identical to the uninterrupted run's.
    fn resume(&self, snapshot: Self::Snapshot, trace: &mut dyn TraceSink) -> RunReport {
        let mut run = snapshot;
        let done = Self::advance(&mut run, Time::MAX);
        assert!(done, "{} run did not complete its iterations", self.name());
        Self::finish(run, trace)
    }

    /// Encodes the snapshot as its canonical [`StateImage`] — every mutable
    /// plane, chunked at natural state granularity. This is the persisted
    /// form delta checkpoints commit: two snapshots are equivalent iff their
    /// images are identical. A committed manifest records the image's
    /// fingerprint, which checkpoint descriptor files persist so
    /// `--resume-from` can verify that a deterministic replay reconstructed
    /// the same state before resuming.
    fn encode_state(snapshot: &Self::Snapshot) -> StateImage;

    /// Runs to completion, committing a delta checkpoint into `store` at
    /// every multiple of `every` (virtual time) crossed before the run
    /// finishes: each snapshot's [`encode_state`](Recoverable::encode_state)
    /// image, encoded from scratch. The run clones its state at each cadence
    /// point and commits the images in index order once it has finished.
    /// Produces exactly the report and trace of [`RlSystem::run_traced`] —
    /// checkpointing never perturbs the run. The store deduplicates
    /// unchanged chunks, so the persisted bytes per point stay O(dirty)
    /// while the encode itself is O(world).
    fn run_delta_checkpointed(
        &self,
        cfg: &SystemConfig,
        every: Duration,
        trace: &mut dyn TraceSink,
        store: &mut DeltaStore,
    ) -> (RunReport, Vec<DeltaCheckpoint<Self::Snapshot>>) {
        assert!(
            every > Duration::ZERO,
            "checkpoint cadence must be positive"
        );
        let mut run = self.start(cfg, trace.enabled());
        let mut paused = Vec::new();
        let mut deadline = Time::ZERO + every;
        while !Self::advance(&mut run, deadline) {
            paused.push((deadline, run.clone()));
            deadline += every;
        }
        let report = Self::finish(run, trace);
        let checkpoints = paused
            .into_iter()
            .enumerate()
            .map(|(index, (at, state))| {
                let (manifest_id, stats) = store.commit(at, &Self::encode_state(&state));
                DeltaCheckpoint {
                    at,
                    index,
                    manifest_id,
                    stats,
                    state,
                }
            })
            .collect();
        (report, checkpoints)
    }

    /// Verifies one committed checkpoint without resuming it: the manifest
    /// chain must be intact, the stored chunks must hash to the manifest's
    /// recorded fingerprint, and the in-memory resume state must re-encode
    /// to exactly those chunks, word for word. [`DeltaStore::verify`] checks
    /// the last two in one streaming pass over the store, without
    /// reassembling the image, and names the first divergent plane and
    /// chunk when the live state differs.
    fn verify_checkpoint(
        store: &DeltaStore,
        checkpoint: &DeltaCheckpoint<Self::Snapshot>,
    ) -> Result<(), String> {
        let manifest = store.manifest(checkpoint.manifest_id).ok_or_else(|| {
            format!(
                "checkpoint {} references unknown manifest {:016x}",
                checkpoint.index, checkpoint.manifest_id
            )
        })?;
        store.verify_chain(manifest.id)?;
        store.verify(manifest, &Self::encode_state(&checkpoint.state))
    }

    /// Resumes a delta checkpoint only after the full
    /// [`verify_checkpoint`](Recoverable::verify_checkpoint) pass. Any
    /// mismatch refuses to resume with a description of the failure.
    fn resume_verified(
        &self,
        store: &DeltaStore,
        checkpoint: DeltaCheckpoint<Self::Snapshot>,
        trace: &mut dyn TraceSink,
    ) -> Result<RunReport, String> {
        Self::verify_checkpoint(store, &checkpoint)?;
        Ok(self.resume(checkpoint.state, trace))
    }
}

/// FNV-1a over a word stream: the fingerprint fold every implementation
/// uses (declared here so digests stay consistent across crates).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Aggregate checkpoint-cost accounting across one checkpointed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointCost {
    /// Cadence points committed.
    pub points: usize,
    /// Bytes actually persisted across all commits (new chunks + manifests).
    pub delta_bytes: u64,
    /// Bytes whole-state snapshots of the same images would have persisted.
    pub whole_bytes: u64,
    /// Chunks referenced across all manifests.
    pub chunks_total: usize,
    /// Chunks deduplicated against already-stored content.
    pub chunks_reused: usize,
    /// The final commit's persisted bytes — the steady-state per-cadence
    /// delta cost once the run has warmed up.
    pub steady_delta_bytes: u64,
    /// The final commit's whole-state bytes.
    pub steady_whole_bytes: u64,
}

impl CheckpointCost {
    /// Folds one commit into the aggregate.
    pub fn absorb(&mut self, stats: &CommitStats) {
        self.points += 1;
        self.delta_bytes += stats.delta_bytes;
        self.whole_bytes += stats.whole_bytes;
        self.chunks_total += stats.chunks_total;
        self.chunks_reused += stats.chunks_reused;
        self.steady_delta_bytes = stats.delta_bytes;
        self.steady_whole_bytes = stats.whole_bytes;
    }

    /// Whole-state bytes over delta bytes at the final cadence point — how
    /// many times cheaper the steady-state delta checkpoint is.
    pub fn steady_ratio(&self) -> f64 {
        if self.steady_delta_bytes == 0 {
            return 0.0;
        }
        self.steady_whole_bytes as f64 / self.steady_delta_bytes as f64
    }
}

/// Outcome of one checkpoint/restore equivalence check.
#[derive(Debug, Clone)]
pub struct ResumeEquivalence {
    /// The checkpoint cadence exercised.
    pub cadence: Duration,
    /// Snapshots the checkpointed run captured.
    pub snapshots: usize,
    /// The checkpointed run itself matched the uninterrupted run.
    pub checkpointed_identical: bool,
    /// How many resumed snapshots reproduced the uninterrupted run.
    pub resumes_identical: usize,
    /// How many checkpoints passed the full manifest-chain + fingerprint
    /// verification before resuming.
    pub fingerprints_verified: usize,
    /// Delta-checkpoint cost accounting for the checkpointed run.
    pub cost: CheckpointCost,
    /// Human-readable description of the first divergence, if any.
    pub first_divergence: Option<String>,
}

impl ResumeEquivalence {
    /// True when the checkpointed run and every resumed snapshot matched
    /// the uninterrupted run byte for byte, with every checkpoint passing
    /// fingerprint verification. A run that committed no checkpoint proves
    /// nothing and fails.
    pub fn identical(&self) -> bool {
        self.snapshots > 0
            && self.checkpointed_identical
            && self.resumes_identical == self.snapshots
            && self.fingerprints_verified == self.snapshots
    }
}

/// Outcome of one checkpoint soak (see [`check_checkpoint_soak`]).
#[derive(Debug, Clone)]
pub struct CheckpointSoak {
    /// The checkpoint cadence exercised.
    pub cadence: Duration,
    /// Checkpoints the delta-checkpointed run committed.
    pub snapshots: usize,
    /// The checkpointed run itself matched the uninterrupted run.
    pub checkpointed_identical: bool,
    /// How many checkpoints passed manifest-chain + fingerprint
    /// verification.
    pub fingerprints_verified: usize,
    /// Whether the resume from the final checkpoint reproduced the
    /// uninterrupted run byte for byte.
    pub last_resume_identical: bool,
    /// Delta-checkpoint cost accounting for the checkpointed run.
    pub cost: CheckpointCost,
    /// Human-readable description of the first failure, if any.
    pub first_divergence: Option<String>,
}

impl CheckpointSoak {
    /// True when the checkpointed run matched the uninterrupted run, every
    /// manifest verified, and the final-checkpoint resume was identical.
    /// A run that committed no checkpoint proves nothing and fails.
    pub fn identical(&self) -> bool {
        self.snapshots > 0
            && self.checkpointed_identical
            && self.fingerprints_verified == self.snapshots
            && self.last_resume_identical
    }
}

/// The shared first half of both checkers: the uninterrupted run's bytes,
/// the delta-checkpointed run's store, and the first divergence found so
/// far.
struct CheckedRun {
    base_report: RunReport,
    base_text: String,
    base_jsonl: String,
    store: DeltaStore,
    checkpointed_identical: bool,
    first_divergence: Option<String>,
}

impl CheckedRun {
    /// Runs `sys` uninterrupted and delta-checkpointed at `every`, compares
    /// the two byte for byte, and returns the committed checkpoints. A run
    /// that ends before the first cadence point commits nothing, which is
    /// recorded as the divergence.
    fn new<S: Recoverable>(
        sys: &S,
        cfg: &SystemConfig,
        every: Duration,
    ) -> (Self, Vec<DeltaCheckpoint<S::Snapshot>>) {
        let mut base_trace = RecordingTrace::new();
        let base_report = sys.run_traced(cfg, &mut base_trace);
        let mut store = DeltaStore::new();
        let mut ck_trace = RecordingTrace::new();
        let (ck_report, checkpoints) =
            sys.run_delta_checkpointed(cfg, every, &mut ck_trace, &mut store);
        let mut run = CheckedRun {
            base_text: format!("{base_report:?}"),
            base_report,
            base_jsonl: base_trace.to_jsonl(),
            store,
            checkpointed_identical: false,
            first_divergence: None,
        };
        let difference = run.difference(&ck_report, &ck_trace);
        run.checkpointed_identical = difference.is_none();
        if let Some(at) = difference {
            run.diverged(format!(
                "checkpointed run diverged from uninterrupted run at {at}"
            ));
        } else if checkpoints.is_empty() {
            run.diverged(format!(
                "run ended before the first cadence point (t = {:.1}s); no checkpoint committed",
                every.as_secs_f64()
            ));
        }
        (run, checkpoints)
    }

    /// Where a run's report or trace first differs from the uninterrupted
    /// run's (`report line N: ...` or `trace line N: ...`, uninterrupted
    /// side first); `None` when both are byte-identical.
    fn difference(&self, report: &RunReport, trace: &RecordingTrace) -> Option<String> {
        if format!("{report:?}") != self.base_text {
            // The one-line `Debug` text would only ever name line 1; the
            // pretty form puts each field and element on its own line.
            let (base, run) = (format!("{:#?}", self.base_report), format!("{report:#?}"));
            return first_line_difference(&base, &run).map(|d| format!("report {d}"));
        }
        first_line_difference(&self.base_jsonl, &trace.to_jsonl()).map(|d| format!("trace {d}"))
    }

    /// Records `what` unless an earlier divergence was already recorded.
    fn diverged(&mut self, what: String) {
        self.first_divergence.get_or_insert(what);
    }
}

/// The O(run)-cost sibling of [`check_resume_equivalence`] for tight
/// cadences: runs `sys` uninterrupted and delta-checkpointed, verifies
/// *every* committed manifest (chain intact, stored chunks hash to the
/// recorded fingerprint, live state re-encodes to exactly those chunks),
/// but resumes only from the final checkpoint. Soak studies committing
/// hundreds of checkpoints use this — resuming from each one would cost
/// O(points × run length).
pub fn check_checkpoint_soak<S: Recoverable>(
    sys: &S,
    cfg: &SystemConfig,
    every: Duration,
) -> CheckpointSoak {
    let (mut run, checkpoints) = CheckedRun::new(sys, cfg, every);
    let total = checkpoints.len();
    let mut fingerprints_verified = 0;
    let mut cost = CheckpointCost::default();
    let mut last_resume_identical = false;
    let last_index = total.saturating_sub(1);
    for ckpt in checkpoints {
        cost.absorb(&ckpt.stats);
        let (at, index) = (ckpt.at, ckpt.index);
        if let Err(err) = S::verify_checkpoint(&run.store, &ckpt) {
            run.diverged(format!(
                "checkpoint {index} (t = {:.1}s) failed verification: {err}",
                at.as_secs_f64()
            ));
            continue;
        }
        fingerprints_verified += 1;
        if index == last_index {
            let mut trace = RecordingTrace::new();
            let report = sys.resume(ckpt.state, &mut trace);
            let difference = run.difference(&report, &trace);
            last_resume_identical = difference.is_none();
            if let Some(d) = difference {
                run.diverged(format!(
                    "resume from final checkpoint {index} (t = {:.1}s) diverged at {d}",
                    at.as_secs_f64()
                ));
            }
        }
    }
    CheckpointSoak {
        cadence: every,
        snapshots: total,
        checkpointed_identical: run.checkpointed_identical,
        fingerprints_verified,
        last_resume_identical,
        cost,
        first_divergence: run.first_divergence,
    }
}

/// Runs `sys` three ways — uninterrupted, delta-checkpointed at `every`,
/// and resumed (with manifest-chain + fingerprint verification) from every
/// committed checkpoint — and verifies that report text and trace JSONL are
/// byte-identical across all of them.
pub fn check_resume_equivalence<S: Recoverable>(
    sys: &S,
    cfg: &SystemConfig,
    every: Duration,
) -> ResumeEquivalence {
    let (mut run, checkpoints) = CheckedRun::new(sys, cfg, every);
    let total = checkpoints.len();
    let mut resumes_identical = 0;
    let mut fingerprints_verified = 0;
    let mut cost = CheckpointCost::default();
    for ckpt in checkpoints {
        cost.absorb(&ckpt.stats);
        let (at, index) = (ckpt.at, ckpt.index);
        let mut trace = RecordingTrace::new();
        match sys.resume_verified(&run.store, ckpt, &mut trace) {
            Ok(report) => {
                fingerprints_verified += 1;
                match run.difference(&report, &trace) {
                    None => resumes_identical += 1,
                    Some(d) => run.diverged(format!(
                        "resume from checkpoint {index} (t = {:.1}s) diverged at {d}",
                        at.as_secs_f64()
                    )),
                }
            }
            Err(err) => run.diverged(format!(
                "checkpoint {index} (t = {:.1}s) failed verification: {err}",
                at.as_secs_f64()
            )),
        }
    }
    ResumeEquivalence {
        cadence: every,
        snapshots: total,
        checkpointed_identical: run.checkpointed_identical,
        resumes_identical,
        fingerprints_verified,
        cost,
        first_divergence: run.first_divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanKind, TraceSpan};

    fn span(secs: u64) -> TraceSpan {
        TraceSpan::new(SpanKind::Stall, Time::ZERO, Time::from_secs(secs), None, 0)
    }

    /// A divergence verdict names the first differing line of the report
    /// (one field per line) or of the trace JSONL.
    #[test]
    fn divergence_names_the_first_differing_report_or_trace_line() {
        let report = RunReport {
            system: "x".into(),
            ..RunReport::default()
        };
        let mut trace = RecordingTrace::new();
        trace.record(span(1));
        let run = CheckedRun {
            base_text: format!("{report:?}"),
            base_report: report.clone(),
            base_jsonl: trace.to_jsonl(),
            store: DeltaStore::new(),
            checkpointed_identical: true,
            first_divergence: None,
        };
        assert_eq!(run.difference(&report, &trace), None);

        let mut longer = trace.clone();
        longer.record(span(2));
        let d = run.difference(&report, &longer).expect("trace grew");
        assert!(d.starts_with("trace line 2: (end of text) vs `{"), "{d}");

        let faster = RunReport {
            throughput: 2.5,
            ..report.clone()
        };
        let d = run.difference(&faster, &trace).expect("report changed");
        assert!(d.starts_with("report line "), "{d}");
        assert!(
            d.ends_with(": `    throughput: 0.0,` vs `    throughput: 2.5,`"),
            "{d}"
        );
    }
}
