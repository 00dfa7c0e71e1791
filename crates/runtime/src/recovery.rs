//! Deterministic checkpoint/restore: the [`Recoverable`] trait and its
//! checkpoint checker.
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
use crate::delta::{encode_report_plane, CommitStats, DeltaStore, StateImage, StatePlane};
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

/// A system supporting deterministic checkpoint/restore.
///
/// A system supplies its [`name`](Recoverable::name) and four pieces —
/// [`start`](Recoverable::start), [`advance`](Recoverable::advance),
/// [`finish`](Recoverable::finish) and
/// [`encode_state`](Recoverable::encode_state) — and the trait writes the
/// cadence loop ([`run_delta_checkpointed`](Recoverable::run_delta_checkpointed))
/// and [`resume`](Recoverable::resume) once for every system, as the
/// blanket impl below writes [`RlSystem::run_traced`].
pub trait Recoverable {
    /// The full mid-run state. Cloneable so one run can yield many
    /// independent resumable snapshots.
    type Snapshot: Clone;

    /// System name for reports.
    fn name(&self) -> &'static str;

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
    /// form delta checkpoints commit. Equal snapshots encode to identical
    /// images, and the tests prove this direction: each committed
    /// snapshot's clone re-encodes to the stored image word for word. The
    /// converse — that snapshots with identical images are equivalent — is
    /// not proven: nothing decodes an image, and derived state such as the
    /// engines' lazy event heaps is left out. A committed manifest records
    /// the image's fingerprint, which checkpoint descriptor files persist
    /// (with [`IMAGE_FORMAT`](crate::delta::IMAGE_FORMAT)) so `--resume-from`
    /// can verify that a deterministic replay reconstructed the same state
    /// before resuming.
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

/// Every run is `resume(start(..))`: one leg from `t = 0` to completion
/// through the pieces the cadence loop drives, so a plain run and a
/// checkpointed one cannot drift apart.
impl<S: Recoverable> RlSystem for S {
    fn run_traced(&self, cfg: &SystemConfig, trace: &mut dyn TraceSink) -> RunReport {
        self.resume(self.start(cfg, trace.enabled()), trace)
    }
}

/// Outcome of one checkpoint check ([`check_resume_equivalence`] or
/// [`check_checkpoint_soak`]): how many checkpoints verified, how many
/// resumed and reproduced the uninterrupted run, and the delta-checkpoint
/// cost of the checkpointed run.
#[derive(Debug, Clone, Default)]
pub struct CheckpointCheck {
    /// The checkpoint cadence exercised.
    pub cadence: Duration,
    /// Checkpoints the delta-checkpointed run committed.
    pub snapshots: usize,
    /// The checkpointed run itself matched the uninterrupted run.
    pub checkpointed_identical: bool,
    /// How many checkpoints passed manifest-chain + fingerprint
    /// verification.
    pub fingerprints_verified: usize,
    /// How many checkpoints were resumed to completion; a checkpoint that
    /// fails verification is never resumed.
    pub resumes: usize,
    /// How many resumes reproduced the uninterrupted run byte for byte.
    pub resumes_identical: usize,
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
    /// Human-readable description of the first failure, if any.
    pub first_divergence: Option<String>,
}

impl CheckpointCheck {
    /// True when the checkpointed run matched the uninterrupted run, every
    /// checkpoint verified, and every resume reproduced the uninterrupted
    /// run byte for byte. A run that resumed nothing — one that committed
    /// no checkpoint included — proves nothing and fails.
    pub fn identical(&self) -> bool {
        self.checkpointed_identical
            && self.fingerprints_verified == self.snapshots
            && self.resumes > 0
            && self.resumes_identical == self.resumes
    }

    /// Whole-state bytes over delta bytes at the final cadence point — how
    /// many times cheaper the steady-state delta checkpoint is.
    pub fn steady_ratio(&self) -> f64 {
        if self.steady_delta_bytes == 0 {
            return 0.0;
        }
        self.steady_whole_bytes as f64 / self.steady_delta_bytes as f64
    }

    /// Records `what` unless an earlier divergence was already recorded.
    fn diverged(&mut self, what: String) {
        self.first_divergence.get_or_insert(what);
    }
}

/// The uninterrupted run's bytes, which every other run of a check must
/// reproduce.
struct Uninterrupted {
    report: RunReport,
    /// The report's [`encode_report_plane`] words.
    plane: StatePlane,
    trace: RecordingTrace,
}

impl Uninterrupted {
    /// Keeps the uninterrupted run's report, with its report plane, and its
    /// trace.
    fn new(report: RunReport, trace: RecordingTrace) -> Self {
        Uninterrupted {
            plane: encode_report_plane("report", &report),
            report,
            trace,
        }
    }

    /// Where a run's report or trace first differs from the uninterrupted
    /// run's (`report line N: ...` or `trace line N: ...`, uninterrupted
    /// side first); `None` when both are byte-identical. Reports compare as
    /// their report planes, which carry every field losslessly, so equal
    /// planes mean equal `Debug` text; traces compare as span slices, since
    /// the JSONL writer is injective, so equal spans mean equal bytes. The
    /// text of either is rendered only to name a differing line.
    fn difference(&self, report: &RunReport, trace: &RecordingTrace) -> Option<String> {
        if encode_report_plane("report", report) != self.plane {
            // The one-line `Debug` text would only ever name line 1; the
            // pretty form puts each field and element on its own line.
            let (base, run) = (format!("{:#?}", self.report), format!("{report:#?}"));
            return first_line_difference(&base, &run).map(|d| format!("report {d}"));
        }
        if trace.spans() == self.trace.spans() {
            return None;
        }
        first_line_difference(&self.trace.to_jsonl(), &trace.to_jsonl())
            .map(|d| format!("trace {d}"))
    }
}

/// The one checker loop: runs `sys` uninterrupted and delta-checkpointed
/// at `every` and compares the two byte for byte, then verifies every
/// committed checkpoint exactly once. A checkpoint `resume(index, total)`
/// selects goes through [`Recoverable::resume_verified`] and its resumed
/// run is compared with the uninterrupted one; every other checkpoint goes
/// through [`Recoverable::verify_checkpoint`] alone. A run that ends
/// before the first cadence point commits nothing, which is recorded as
/// the divergence.
fn check_checkpoints<S: Recoverable>(
    sys: &S,
    cfg: &SystemConfig,
    every: Duration,
    resume: impl Fn(usize, usize) -> bool,
) -> CheckpointCheck {
    let mut trace = RecordingTrace::new();
    let report = sys.run_traced(cfg, &mut trace);
    let mut store = DeltaStore::new();
    let mut ck_trace = RecordingTrace::new();
    let (ck_report, checkpoints) =
        sys.run_delta_checkpointed(cfg, every, &mut ck_trace, &mut store);
    // Encoded only now, so the report plane is not held through the
    // checkpointed run, whose clones are the check's peak heap.
    let base = Uninterrupted::new(report, trace);
    let total = checkpoints.len();
    let mut check = CheckpointCheck {
        cadence: every,
        snapshots: total,
        ..CheckpointCheck::default()
    };
    let difference = base.difference(&ck_report, &ck_trace);
    drop((ck_report, ck_trace));
    check.checkpointed_identical = difference.is_none();
    if let Some(at) = difference {
        check.diverged(format!(
            "checkpointed run diverged from uninterrupted run at {at}"
        ));
    } else if total == 0 {
        check.diverged(format!(
            "run ended before the first cadence point (t = {:.1}s); no checkpoint committed",
            every.as_secs_f64()
        ));
    }
    for ckpt in checkpoints {
        let (at, index, stats) = (ckpt.at.as_secs_f64(), ckpt.index, ckpt.stats);
        check.delta_bytes += stats.delta_bytes;
        check.whole_bytes += stats.whole_bytes;
        check.chunks_total += stats.chunks_total;
        check.chunks_reused += stats.chunks_reused;
        check.steady_delta_bytes = stats.delta_bytes;
        check.steady_whole_bytes = stats.whole_bytes;
        let failed = |err| format!("checkpoint {index} (t = {at:.1}s) failed verification: {err}");
        if !resume(index, total) {
            match S::verify_checkpoint(&store, &ckpt) {
                Ok(()) => check.fingerprints_verified += 1,
                Err(err) => check.diverged(failed(err)),
            }
            continue;
        }
        let mut trace = RecordingTrace::new();
        match sys.resume_verified(&store, ckpt, &mut trace) {
            Err(err) => check.diverged(failed(err)),
            Ok(report) => {
                check.fingerprints_verified += 1;
                check.resumes += 1;
                match base.difference(&report, &trace) {
                    None => check.resumes_identical += 1,
                    Some(d) => check.diverged(format!(
                        "resume from checkpoint {index} (t = {at:.1}s) diverged at {d}"
                    )),
                }
            }
        }
    }
    check
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
) -> CheckpointCheck {
    check_checkpoints(sys, cfg, every, |index, total| index + 1 == total)
}

/// Runs `sys` three ways — uninterrupted, delta-checkpointed at `every`,
/// and resumed (with manifest-chain + fingerprint verification) from every
/// committed checkpoint — and verifies that report text and trace JSONL are
/// byte-identical across all of them.
pub fn check_resume_equivalence<S: Recoverable>(
    sys: &S,
    cfg: &SystemConfig,
    every: Duration,
) -> CheckpointCheck {
    check_checkpoints(sys, cfg, every, |_, _| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanKind, TraceSpan};
    use laminar_workload::{Checkpoint, WorkloadGenerator};
    use std::cell::Cell;
    use std::rc::Rc;

    fn span(secs: u64) -> TraceSpan {
        TraceSpan::new(SpanKind::Stall, Time::ZERO, Time::from_secs(secs), None, 0)
    }

    /// A divergence verdict names the first differing line of the report
    /// (one field per line) or of the trace JSONL; equal span slices are
    /// identical without rendering either side.
    #[test]
    fn divergence_names_the_first_differing_report_or_trace_line() {
        let report = RunReport {
            system: "x".into(),
            ..RunReport::default()
        };
        let mut trace = RecordingTrace::new();
        trace.record(span(1));
        let run = Uninterrupted::new(report.clone(), trace.clone());
        assert_eq!(run.difference(&report, &trace), None);
        let mut rerecorded = RecordingTrace::new();
        rerecorded.record(span(1));
        assert_eq!(run.difference(&report, &rerecorded), None);

        let mut moved = RecordingTrace::new();
        moved.record(span(3));
        let d = run.difference(&report, &moved).expect("span changed");
        assert!(d.starts_with("trace line 1: `{"), "{d}");
        assert!(d.contains("\"end_ns\":3000000000"), "{d}");

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

    /// A toy run of ten virtual seconds whose encoder bumps a counter all
    /// clones of the run share, so no snapshot ever re-encodes to the
    /// image its commit stored.
    struct Drifting(Rc<Cell<u64>>);

    impl Recoverable for Drifting {
        type Snapshot = (Time, Rc<Cell<u64>>);

        fn name(&self) -> &'static str {
            "drifting"
        }

        fn start(&self, _: &SystemConfig, _: bool) -> Self::Snapshot {
            (Time::ZERO, Rc::clone(&self.0))
        }

        fn advance(run: &mut Self::Snapshot, until: Time) -> bool {
            run.0 = until.min(Time::from_secs(10));
            run.0 == Time::from_secs(10)
        }

        fn finish(_: Self::Snapshot, _: &mut dyn TraceSink) -> RunReport {
            RunReport::default()
        }

        fn encode_state(run: &Self::Snapshot) -> StateImage {
            run.1.set(run.1.get() + 1);
            let mut plane = StatePlane::new("drift");
            plane.push_chunk(&[run.1.get()]);
            let mut image = StateImage::new();
            image.push_plane(plane);
            image
        }
    }

    /// A checkpoint whose live state does not re-encode to its committed
    /// image fails verification and is never resumed, through either entry
    /// point: the check fails closed and names the failed verification.
    #[test]
    fn checks_fail_closed_when_verification_fails() {
        let cfg = SystemConfig::small_test(WorkloadGenerator::single_turn(1, Checkpoint::Math7B));
        let (sys, every) = (Drifting(Rc::default()), Duration::from_secs(1));
        for check in [
            check_resume_equivalence(&sys, &cfg, every),
            check_checkpoint_soak(&sys, &cfg, every),
        ] {
            let counts = (check.snapshots, check.fingerprints_verified, check.resumes);
            assert_eq!(counts, (9, 0, 0), "{check:?}");
            assert!(
                check.checkpointed_identical && !check.identical(),
                "{check:?}"
            );
            let why = check.first_divergence.unwrap_or_default();
            assert!(
                why.starts_with("checkpoint 0 (t = 1.0s) failed verification: "),
                "{why}"
            );
        }
    }
}
