//! The `recovery` experiment: sustained multi-fault schedules against the
//! recovery plane, reporting MTTR and goodput retained, plus the
//! deterministic checkpoint/restore demonstration.
//!
//! Three parts:
//!
//! 1. a *sustained* hand-written scenario — half the rollout machines gone
//!    for a minute, a flapping straggler that trips its circuit breaker, an
//!    env call stalled far past the retry budget, a trainer crash — pushing
//!    the driver into degraded mode. MTTR is read off the
//!    `degraded`/`recovered` trace spans and goodput is compared against
//!    the fault-free run of the same configuration;
//! 2. a seeded sweep of dense generated schedules (root seed
//!    `--recovery-seed`), every run audited by the chaos invariant suite
//!    plus the recovery invariants (no admission past an open breaker,
//!    degraded-mode staleness within bound, dead-replica state reclaimed);
//! 3. checkpoint/restore: every system runs uninterrupted, checkpointed at
//!    two cadences (override with `--checkpoint-every SECS`), and resumed
//!    from every captured snapshot; report text and trace JSONL must be
//!    byte-identical across all three. Laminar's snapshots are also
//!    printed as `checkpoint format=N ...` descriptor lines consumable by
//!    `--resume-from FILE`, `N` being the checkpoint image format
//!    ([`IMAGE_FORMAT`]) their fingerprints were computed under.

use super::Opts;
use crate::lab::{self, LabSpec, Summary};
use laminar_baselines::{OneStepStaleness, PartialRollout, StreamGeneration, VerlSync};
use laminar_cluster::ModelSpec;
use laminar_core::{FaultEvent, FaultKind, LaminarSystem, SystemKind};
use laminar_runtime::delta::IMAGE_FORMAT;
use laminar_runtime::recovery::{check_resume_equivalence, DeltaCheckpoint, Recoverable};
use laminar_runtime::{DeltaStore, NullTrace, RecordingTrace, SystemConfig};
use laminar_sim::{Duration, SpanKind, Time};
use laminar_workload::{Checkpoint, WorkloadGenerator};
use std::fmt::Write;
use std::path::Path;

/// The sweep's spec: the committed `specs/recovery-sweep.toml`, shrunk in
/// quick mode, with the legacy seed flags applied as aliases.
pub(crate) fn recovery_spec(opts: &Opts) -> LabSpec {
    let mut spec = LabSpec::parse(include_str!("../../../../specs/recovery-sweep.toml"))
        .expect("in-tree recovery-sweep spec parses");
    if opts.quick {
        spec.apply_quick();
    }
    spec.reseed(opts.recovery_seed);
    spec.data_seed = opts.seed;
    spec
}

/// The configuration the fault parts of the experiment run on.
pub(crate) fn recovery_config(opts: &Opts, kind: SystemKind) -> SystemConfig {
    let total = if opts.quick { 16 } else { 64 };
    let mut cfg = opts.config(
        kind,
        ModelSpec::qwen_7b(),
        total,
        WorkloadGenerator::single_turn(opts.seed, Checkpoint::Math7B),
    );
    cfg.iterations = 3;
    cfg.warmup = 0;
    cfg
}

/// The configuration the checkpoint/restore section (and `--resume-from`
/// replay) uses: a pure function of `(seed, system)`, small enough that
/// deterministic replay from `t = 0` costs milliseconds.
fn replay_config(seed: u64, kind: SystemKind) -> SystemConfig {
    let mut c = SystemConfig::small_test(WorkloadGenerator::single_turn(seed, Checkpoint::Math7B));
    if matches!(kind, SystemKind::Verl) {
        c.train_gpus = 0;
        c.rollout_gpus = 8;
    } else {
        c.train_gpus = 4;
        c.rollout_gpus = 4;
    }
    c.seed = seed;
    c.iterations = 3;
    c.warmup = 0;
    c
}

/// The sustained scenario: capacity stays below the degraded-mode
/// threshold for a full minute while a straggler flaps often enough to
/// trip its circuit breaker, one env call stalls far past the retry
/// budget, and the trainer crashes mid-outage.
fn sustained_schedule(replicas: usize) -> Vec<FaultEvent> {
    let victims: Vec<usize> = (0..(replicas / 2).max(1)).collect();
    let flapper = replicas.saturating_sub(1);
    let flap = |secs: u64| FaultEvent {
        at: Time::from_secs(secs),
        kind: FaultKind::SlowNode {
            replica: flapper,
            factor: 3.0,
            duration: Duration::from_secs(8),
        },
    };
    vec![
        FaultEvent::machine_crash(Time::from_secs(15), victims, Duration::from_secs(60)),
        flap(20),
        FaultEvent {
            at: Time::from_secs(28),
            kind: FaultKind::EnvStall {
                replica: flapper,
                extra: Duration::from_secs(120),
            },
        },
        flap(32),
        flap(44),
        FaultEvent::trainer_crash(Time::from_secs(55), Duration::from_secs(8)),
    ]
}

/// Degraded-mode entries and mean time to recover, read off the trace.
fn degraded_stats(trace: &RecordingTrace) -> (usize, Option<f64>) {
    let mut entries = 0;
    let mut total = 0.0;
    let mut n = 0u32;
    for s in trace.spans() {
        match s.kind {
            SpanKind::Degraded => entries += 1,
            SpanKind::Recovered => {
                total += s.end.since(s.start).as_secs_f64();
                n += 1;
            }
            _ => {}
        }
    }
    (entries, (n > 0).then(|| total / n as f64))
}

/// Runs the recovery experiment and renders its report.
pub fn recovery(opts: &Opts) -> String {
    let cfg = recovery_config(opts, SystemKind::Laminar);
    let replicas = cfg.replicas();
    let total = if opts.quick { 16 } else { 64 };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Recovery — graceful degradation, MTTR, and checkpoint/restore\n\
         ({} on {total} GPUs, {replicas} replicas, recovery seed {})\n",
        cfg.model.name, opts.recovery_seed
    );

    // Part 1: fault-free run vs the sustained scenario.
    let clean = LaminarSystem::default().run_chaos(&cfg);
    let sys = LaminarSystem {
        faults: sustained_schedule(replicas),
        ..LaminarSystem::default()
    };
    let run = sys.run_chaos(&cfg);
    let violations = run.violations();
    let (entries, mttr) = degraded_stats(&run.trace);
    let goodput_retained = run.report.throughput / clean.report.throughput.max(1e-9);
    let _ = writeln!(
        out,
        "fault-free:  {:.0} tok/s, violations: {}",
        clean.report.throughput,
        if clean.violations().is_empty() {
            "none"
        } else {
            "SOME"
        },
    );
    let _ = writeln!(
        out,
        "sustained:   {:.0} tok/s ({:.1}% goodput retained), {} faults applied,\n\
         \x20            degraded entries {entries}, MTTR {}, breaker trips {:?},\n\
         \x20            admissions blocked by open breakers {}, env-call aborts {},\n\
         \x20            violations: {}",
        run.report.throughput,
        100.0 * goodput_retained,
        run.outcome.audit.faults_applied,
        match mttr {
            Some(s) => format!("{s:.1}s"),
            None => "n/a".to_string(),
        },
        run.outcome.breaker_trips,
        run.outcome.audit.breaker_blocked,
        run.outcome.env_aborts,
        if violations.is_empty() {
            "none".to_string()
        } else {
            violations.join("; ")
        },
    );
    if opts.trace.is_some() {
        opts.sink_trace(&run.trace);
    }

    // Part 2: the seeded sweep through the lab (spec → planner → executor
    // → analysis): dense generated schedules, fanned across --jobs with
    // rows and trace spans returned in plan order.
    let spec = recovery_spec(opts);
    let rows = lab::run_lab(&spec, opts);
    let _ = writeln!(
        out,
        "\nsweep spec `{}` ({} seeds rooted at {}):\n",
        spec.name,
        spec.seeds.len(),
        opts.recovery_seed
    );
    let _ = writeln!(
        out,
        "{:>6}  {:>6}  {:>8}  {:>6}  {:>7}  {:>7}  {:>10}",
        "seed", "faults", "degraded", "trips", "blocked", "aborts", "violations"
    );
    let mut all_green = violations.is_empty() && clean.violations().is_empty();
    for r in &rows {
        let m = |k: &str| r.metric(k).unwrap_or(0.0) as u64;
        all_green &= m("violations") == 0;
        let _ = writeln!(
            out,
            "{:>6}  {:>6}  {:>8}  {:>6}  {:>7}  {:>7}  {:>10}",
            r.seed,
            m("faults"),
            m("degraded_entries"),
            m("breaker_trips"),
            m("breaker_blocked"),
            m("env_aborts"),
            m("violations"),
        );
    }
    let _ = writeln!(out, "\naggregates over the sweep:\n");
    out.push_str(&Summary::from_rows(&rows).render());

    // Part 3: checkpoint/restore equivalence for all five systems.
    let cadences: Vec<Duration> = match opts.checkpoint_every {
        Some(s) => vec![Duration::from_secs_f64(s)],
        None => vec![Duration::from_secs(20), Duration::from_secs(33)],
    };
    let _ = writeln!(
        out,
        "\ncheckpoint/restore (report + trace byte-identical to the uninterrupted run):"
    );
    let mut all_identical = true;
    for cadence in &cadences {
        let _ = writeln!(out, "  cadence {:.0}s:", cadence.as_secs_f64());
        let mut row = |name: &str, eq: laminar_runtime::recovery::ResumeEquivalence| {
            all_identical &= eq.identical();
            let c = &eq.cost;
            let pts = c.points.max(1) as u64;
            let _ = writeln!(
                out,
                "    {name:<16} {} snapshots, checkpointed identical: {}, resumes identical: {}/{}, \
                 fingerprints verified: {}/{}, delta {}B/pt vs whole {}B/pt (steady {:.2}x, {}/{} chunks reused){}",
                eq.snapshots,
                if eq.checkpointed_identical { "yes" } else { "NO" },
                eq.resumes_identical,
                eq.snapshots,
                eq.fingerprints_verified,
                eq.snapshots,
                c.delta_bytes / pts,
                c.whole_bytes / pts,
                c.steady_ratio(),
                c.chunks_reused,
                c.chunks_total,
                match &eq.first_divergence {
                    Some(d) => format!(" ({d})"),
                    None => String::new(),
                },
            );
        };
        row(
            "laminar",
            check_resume_equivalence(
                &LaminarSystem::default(),
                &replay_config(opts.seed, SystemKind::Laminar),
                *cadence,
            ),
        );
        row(
            "verl",
            check_resume_equivalence(
                &VerlSync,
                &replay_config(opts.seed, SystemKind::Verl),
                *cadence,
            ),
        );
        row(
            "one-step",
            check_resume_equivalence(
                &OneStepStaleness,
                &replay_config(opts.seed, SystemKind::OneStep),
                *cadence,
            ),
        );
        row(
            "stream-gen",
            check_resume_equivalence(
                &StreamGeneration,
                &replay_config(opts.seed, SystemKind::StreamGen),
                *cadence,
            ),
        );
        row(
            "partial-rollout",
            check_resume_equivalence(
                &PartialRollout,
                &replay_config(opts.seed, SystemKind::PartialRollout),
                *cadence,
            ),
        );
    }

    // Checkpoint descriptors for --resume-from: replayable because the
    // configuration is a pure function of (system, seed).
    let (store, checkpoints) = commit_checkpoints(
        &LaminarSystem::default(),
        &replay_config(opts.seed, SystemKind::Laminar),
        cadences[0],
    );
    for ck in &checkpoints {
        let _ = writeln!(
            out,
            "checkpoint format={IMAGE_FORMAT} system=laminar seed={} every_ns={} index={} at_ns={} \
             fingerprint={:016x}",
            opts.seed,
            cadences[0].as_nanos(),
            ck.index,
            ck.at.as_nanos(),
            committed_fingerprint(&store, ck),
        );
    }

    let _ = writeln!(
        out,
        "\nDegraded spans open when alive capacity sits below the threshold past the\n\
         window; the matching recovered span closes when capacity returns, and its\n\
         length is the MTTR. all seeds green: {} / all resumes identical: {}",
        if all_green { "yes" } else { "NO" },
        if all_identical { "yes" } else { "NO" },
    );
    out
}

/// Replays a `checkpoint ...` descriptor line (as printed by the
/// `recovery` experiment and saved in `results/recovery.txt`):
/// deterministically re-runs the system to the checkpoint, verifies the
/// snapshot fingerprint, resumes to completion, and compares the resumed
/// report against the uninterrupted run's. A descriptor of another image
/// format than [`IMAGE_FORMAT`] — including one with no `format` key,
/// which format 1 wrote — is refused before anything replays: its
/// fingerprint was computed by another encoding and cannot verify here.
pub fn resume_from_descriptor(path: &Path, opts: &Opts) -> Result<String, String> {
    let text = std::fs::read_to_string(path).expect("read checkpoint descriptor file");
    let line = text
        .lines()
        .map(str::trim_start)
        .find(|l| l.starts_with("checkpoint "))
        .expect("no `checkpoint ...` descriptor line in file");
    let format = line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("format="));
    if format != Some(IMAGE_FORMAT.to_string().as_str()) {
        return Err(format!(
            "refusing checkpoint descriptor of image format {}: this build reads format \
             {IMAGE_FORMAT} only, and a fingerprint computed under another format cannot \
             verify. Rerun the `recovery` experiment to write format-{IMAGE_FORMAT} descriptors.",
            format.unwrap_or("1 (no `format` key)"),
        ));
    }
    let mut system = String::new();
    let mut seed = opts.seed;
    let mut every = Duration::ZERO;
    let mut index = usize::MAX;
    let mut fingerprint = 0u64;
    for tok in line.split_whitespace().skip(1) {
        let (k, v) = tok
            .split_once('=')
            .expect("descriptor tokens are key=value");
        match k {
            "system" => system = v.to_string(),
            "seed" => seed = v.parse().expect("seed"),
            "every_ns" => every = Duration::from_nanos(v.parse().expect("every_ns")),
            "index" => index = v.parse().expect("index"),
            // `format` is checked above. Informational / legacy keys: the
            // replay re-derives `at`, and its config no longer depends on
            // `quick`.
            "format" | "at_ns" | "quick" => {}
            "fingerprint" => fingerprint = u64::from_str_radix(v, 16).expect("fingerprint hex"),
            other => panic!("unknown descriptor key: {other}"),
        }
    }
    Ok(match system.as_str() {
        "laminar" => replay(
            &LaminarSystem::default(),
            &replay_config(seed, SystemKind::Laminar),
            every,
            index,
            fingerprint,
        ),
        "verl" => replay(
            &VerlSync,
            &replay_config(seed, SystemKind::Verl),
            every,
            index,
            fingerprint,
        ),
        "one-step" => replay(
            &OneStepStaleness,
            &replay_config(seed, SystemKind::OneStep),
            every,
            index,
            fingerprint,
        ),
        "stream-gen" => replay(
            &StreamGeneration,
            &replay_config(seed, SystemKind::StreamGen),
            every,
            index,
            fingerprint,
        ),
        "partial-rollout" => replay(
            &PartialRollout,
            &replay_config(seed, SystemKind::PartialRollout),
            every,
            index,
            fingerprint,
        ),
        other => panic!("unknown system in descriptor: {other}"),
    })
}

/// Runs `sys` to completion with a delta checkpoint at every `every`,
/// committed to a store of its own.
fn commit_checkpoints<S: Recoverable>(
    sys: &S,
    cfg: &SystemConfig,
    every: Duration,
) -> (DeltaStore, Vec<DeltaCheckpoint<S::Snapshot>>) {
    let mut store = DeltaStore::new();
    let (_, checkpoints) = sys.run_delta_checkpointed(cfg, every, &mut NullTrace, &mut store);
    (store, checkpoints)
}

/// The state-image fingerprint the checkpoint's manifest records: the
/// value a descriptor line carries.
fn committed_fingerprint<S>(store: &DeltaStore, checkpoint: &DeltaCheckpoint<S>) -> u64 {
    store
        .manifest(checkpoint.manifest_id)
        .expect("a committed checkpoint's manifest is in its store")
        .fingerprint
}

fn replay<S: Recoverable>(
    sys: &S,
    cfg: &SystemConfig,
    every: Duration,
    index: usize,
    want: u64,
) -> String {
    let (store, checkpoints) = commit_checkpoints(sys, cfg, every);
    let total = checkpoints.len();
    let ck = checkpoints
        .into_iter()
        .find(|c| c.index == index)
        .unwrap_or_else(|| panic!("descriptor index {index} out of range ({total} snapshots)"));
    let got = committed_fingerprint(&store, &ck);
    let verified = got == want;
    let at = ck.at;
    let resumed = sys.resume(ck.state, &mut NullTrace);
    let base = sys.run_traced(cfg, &mut NullTrace);
    let identical = format!("{resumed:?}") == format!("{base:?}");
    format!(
        "resume {} from checkpoint {index} (t = {:.1}s, cadence {:.1}s)\n\
         fingerprint: got {got:016x}, want {want:016x} — verified: {}\n\
         resumed throughput: {:.0} tok/s\n\
         resumed report identical to uninterrupted run: {}\n",
        sys.name(),
        at.as_secs_f64(),
        every.as_secs_f64(),
        if verified { "yes" } else { "NO" },
        resumed.throughput,
        if identical { "yes" } else { "NO" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A temporary directory of this test process, removed on drop — also
    /// when the test fails.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("laminar-{name}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        /// Writes `line` to `file` in the directory and returns its path.
        fn write(&self, file: &str, line: &str) -> PathBuf {
            let path = self.0.join(file);
            std::fs::write(&path, line).expect("write descriptor");
            path
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn recovery_report_is_green_and_descriptors_round_trip() {
        let o = Opts::default();
        let s = recovery(&o);
        assert!(s.contains("all seeds green: yes"), "{s}");
        assert!(s.contains("all resumes identical: yes"), "{s}");
        // The sustained scenario must actually push the driver into
        // degraded mode at least once.
        assert!(!s.contains("degraded entries 0,"), "{s}");

        let line = s
            .lines()
            .find(|l| l.starts_with("checkpoint format=2 system=laminar"))
            .expect("report emits descriptors");
        let dir = TempDir::new("recovery-test");
        let out = resume_from_descriptor(&dir.write("ckpt.txt", line), &o).expect("format 2");
        assert!(out.contains("verified: yes"), "{out}");
        assert!(
            out.contains("resumed report identical to uninterrupted run: yes"),
            "{out}"
        );
    }

    /// The fingerprint of the first checkpoint a 20 s cadence commits.
    fn first_fingerprint<S: Recoverable>(sys: &S, kind: SystemKind) -> u64 {
        let cfg = replay_config(7, kind);
        let (store, checkpoints) = commit_checkpoints(sys, &cfg, Duration::from_secs(20));
        let first = checkpoints.first().expect("run crosses a cadence point");
        committed_fingerprint(&store, first)
    }

    /// `--resume-from` replays every system a descriptor can name: each
    /// verifies and resumes identically, and a descriptor with one flipped
    /// fingerprint bit fails verification.
    #[test]
    fn descriptors_replay_for_every_system() {
        let dir = TempDir::new("replay-test");
        let resume_from = |system: &str, fingerprint: u64| {
            let line = format!(
                "checkpoint format=2 system={system} seed=7 every_ns={} index=0 \
                 fingerprint={fingerprint:016x}",
                Duration::from_secs(20).as_nanos()
            );
            let path = dir.write(&format!("{system}-{fingerprint:016x}.txt"), &line);
            resume_from_descriptor(&path, &Opts::default()).expect("format 2")
        };
        let systems = [
            (
                "laminar",
                first_fingerprint(&LaminarSystem::default(), SystemKind::Laminar),
            ),
            ("verl", first_fingerprint(&VerlSync, SystemKind::Verl)),
            (
                "one-step",
                first_fingerprint(&OneStepStaleness, SystemKind::OneStep),
            ),
            (
                "stream-gen",
                first_fingerprint(&StreamGeneration, SystemKind::StreamGen),
            ),
            (
                "partial-rollout",
                first_fingerprint(&PartialRollout, SystemKind::PartialRollout),
            ),
        ];
        for (system, fingerprint) in systems {
            let out = resume_from(system, fingerprint);
            assert!(out.contains("verified: yes"), "{system}: {out}");
            assert!(
                out.contains("resumed report identical to uninterrupted run: yes"),
                "{system}: {out}"
            );
        }
        let (system, fingerprint) = systems[0];
        let out = resume_from(system, fingerprint ^ 1);
        assert!(out.contains("verified: NO"), "{out}");
    }

    /// A descriptor of another image format is refused by name before it
    /// replays: the line format 1 wrote (no `format` key), and a format-3
    /// line naming a system no replay knows, which would panic if the
    /// refusal came after parsing or replay.
    #[test]
    fn other_format_descriptors_are_refused_before_replay() {
        let dir = TempDir::new("format-test");
        let format_1 = "checkpoint system=laminar seed=7 every_ns=20000000000 index=0 \
                        at_ns=20000000000 fingerprint=211bd52c12addb20";
        let err = resume_from_descriptor(&dir.write("v1.txt", format_1), &Opts::default())
            .expect_err("a format-1 descriptor must be refused");
        for phrase in [
            "image format 1 (no `format` key)",
            "reads format 2 only",
            "Rerun the `recovery` experiment",
        ] {
            assert!(err.contains(phrase), "`{err}` lacks `{phrase}`");
        }
        let format_3 = "checkpoint format=3 system=none index=9 shape=new";
        let err = resume_from_descriptor(&dir.write("v3.txt", format_3), &Opts::default())
            .expect_err("a format-3 descriptor must be refused");
        assert!(
            err.contains("image format 3: this build reads format 2"),
            "{err}"
        );
    }
}
