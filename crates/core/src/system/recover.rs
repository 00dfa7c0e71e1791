//! The recovery plane: graceful degradation under sustained capacity loss
//! and deterministic checkpoint/restore (DESIGN.md §8).
//!
//! **Degradation.** Every fault path that changes fleet capacity calls
//! [`World::note_capacity`]. When the alive fraction drops below
//! [`DEGRADED_ALIVE_FRAC`], a [`Ev::DegradeCheck`] is armed one
//! [`DEGRADED_WINDOW`] later; if capacity is still low when it fires, the
//! driver enters degraded mode — the per-replica admission target shrinks
//! by [`DEGRADED_ADMISSION_FRAC`] and a configured staleness cap is relaxed
//! by [`STALENESS_RELAX`] versions — and emits a
//! [`SpanKind::Degraded`] marker. Capacity returning (machine recovery or
//! elastic scale-out) exits the mode and emits a [`SpanKind::Recovered`]
//! span covering the whole episode, which is what the recovery benchmark
//! reads MTTR from.
//!
//! **Checkpoint/restore.** A [`LaminarSnapshot`] is a deep clone of the
//! whole `Simulation<World>` taken between events at a cadence boundary.
//! Cloning a `BinaryHeap` or `HashMap` copies its backing storage verbatim,
//! so the clone pops and iterates in exactly the original order; together
//! with the seeded RNG being part of the state, a resumed run replays the
//! remaining events byte-identically — same report, same trace — which
//! `laminar_runtime::check_resume_equivalence` asserts outright.

use super::{Ev, LaminarSystem, World};
use laminar_data::{Eviction, ExperienceBuffer, PartialResponsePool, Sampler};
use laminar_runtime::delta::{
    encode_engine_spans_plane, encode_engines_plane, encode_queue_plane, encode_report_plane,
    str_words, StateImage, StatePlane, WordEnc,
};
use laminar_runtime::recovery::Recoverable;
use laminar_runtime::{RunReport, SpanKind, SystemConfig, TraceSink};
use laminar_sim::{Duration, Scheduler, Simulation, Time};

/// Degraded mode arms when the alive fraction of the fleet drops below
/// this threshold…
const DEGRADED_ALIVE_FRAC: f64 = 0.75;

/// …and stays below it for this long (transient kills that recover
/// quickly never degrade the run).
const DEGRADED_WINDOW: Duration = Duration::from_secs(30);

/// Admission target multiplier while degraded: each replica batch shrinks
/// to `replica_batch * frac` (min 1) so the surviving fleet is not
/// oversubscribed.
pub(super) const DEGRADED_ADMISSION_FRAC: f64 = 0.5;

/// While degraded, a configured staleness cap is relaxed by at most this
/// many versions — the audited degraded-mode bound.
pub(super) const STALENESS_RELAX: u64 = 4;

impl World {
    fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Re-evaluates fleet capacity after any event that changes it.
    /// Arms the degradation timer when capacity drops below the threshold;
    /// ends the degraded episode as soon as capacity returns.
    pub(super) fn note_capacity(&mut self, now: Time, sched: &mut Scheduler<Ev>) {
        let frac = self.alive_count() as f64 / self.alive.len().max(1) as f64;
        if frac < DEGRADED_ALIVE_FRAC {
            if self.capacity_low_since.is_none() {
                self.capacity_low_since = Some(now);
                sched.after(DEGRADED_WINDOW, Ev::DegradeCheck);
            }
        } else {
            self.capacity_low_since = None;
            if self.degraded {
                self.exit_degraded(now);
            }
        }
    }

    /// The armed degradation timer fired: enter degraded mode iff capacity
    /// has stayed low for the whole window (transient dips are absorbed).
    pub(super) fn degrade_check(&mut self, now: Time) {
        if self.degraded {
            return;
        }
        let Some(since) = self.capacity_low_since else {
            return;
        };
        if now.since(since) >= DEGRADED_WINDOW {
            self.enter_degraded(now);
        }
    }

    /// The staleness cap currently in force: the configured cap, plus the
    /// relax allowance only while degraded.
    fn effective_staleness_cap(&self) -> Option<u64> {
        self.opts.staleness_cap.map(|cap| {
            if self.degraded {
                cap + STALENESS_RELAX
            } else {
                cap
            }
        })
    }

    fn enter_degraded(&mut self, now: Time) {
        self.degraded = true;
        self.degraded_entered = now;
        self.audit.degraded_entries += 1;
        self.span(SpanKind::Degraded, now, now, None, self.relay_version, 0);
        if let Some(cap) = self.effective_staleness_cap() {
            self.buffer
                .set_sampler(Sampler::StalenessCapped { max_staleness: cap });
        }
    }

    fn exit_degraded(&mut self, now: Time) {
        self.degraded = false;
        self.span(
            SpanKind::Recovered,
            self.degraded_entered,
            now,
            None,
            self.relay_version,
            0,
        );
        if let Some(cap) = self.effective_staleness_cap() {
            self.buffer
                .set_sampler(Sampler::StalenessCapped { max_staleness: cap });
        }
    }
}

/// The complete simulation state of a Laminar run (engines with their
/// event heaps and resident trajectories, the experience and
/// partial-response buffers, actor and relay versions, the driver clock,
/// and every pending simulation event). Cloned between events at a cadence
/// boundary, it is a deterministic checkpoint.
#[derive(Clone)]
pub struct LaminarSnapshot {
    pub(super) sim: Simulation<World>,
}

impl Recoverable for LaminarSystem {
    type Snapshot = LaminarSnapshot;

    fn start(&self, cfg: &SystemConfig, record_trace: bool) -> LaminarSnapshot {
        LaminarSnapshot {
            sim: self.build(cfg, record_trace),
        }
    }

    fn advance(run: &mut LaminarSnapshot, until: Time) -> bool {
        let sim = &mut run.sim;
        let finished = sim.run_while_until(|w| !w.done(), until, 2_000_000_000);
        assert!(
            finished || sim.scheduler.next_event_time().is_some(),
            "laminar run stalled before completing its iterations"
        );
        finished
    }

    fn finish(run: LaminarSnapshot, trace: &mut dyn TraceSink) -> RunReport {
        let mut world = run.sim.world;
        world.drain_spans(trace);
        world.finish_report()
    }

    fn encode_state(snapshot: &LaminarSnapshot) -> StateImage {
        build_image(&snapshot.sim)
    }
}

// ---------------------------------------------------------------------
// Canonical state image
// ---------------------------------------------------------------------

/// Fixed plane order of the Laminar state image. Every mutable plane of the
/// world is covered; chunk boundaries sit at natural state granularity —
/// one chunk per resident trajectory, per pending event, per pooled prompt,
/// per partial response, per buffered experience — so removing one entry
/// never shifts a neighbour's chunk key, and [`PAGE_WORDS`]-paged streams
/// carry the flat scalar/report tails.
///
/// [`PAGE_WORDS`]: laminar_runtime::delta::PAGE_WORDS
fn build_image(sim: &Simulation<World>) -> StateImage {
    let w = &sim.world;
    let mut img = StateImage::new();
    img.push_plane(driver_plane(sim));
    img.push_plane(audit_plane(w));
    img.push_plane(encode_queue_plane(&sim.scheduler, encode_ev));
    img.push_plane(pool_plane(w));
    img.push_plane(partials_plane(&w.partials));
    img.push_plane(buffer_plane(&w.buffer));
    img.push_plane(encode_engines_plane(&w.engines));
    img.push_plane(encode_engine_spans_plane(&w.trace_spans, &w.engines));
    img.push_plane(encode_report_plane("report", &w.report));
    img
}

/// The driver's flat scalar stream: scheduler counters, version state,
/// trainer state, RNG words, per-replica liveness/breaker state, the actor
/// checkpoint store, the dataset cursor, and the manager's health map.
fn driver_plane(sim: &Simulation<World>) -> StatePlane {
    let w = &sim.world;
    let mut e = WordEnc::new();
    e.t(sim.scheduler.now())
        .u(sim.scheduler.scheduled())
        .u(sim.scheduler.delivered())
        .z(sim.scheduler.pending())
        .u(w.version)
        .u(w.relay_version)
        .u(w.batches_issued)
        .z(w.replica_batch)
        .b(w.trainer_busy)
        .b(w.trainer_failed)
        .u(w.trainer_epoch)
        .u(w.trainer_resume_to)
        .t(w.relay_blocked_until)
        .z(w.iterations_done)
        .u(w.last_iter_duration.as_nanos())
        .t(w.last_train_done)
        .f(w.gen_tokens_prev)
        .t(w.gen_sample_prev)
        .f(w.train_tokens_cum)
        .f(w.train_tokens_prev)
        .b(w.record_trace)
        .t(w.trainer_started)
        .t(w.trainer_free_at)
        .b(w.degraded)
        .ot(w.capacity_low_since)
        .t(w.degraded_entered);
    for word in w.rng.state_words() {
        e.u(word);
    }
    e.z(w.alive.len());
    for &a in &w.alive {
        e.b(a);
    }
    for &p in &w.pulling {
        e.b(p);
    }
    let mut words = e.take();
    for b in &w.breakers {
        b.state_words(&mut words);
    }
    words.push(w.checkpoints.every);
    words.push(w.checkpoints.history_len() as u64);
    for c in w.checkpoints.history() {
        words.push(c.version);
        words.push(c.written_at.as_nanos());
    }
    let (next_prompt, next_traj) = w.dataset.cursor();
    words.push(next_prompt);
    words.push(next_traj);
    w.manager.checkpoint_words(&mut words);
    let mut plane = StatePlane::new("driver");
    plane.extend_paged(&words);
    plane
}

/// The chaos audit's lost-work bookkeeping (BTree containers iterate in
/// key order, so the streams are canonical). Sectioned so growth in one
/// region never shifts another: a scalar head chunk frames the sections,
/// the admitted set and completed map — whose keys are ascending ids, so
/// growth appends — are each their own paged stream, and each replica's
/// version history gets its own chunk (it only changes when that replica
/// syncs weights).
fn audit_plane(w: &World) -> StatePlane {
    let a = &w.audit;
    let mut plane = StatePlane::new("audit");
    let mut head = vec![
        a.faults_applied,
        a.redirects,
        a.repooled,
        a.breaker_blocked,
        a.degraded_entries,
        a.admitted.len() as u64,
        a.completion_log.len() as u64,
        a.version_history.len() as u64,
        a.violations.len() as u64,
    ];
    head.extend(a.violations.iter().flat_map(|v| str_words(v)));
    plane.push_chunk(head);
    let admitted: Vec<u64> = a.admitted.iter().copied().collect();
    plane.extend_paged(&admitted);
    // The completion log is the append-only view of `completed` (which is
    // its per-id multiset), so paging it covers the map without the
    // mid-stream shifts out-of-id-order completions would cause.
    plane.extend_paged(&a.completion_log);
    for (r, h) in a.version_history.iter().enumerate() {
        let mut words = vec![r as u64, h.len() as u64];
        words.extend(h.iter().copied());
        plane.push_chunk(words);
    }
    plane
}

/// Canonical event encoding: a stable discriminant plus the payload.
fn encode_ev(ev: &Ev, out: &mut Vec<u64>) {
    match ev {
        Ev::ReplicaWake { r, epoch } => {
            out.extend([0, *r as u64, *epoch]);
        }
        Ev::ReplicaResume { r, version } => {
            out.extend([1, *r as u64, *version]);
        }
        Ev::TrainerCheck => out.push(2),
        Ev::TrainerDone { tokens, epoch } => {
            out.extend([3, tokens.to_bits(), *epoch]);
        }
        Ev::WeightsAvailable { version } => out.extend([4, *version]),
        Ev::RepackTick => out.push(5),
        Ev::SampleTick => out.push(6),
        Ev::Fault { idx } => out.extend([7, *idx as u64]),
        Ev::RecoverMachine { replicas } => {
            out.extend([8, replicas.len() as u64]);
            out.extend(replicas.iter().map(|&r| r as u64));
        }
        Ev::SlowNodeEnd { r } => out.extend([9, *r as u64]),
        Ev::TrainerRecover => out.push(10),
        Ev::AddReplicas { count } => out.extend([11, *count as u64]),
        Ev::DegradeCheck => out.push(12),
        Ev::BreakerProbe { r } => out.extend([13, *r as u64]),
    }
}

/// One chunk per pooled prompt assignment, in admission (deque) order.
fn pool_plane(w: &World) -> StatePlane {
    let mut plane = StatePlane::new("pool");
    plane.extend_records(&w.pool, |spec, words| spec.encode_words(words));
    plane
}

/// Pool counters plus one chunk per in-flight partial response, id-sorted.
fn partials_plane(p: &PartialResponsePool) -> StatePlane {
    let mut plane = StatePlane::new("partials");
    plane.push_chunk(vec![p.total_updates(), p.recovered(), p.len() as u64]);
    plane.extend_records(p.ids(), |id, words| {
        p.get(id).expect("listed id present").encode_words(words)
    });
    plane
}

/// Buffer strategy + flow counters, then one chunk per buffered experience
/// in deque (write) order.
fn buffer_plane(b: &ExperienceBuffer) -> StatePlane {
    let mut head = WordEnc::new();
    match b.sampler() {
        Sampler::Fifo => head.u(0),
        Sampler::Lifo => head.u(1),
        Sampler::StalenessCapped { max_staleness } => head.u(2).u(max_staleness),
        Sampler::Random => head.u(3),
    };
    match b.eviction() {
        Eviction::None => head.u(0),
        Eviction::DropOldest { capacity } => head.u(1).z(capacity),
        Eviction::MaxStaleness { max_staleness } => head.u(2).u(max_staleness),
    };
    let stats = b.stats();
    head.z(stats.occupancy)
        .u(stats.written)
        .u(stats.sampled)
        .u(stats.evicted);
    let mut plane = StatePlane::new("buffer");
    plane.push_chunk(head.take());
    plane.extend_records(b.iter(), |exp, words| exp.encode_words(words));
    plane
}
