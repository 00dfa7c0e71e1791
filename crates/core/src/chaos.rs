//! The deterministic chaos plane: seeded fault schedules and the lost-work
//! invariant checker (§3.3, §4.3, Figure 15).
//!
//! A chaos run is an ordinary [`crate::LaminarSystem`] run driven by a list
//! of scheduled [`FaultEvent`]s instead of the single-shot fault toggles the
//! figures originally used. Schedules are either hand-written (the
//! regression scenarios) or generated from a seed by [`generate_schedule`],
//! which derives a decorrelated [`SimRng`] stream per seed so the same seed
//! always produces the same fault sequence, byte for byte, at any worker
//! count.
//!
//! After the run, [`ChaosOutcome`] holds an end-of-world snapshot plus the
//! [`ChaosAudit`] the driver filled in while executing, and
//! [`ChaosOutcome::violations`] lists every broken guarantee:
//!
//! * every admitted trajectory completes **exactly once**, or is still
//!   accounted for (partial pool ∪ prompt pool ∪ resident on an engine) —
//!   nothing lost, nothing duplicated;
//! * no trajectory is resident on two replicas at once, and dead replicas
//!   hold no residents;
//! * per-replica weight versions are monotone, and every surviving replica
//!   has reconverged to a version bounded by the relay tier and the actor
//!   (`engine ≤ relay ≤ actor`);
//! * redirects performed during a machine kill never target a replica dying
//!   in the same fault event, and never overcommit the target's KVCache
//!   reservation or roofline batch bound;
//! * every recorded trace span is well-formed (`end ≥ start`).

use laminar_sim::{Duration, SimRng, Time};
use std::collections::{BTreeMap, BTreeSet};

/// One kind of injected failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A rollout machine dies: the listed replicas stop, their in-flight
    /// work is redirected through the partial response pool, and a
    /// replacement machine comes up `recover_after` later.
    ReplicaCrash {
        /// Replicas hosted on the failed machine.
        replicas: Vec<usize>,
        /// Time to allocate a replacement machine and re-initialize
        /// rollouts (≈252 s in §8.5).
        recover_after: Duration,
    },
    /// The trainer worker dies and recovers from the latest checkpoint
    /// (§3.3): version bookkeeping rolls back to the checkpoint, the lost
    /// updates are replayed, and rollouts keep generating throughout.
    TrainerCrash {
        /// Eviction + restart + checkpoint-load time before replay begins.
        recover_after: Duration,
    },
    /// The relay broadcast tier is disrupted: weight versions published
    /// during the outage only become pullable once it ends (already
    /// broadcast versions stay available from the colocated relays).
    RelayOutage {
        /// Outage length.
        duration: Duration,
    },
    /// Straggler onset: one replica's compute slows by `factor` (decode
    /// steps and prefills both stretch) for `duration`.
    SlowNode {
        /// Affected replica.
        replica: usize,
        /// Slowdown multiplier (> 1 is slower).
        factor: f64,
        /// How long the slowdown lasts.
        duration: Duration,
    },
    /// Environment-call timeout: every env call in flight on the replica is
    /// delayed by `extra` before returning.
    EnvStall {
        /// Affected replica.
        replica: usize,
        /// Added latency.
        extra: Duration,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Simulated time at which the fault strikes.
    pub at: Time,
    /// What fails.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A machine crash killing `replicas` at `at`, recovering after
    /// `recover_after` (the old `FaultSpec`).
    pub fn machine_crash(at: Time, replicas: Vec<usize>, recover_after: Duration) -> Self {
        FaultEvent {
            at,
            kind: FaultKind::ReplicaCrash {
                replicas,
                recover_after,
            },
        }
    }

    /// A trainer crash at `at` recovering after `recover_after` (the old
    /// `TrainerFaultSpec`).
    pub fn trainer_crash(at: Time, recover_after: Duration) -> Self {
        FaultEvent {
            at,
            kind: FaultKind::TrainerCrash { recover_after },
        }
    }
}

/// Shape of a generated fault schedule.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Faults to inject.
    pub events: usize,
    /// Faults strike uniformly within `[earliest, horizon]`.
    pub earliest: Time,
    /// Latest fault injection time.
    pub horizon: Time,
    /// Rollout replica count of the run under test (crash victims and
    /// straggler targets are drawn from this range).
    pub replicas: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            events: 4,
            earliest: Time::from_secs(10),
            horizon: Time::from_secs(240),
            replicas: 4,
        }
    }
}

/// Generates a deterministic fault schedule from a seed: same seed, same
/// schedule, independent of everything else the run draws from its RNG.
pub fn generate_schedule(seed: u64, cfg: &ChaosConfig) -> Vec<FaultEvent> {
    let mut rng = SimRng::derive(seed, "chaos-schedule", 0);
    let replicas = cfg.replicas.max(1);
    let mut events = Vec::with_capacity(cfg.events);
    for _ in 0..cfg.events {
        let at = Time::from_secs_f64(rng.range_f64(
            cfg.earliest.as_secs_f64(),
            cfg.horizon.as_secs_f64().max(cfg.earliest.as_secs_f64()),
        ));
        let kind = match rng
            .weighted_index(&[3.0, 2.0, 1.0, 2.0, 2.0])
            .expect("non-empty weights")
        {
            0 => {
                // Kill up to half the fleet in one event, never all of it.
                let max_victims = (replicas / 2).clamp(1, replicas.saturating_sub(1).max(1));
                let count = 1 + rng.index(max_victims);
                let mut ids: Vec<usize> = (0..replicas).collect();
                rng.shuffle(&mut ids);
                let mut victims: Vec<usize> = ids.into_iter().take(count).collect();
                victims.sort_unstable();
                FaultKind::ReplicaCrash {
                    replicas: victims,
                    recover_after: Duration::from_secs(rng.range_u64(20, 120)),
                }
            }
            1 => FaultKind::TrainerCrash {
                recover_after: Duration::from_secs(rng.range_u64(10, 90)),
            },
            2 => FaultKind::RelayOutage {
                duration: Duration::from_secs(rng.range_u64(5, 60)),
            },
            3 => FaultKind::SlowNode {
                replica: rng.index(replicas),
                factor: rng.range_f64(1.5, 4.0),
                duration: Duration::from_secs(rng.range_u64(20, 120)),
            },
            _ => FaultKind::EnvStall {
                replica: rng.index(replicas),
                extra: Duration::from_secs(rng.range_u64(2, 30)),
            },
        };
        events.push(FaultEvent { at, kind });
    }
    events.sort_by_key(|e| e.at);
    events
}

/// The acceptance scenario: ≥ 3 fault kinds overlapping in time — a replica
/// crash strikes while the relay tier is down *and* the trainer is still
/// replaying from its checkpoint, with a straggler and an env stall layered
/// on top.
pub fn overlapping_scenario(replicas: usize) -> Vec<FaultEvent> {
    let r = |i: usize| i % replicas.max(1);
    vec![
        FaultEvent::trainer_crash(Time::from_secs(40), Duration::from_secs(150)),
        FaultEvent {
            at: Time::from_secs(50),
            kind: FaultKind::RelayOutage {
                duration: Duration::from_secs(90),
            },
        },
        FaultEvent::machine_crash(
            Time::from_secs(60),
            vec![r(0), r(1)],
            Duration::from_secs(100),
        ),
        FaultEvent {
            at: Time::from_secs(65),
            kind: FaultKind::SlowNode {
                replica: r(2),
                factor: 3.0,
                duration: Duration::from_secs(60),
            },
        },
        FaultEvent {
            at: Time::from_secs(70),
            kind: FaultKind::EnvStall {
                replica: r(3),
                extra: Duration::from_secs(10),
            },
        },
    ]
}

/// The trajectory ids admitted during a run, ascending and unique.
///
/// Fresh admissions arrive in id order (the prompt pool hands specs out as
/// the dataset numbered them), so an insert appends. A re-admission — a
/// spec returned to the pool by a machine kill — finds its id by binary
/// search and changes nothing, and an id that arrives out of order is
/// inserted in place, so the list stays ascending either way.
#[derive(Debug, Clone, Default)]
pub struct AdmissionLog {
    ids: Vec<u64>,
}

impl AdmissionLog {
    /// Records an admission of `id`; a repeat is a no-op.
    pub fn insert(&mut self, id: u64) {
        match self.ids.last() {
            Some(&last) if id <= last => {
                if let Err(at) = self.ids.binary_search(&id) {
                    self.ids.insert(at, id);
                }
            }
            _ => self.ids.push(id),
        }
    }

    /// Whether `id` was ever admitted.
    pub fn contains(&self, id: u64) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Count of distinct admitted ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True before the first admission.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The admitted ids, ascending.
    pub fn as_slice(&self) -> &[u64] {
        &self.ids
    }
}

/// Bookkeeping the driver fills in while a run executes; the raw material
/// of the invariant checker.
#[derive(Debug, Clone, Default)]
pub struct ChaosAudit {
    /// Every trajectory id ever admitted (handed to a replica).
    pub admitted: AdmissionLog,
    /// Every completion in arrival order, a trajectory completed twice
    /// appearing twice. Append-only, so the checkpoint encoder can page it
    /// without mid-stream shifts.
    pub completion_log: Vec<u64>,
    /// Weight versions set on each replica, in order.
    pub version_history: Vec<Vec<u64>>,
    /// Fault events applied.
    pub faults_applied: u64,
    /// Trajectories redirected to a healthy replica during machine kills.
    pub redirects: u64,
    /// Trajectories returned to the prompt pool during machine kills
    /// (no healthy same-version replica with capacity).
    pub repooled: u64,
    /// Admissions denied because the replica's circuit breaker was open
    /// (work deferred to the post-cooldown probe instead).
    pub breaker_blocked: u64,
    /// Times the driver entered degraded mode.
    pub degraded_entries: u64,
    /// Invariant breaches detected *while* the run executed (redirect onto
    /// a dying replica, capacity overcommit, …).
    pub violations: Vec<String>,
}

impl ChaosAudit {
    /// Records an admission.
    pub fn begin(&mut self, id: u64) {
        self.admitted.insert(id);
    }

    /// Records a completion.
    pub fn complete(&mut self, id: u64) {
        self.completion_log.push(id);
    }

    /// Completion count per trajectory id, counted from the log.
    fn completion_counts(&self) -> BTreeMap<u64, u64> {
        let mut counts = BTreeMap::new();
        for &id in &self.completion_log {
            *counts.entry(id).or_insert(0) += 1;
        }
        counts
    }

    /// Checks the breaker-gating invariant at the moment work is admitted
    /// to replica `r`: no batch may start while the replica's breaker is
    /// open. The driver calls this after its `allow` gate, so a violation
    /// means the gate was bypassed.
    pub fn admission_check(&mut self, r: usize, breaker_open: bool) {
        if breaker_open {
            self.violations.push(format!(
                "batch admitted on replica {r} while its circuit breaker is open"
            ));
        }
    }

    /// Checks the degraded-mode staleness invariant at trainer sampling
    /// time: no sampled experience may exceed the effective cap (the
    /// configured cap, plus the relax allowance only while degraded).
    pub fn staleness_check(&mut self, staleness: u64, bound: u64, degraded: bool) {
        if staleness > bound {
            let mode = if degraded { "degraded" } else { "normal" };
            self.violations.push(format!(
                "sampled staleness {staleness} exceeds the {mode}-mode bound {bound}"
            ));
        }
    }

    /// Records a weight-version change on replica `r`.
    pub fn record_version(&mut self, r: usize, version: u64) {
        if self.version_history.len() <= r {
            self.version_history.resize(r + 1, Vec::new());
        }
        self.version_history[r].push(version);
    }

    /// Records one kill-redirect, checking the in-flight invariants: the
    /// target must be alive, outside the current kill set, and within its
    /// capacity bounds *after* the move.
    #[allow(clippy::too_many_arguments)]
    pub fn redirect(
        &mut self,
        id: u64,
        target: usize,
        victims: &[usize],
        target_alive: bool,
        reserved_after: f64,
        kv_limit: f64,
        reqs_after: usize,
        roofline_b: usize,
    ) {
        self.redirects += 1;
        if victims.contains(&target) {
            self.violations.push(format!(
                "trajectory {id} redirected onto replica {target}, which dies in the same fault event"
            ));
        }
        if !target_alive {
            self.violations.push(format!(
                "trajectory {id} redirected onto dead replica {target}"
            ));
        }
        if reserved_after > kv_limit {
            self.violations.push(format!(
                "redirect of {id} overcommits replica {target} KVCache: {reserved_after:.0} > {kv_limit:.0} tokens"
            ));
        }
        if reqs_after > roofline_b {
            self.violations.push(format!(
                "redirect of {id} overcommits replica {target} batch: {reqs_after} > roofline bound {roofline_b}"
            ));
        }
    }
}

/// End-of-run snapshot handed to the invariant checker.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The audit filled in during the run.
    pub audit: ChaosAudit,
    /// Trajectory ids resident per engine at the end (admitted or waiting).
    pub resident: Vec<Vec<u64>>,
    /// Ids still tracked by the partial response pool.
    pub partial_ids: Vec<u64>,
    /// Ids sitting in the prompt pool.
    pub pool_ids: Vec<u64>,
    /// Liveness per replica.
    pub alive: Vec<bool>,
    /// Weight version per replica engine.
    pub engine_versions: Vec<u64>,
    /// Newest fully broadcast version.
    pub relay_version: u64,
    /// Actor version.
    pub actor_version: u64,
    /// Trace spans with `end < start`, as `(kind, start ns, end ns)`.
    pub malformed_spans: Vec<(String, u64, u64)>,
    /// KVCache tokens still reserved per engine at the end of the run;
    /// dead replicas must hold zero (state fully reclaimed).
    pub kv_reserved: Vec<f64>,
    /// Event-heap entries still pending per engine; dead replicas must
    /// hold zero.
    pub heap_entries: Vec<usize>,
    /// Circuit-breaker trip count per replica.
    pub breaker_trips: Vec<u64>,
    /// Trajectories ended early because an env call exhausted the stall
    /// budget.
    pub env_aborts: u64,
}

impl ChaosOutcome {
    /// Every violated invariant, empty when the run upheld all guarantees.
    pub fn violations(&self) -> Vec<String> {
        let mut v = self.audit.violations.clone();
        let completed = self.audit.completion_counts();
        for (id, n) in &completed {
            if *n != 1 {
                v.push(format!("trajectory {id} completed {n} times"));
            }
            if !self.audit.admitted.contains(*id) {
                v.push(format!("trajectory {id} completed without being admitted"));
            }
        }
        // No lost work: everything admitted is either done or still held
        // somewhere (partials / prompt pool / an engine).
        let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
        for (r, ids) in self.resident.iter().enumerate() {
            if !self.alive[r] && !ids.is_empty() {
                v.push(format!(
                    "dead replica {r} still holds {} trajectories",
                    ids.len()
                ));
            }
            for &id in ids {
                if let Some(prev) = seen.insert(id, r) {
                    v.push(format!(
                        "trajectory {id} resident on replicas {prev} and {r}"
                    ));
                }
            }
        }
        let partials: BTreeSet<u64> = self.partial_ids.iter().copied().collect();
        let pooled: BTreeSet<u64> = self.pool_ids.iter().copied().collect();
        for &id in self.audit.admitted.as_slice() {
            let done = completed.contains_key(&id);
            let held = partials.contains(&id) || pooled.contains(&id) || seen.contains_key(&id);
            if !done && !held {
                v.push(format!(
                    "trajectory {id} lost: admitted, never completed, held nowhere"
                ));
            }
            if done && partials.contains(&id) {
                v.push(format!(
                    "trajectory {id} completed but still in the partial pool"
                ));
            }
        }
        for (r, history) in self.audit.version_history.iter().enumerate() {
            if history.windows(2).any(|w| w[1] < w[0]) {
                v.push(format!(
                    "replica {r} weight versions not monotone: {history:?}"
                ));
            }
        }
        if self.relay_version > self.actor_version {
            v.push(format!(
                "relay version {} ahead of actor version {}",
                self.relay_version, self.actor_version
            ));
        }
        for (r, &ev) in self.engine_versions.iter().enumerate() {
            if self.alive[r] && ev > self.relay_version {
                v.push(format!(
                    "survivor {r} at version {ev} ahead of relay version {}",
                    self.relay_version
                ));
            }
        }
        for (kind, start, end) in &self.malformed_spans {
            v.push(format!("malformed {kind} span: end {end} < start {start}"));
        }
        // Dead-replica reclamation: a machine that is down at the end of
        // the run must have surrendered every resource it held.
        for (r, &alive) in self.alive.iter().enumerate() {
            if alive {
                continue;
            }
            if let Some(&kv) = self.kv_reserved.get(r) {
                if kv > 0.0 {
                    v.push(format!(
                        "dead replica {r} still reserves {kv:.0} KVCache tokens"
                    ));
                }
            }
            if let Some(&n) = self.heap_entries.get(r) {
                if n > 0 {
                    v.push(format!("dead replica {r} still holds {n} heap entries"));
                }
            }
        }
        v
    }

    /// Count of admitted trajectories.
    pub fn admitted(&self) -> usize {
        self.audit.admitted.len()
    }

    /// Count of trajectories completed (exactly-once violations aside).
    pub fn completed(&self) -> usize {
        self.audit.completion_counts().len()
    }
}

// ---------------------------------------------------------------------------
// Fleet-level chaos: faults that strike whole Laminar *cells* behind the
// admission router (`laminar-fleet`), not individual replicas inside one
// cell. The same seeded-schedule / audit / outcome shape as the single-cell
// plane above, one layer up.
// ---------------------------------------------------------------------------

/// One kind of injected fleet-level failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetFaultKind {
    /// A whole cell dies: its in-flight requests are orphaned (the router
    /// must re-dispatch them), its heartbeats stop, and a replacement comes
    /// up `recover_after` later.
    CellCrash {
        /// The failed cell.
        cell: usize,
        /// Time to restart the cell.
        recover_after: Duration,
    },
    /// A cell straggles: every request it serves during the window takes
    /// `factor`× longer. The router should observe the latency signal and
    /// quarantine the cell rather than keep feeding it.
    CellSlow {
        /// Affected cell.
        cell: usize,
        /// Slowdown multiplier (> 1 is slower).
        factor: f64,
        /// How long the slowdown lasts.
        duration: Duration,
    },
    /// The router loses its control-plane link to a set of cells: their
    /// heartbeats stop arriving and no new work can be admitted to them,
    /// but the cells themselves stay up and finish what they hold. The
    /// router must NOT re-dispatch their in-flight work — partition is
    /// suspicion, not death, and re-dispatching would break exactly-once.
    RouterPartition {
        /// Cells cut off from the router.
        cells: Vec<usize>,
        /// How long the partition lasts.
        duration: Duration,
    },
}

/// One scheduled fleet fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultEvent {
    /// Simulated time at which the fault strikes.
    pub at: Time,
    /// What fails.
    pub kind: FleetFaultKind,
}

/// Shape of a generated fleet fault schedule.
#[derive(Debug, Clone)]
pub struct FleetChaosConfig {
    /// Faults to inject.
    pub events: usize,
    /// Faults strike uniformly within `[earliest, horizon]`.
    pub earliest: Time,
    /// Latest fault injection time.
    pub horizon: Time,
    /// Cell count of the fleet under test.
    pub cells: usize,
}

impl Default for FleetChaosConfig {
    fn default() -> Self {
        FleetChaosConfig {
            events: 3,
            earliest: Time::from_secs(60),
            horizon: Time::from_secs(360),
            cells: 4,
        }
    }
}

/// Generates a deterministic fleet fault schedule from a seed, on its own
/// derived stream (decorrelated from both the single-cell chaos stream and
/// the fleet's workload streams).
pub fn generate_fleet_schedule(seed: u64, cfg: &FleetChaosConfig) -> Vec<FleetFaultEvent> {
    let mut rng = SimRng::derive(seed, "fleet-chaos-schedule", 0);
    let cells = cfg.cells.max(1);
    let mut events = Vec::with_capacity(cfg.events);
    for _ in 0..cfg.events {
        let at = Time::from_secs_f64(rng.range_f64(
            cfg.earliest.as_secs_f64(),
            cfg.horizon.as_secs_f64().max(cfg.earliest.as_secs_f64()),
        ));
        let kind = match rng
            .weighted_index(&[3.0, 2.0, 2.0])
            .expect("non-empty weights")
        {
            0 => FleetFaultKind::CellCrash {
                cell: rng.index(cells),
                recover_after: Duration::from_secs(rng.range_u64(40, 160)),
            },
            1 => FleetFaultKind::CellSlow {
                cell: rng.index(cells),
                factor: rng.range_f64(2.0, 5.0),
                duration: Duration::from_secs(rng.range_u64(30, 120)),
            },
            _ => {
                // Partition up to half the fleet, never all of it.
                let max_cut = (cells / 2).clamp(1, cells.saturating_sub(1).max(1));
                let count = 1 + rng.index(max_cut);
                let mut ids: Vec<usize> = (0..cells).collect();
                rng.shuffle(&mut ids);
                let mut cut: Vec<usize> = ids.into_iter().take(count).collect();
                cut.sort_unstable();
                FleetFaultKind::RouterPartition {
                    cells: cut,
                    duration: Duration::from_secs(rng.range_u64(20, 90)),
                }
            }
        };
        events.push(FleetFaultEvent { at, kind });
    }
    events.sort_by_key(|e| e.at);
    events
}

/// The fleet acceptance scenario: a mid-run cell kill (the goodput-dip /
/// MTTR measurement point), a straggler onset on a second cell shortly
/// after (driving the latency-quarantine path), and a router partition of a
/// third cell overlapping both (driving the suspicion-without-re-dispatch
/// path). Needs ≥ 3 cells for the targets to be distinct.
pub fn fleet_overlapping_scenario(cells: usize) -> Vec<FleetFaultEvent> {
    let c = |i: usize| i % cells.max(1);
    vec![
        FleetFaultEvent {
            at: Time::from_secs(120),
            kind: FleetFaultKind::CellCrash {
                cell: c(0),
                recover_after: Duration::from_secs(90),
            },
        },
        FleetFaultEvent {
            at: Time::from_secs(150),
            kind: FleetFaultKind::CellSlow {
                cell: c(1),
                factor: 4.0,
                duration: Duration::from_secs(80),
            },
        },
        FleetFaultEvent {
            at: Time::from_secs(160),
            kind: FleetFaultKind::RouterPartition {
                cells: vec![c(2)],
                duration: Duration::from_secs(60),
            },
        },
    ]
}

/// Bookkeeping the fleet router fills in while a run executes; the raw
/// material of the fleet invariant checker.
#[derive(Debug, Clone, Default)]
pub struct FleetAudit {
    /// Dispatch count per request id (> 1 means the request was
    /// re-dispatched after its cell died).
    pub dispatched: BTreeMap<u64, u64>,
    /// Completion count per request id.
    pub completed: BTreeMap<u64, u64>,
    /// Owning tenant per request id.
    pub tenant_of: BTreeMap<u64, usize>,
    /// Admissions per cell over the whole run.
    pub cell_admissions: Vec<u64>,
    /// Requests re-dispatched after their cell crashed.
    pub redispatched: u64,
    /// Admissions deferred because the tenant's token bucket was empty.
    pub rate_deferred: u64,
    /// Fleet fault events applied.
    pub faults_applied: u64,
    /// Times any cell entered quarantine (breaker trip).
    pub quarantine_entries: u64,
    /// Post-cooldown probe requests admitted to half-open cells.
    pub probes: u64,
    /// Invariant breaches detected *while* the run executed.
    pub violations: Vec<String>,
}

impl FleetAudit {
    /// Records one dispatch of `req` (tenant `tenant`) onto `cell`,
    /// checking the admission-time invariants: the target must not be
    /// quarantined (breaker open), must be believed alive by the router,
    /// and must stay within its concurrency capacity *after* the dispatch.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch(
        &mut self,
        req: u64,
        tenant: usize,
        cell: usize,
        quarantined: bool,
        believed_alive: bool,
        in_flight_after: usize,
        capacity: usize,
    ) {
        *self.dispatched.entry(req).or_insert(0) += 1;
        self.tenant_of.insert(req, tenant);
        if self.cell_admissions.len() <= cell {
            self.cell_admissions.resize(cell + 1, 0);
        }
        self.cell_admissions[cell] += 1;
        if quarantined {
            self.violations.push(format!(
                "request {req} admitted to quarantined cell {cell} (breaker open)"
            ));
        }
        if !believed_alive {
            self.violations.push(format!(
                "request {req} admitted to cell {cell} the router believes dead"
            ));
        }
        if in_flight_after > capacity {
            self.violations.push(format!(
                "dispatch of {req} overcommits cell {cell}: {in_flight_after} in flight > capacity {capacity}"
            ));
        }
    }

    /// Records a completion observed by the router.
    pub fn complete(&mut self, req: u64) {
        *self.completed.entry(req).or_insert(0) += 1;
    }

    /// Distinct requests dispatched at least once.
    pub fn admitted(&self) -> usize {
        self.dispatched.len()
    }
}

/// One measured goodput dip around a cell kill.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputDip {
    /// When the cell died.
    pub fault_at: Time,
    /// Mean fleet goodput (completions/sec) over the window before the
    /// kill.
    pub baseline: f64,
    /// Worst windowed goodput observed after the kill.
    pub trough: f64,
    /// `trough / baseline`, capped at 1 — the fraction of goodput the
    /// surviving cells retained.
    pub retained: f64,
    /// Time from the kill until windowed goodput first recovered to the
    /// recovery threshold; `None` if it never did before the run ended.
    pub mttr: Option<Duration>,
}

/// Minimum per-tenant completion-share margin the fleet checker enforces
/// (share relative to the tenant's weighted fair entitlement, capped by its
/// demand share).
const STARVATION_FLOOR: f64 = 0.5;

/// Minimum goodput retained through any single cell kill.
const MIN_GOODPUT_RETAINED: f64 = 0.3;

/// End-of-run fleet snapshot handed to the invariant checker.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The audit the router filled in during the run.
    pub audit: FleetAudit,
    /// Fairness weight per tenant.
    pub tenant_weights: Vec<f64>,
    /// Requests that arrived per tenant.
    pub tenant_arrivals: Vec<u64>,
    /// Requests completed per tenant.
    pub tenant_completed: Vec<u64>,
    /// Request ids still queued at the router at the end.
    pub backlog: Vec<u64>,
    /// Request ids still in flight per cell at the end.
    pub in_flight: Vec<Vec<u64>>,
    /// Ground-truth liveness per cell at the end.
    pub cell_alive: Vec<bool>,
    /// Breaker-open (quarantined) state per cell at the end.
    pub cell_quarantined: Vec<bool>,
    /// Measured goodput dips, one per applied `CellCrash`.
    pub dips: Vec<GoodputDip>,
}

impl FleetOutcome {
    /// The per-tenant starvation margin: for each tenant with demand, its
    /// completion share divided by its entitlement — the weighted fair
    /// share, capped by the tenant's own demand share (a light tenant that
    /// got everything it asked for is not starved, whatever its weight).
    /// Returns the minimum margin across tenants; 1.0 when nothing
    /// completed fleet-wide.
    pub fn starvation_margin(&self) -> f64 {
        let total_completed: u64 = self.tenant_completed.iter().sum();
        let total_arrivals: u64 = self.tenant_arrivals.iter().sum();
        if total_completed == 0 || total_arrivals == 0 {
            return 1.0;
        }
        let weight_sum: f64 = self
            .tenant_weights
            .iter()
            .zip(&self.tenant_arrivals)
            .filter(|(_, &a)| a > 0)
            .map(|(&w, _)| w)
            .sum();
        if weight_sum <= 0.0 {
            return 1.0;
        }
        let mut margin = f64::INFINITY;
        for (t, &arrived) in self.tenant_arrivals.iter().enumerate() {
            if arrived == 0 {
                continue;
            }
            let fair = self.tenant_weights.get(t).copied().unwrap_or(0.0) / weight_sum;
            let demand = arrived as f64 / total_arrivals as f64;
            let entitlement = fair.min(demand);
            if entitlement <= 0.0 {
                continue;
            }
            let share =
                self.tenant_completed.get(t).copied().unwrap_or(0) as f64 / total_completed as f64;
            margin = margin.min(share / entitlement);
        }
        if margin.is_finite() {
            margin
        } else {
            1.0
        }
    }

    /// The worst goodput retained through any cell kill (1.0 when no cell
    /// was killed).
    pub fn min_goodput_retained(&self) -> f64 {
        self.dips.iter().map(|d| d.retained).fold(1.0f64, f64::min)
    }

    /// Every violated fleet invariant, empty when the run upheld all
    /// guarantees.
    pub fn violations(&self) -> Vec<String> {
        let mut v = self.audit.violations.clone();
        // Exactly-once across re-dispatch: a request may be dispatched many
        // times (once per orphaning crash) but must complete exactly once,
        // or still be held somewhere (router backlog or a cell).
        for (req, n) in &self.audit.completed {
            if *n != 1 {
                v.push(format!(
                    "request {req} completed {n} times across re-dispatch"
                ));
            }
            if !self.audit.dispatched.contains_key(req) {
                v.push(format!("request {req} completed without being dispatched"));
            }
        }
        let backlog: BTreeSet<u64> = self.backlog.iter().copied().collect();
        let mut resident: BTreeMap<u64, usize> = BTreeMap::new();
        for (c, ids) in self.in_flight.iter().enumerate() {
            if !self.cell_alive.get(c).copied().unwrap_or(true) && !ids.is_empty() {
                v.push(format!("dead cell {c} still holds {} requests", ids.len()));
            }
            for &id in ids {
                if let Some(prev) = resident.insert(id, c) {
                    v.push(format!("request {id} in flight on cells {prev} and {c}"));
                }
            }
        }
        for &req in self.audit.dispatched.keys() {
            let done = self.audit.completed.contains_key(&req);
            let held = backlog.contains(&req) || resident.contains_key(&req);
            if !done && !held {
                v.push(format!(
                    "request {req} lost: dispatched, never completed, held nowhere"
                ));
            }
            if done && backlog.contains(&req) {
                v.push(format!("request {req} completed but still in the backlog"));
            }
        }
        // No tenant starvation: completion share must stay above the
        // weighted-fair floor.
        let margin = self.starvation_margin();
        if margin < STARVATION_FLOOR {
            v.push(format!(
                "tenant starvation: completion-share margin {margin:.3} below floor \
                 {STARVATION_FLOOR:.3}"
            ));
        }
        // Bounded goodput dip with measured recovery, per cell kill.
        for d in &self.dips {
            if d.retained < MIN_GOODPUT_RETAINED {
                v.push(format!(
                    "cell kill at {:.0}s dropped goodput to {:.3} of baseline (floor \
                     {MIN_GOODPUT_RETAINED:.3})",
                    d.fault_at.as_secs_f64(),
                    d.retained,
                ));
            }
            if d.mttr.is_none() {
                v.push(format!(
                    "goodput never recovered after the cell kill at {:.0}s (no finite MTTR)",
                    d.fault_at.as_secs_f64()
                ));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cfg = ChaosConfig::default();
        let a = generate_schedule(11, &cfg);
        let b = generate_schedule(11, &cfg);
        let c = generate_schedule(12, &cfg);
        assert_eq!(a, b, "same seed must reproduce the schedule");
        assert_ne!(a, c, "different seeds must decorrelate");
        assert_eq!(a.len(), cfg.events);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
    }

    #[test]
    fn generated_crashes_never_kill_every_replica() {
        let cfg = ChaosConfig {
            events: 64,
            replicas: 3,
            ..ChaosConfig::default()
        };
        for seed in 0..8 {
            for ev in generate_schedule(seed, &cfg) {
                if let FaultKind::ReplicaCrash { replicas, .. } = ev.kind {
                    assert!(!replicas.is_empty());
                    assert!(replicas.len() < cfg.replicas, "must leave a survivor");
                    assert!(replicas.iter().all(|&r| r < cfg.replicas));
                    let mut dedup = replicas.clone();
                    dedup.dedup();
                    assert_eq!(dedup, replicas, "victims sorted and distinct");
                }
            }
        }
    }

    #[test]
    fn overlapping_scenario_has_three_concurrent_fault_kinds() {
        let sched = overlapping_scenario(4);
        // At t=60s the trainer is still recovering (40+150), the relay is
        // still down (50+90), and a machine crash strikes.
        let t = Time::from_secs(60);
        let active = sched
            .iter()
            .filter(|e| {
                let end = match &e.kind {
                    FaultKind::ReplicaCrash { recover_after, .. } => e.at + *recover_after,
                    FaultKind::TrainerCrash { recover_after } => e.at + *recover_after,
                    FaultKind::RelayOutage { duration } => e.at + *duration,
                    FaultKind::SlowNode { duration, .. } => e.at + *duration,
                    FaultKind::EnvStall { extra, .. } => e.at + *extra,
                };
                e.at <= t && end >= t
            })
            .count();
        assert!(active >= 3, "need ≥3 overlapping faults, got {active}");
    }

    #[test]
    fn audit_flags_redirect_onto_victim_and_overcommit() {
        let mut audit = ChaosAudit::default();
        audit.redirect(7, 1, &[0, 1], true, 10.0, 100.0, 1, 8);
        audit.redirect(8, 2, &[0, 1], true, 500.0, 100.0, 9, 8);
        assert_eq!(audit.violations.len(), 3, "{:?}", audit.violations);
        assert!(audit.violations[0].contains("dies in the same fault event"));
        assert!(audit.violations[1].contains("KVCache"));
        assert!(audit.violations[2].contains("roofline"));
    }

    #[test]
    fn admission_log_stays_ascending_and_unique() {
        let mut log = AdmissionLog::default();
        assert!(log.is_empty());
        for id in [4, 5, 9, 5, 2, 9, 7, 2, 10] {
            log.insert(id);
        }
        assert_eq!(log.as_slice(), [2, 4, 5, 7, 9, 10]);
        assert_eq!(log.len(), 6);
        for id in [2, 4, 5, 7, 9, 10] {
            assert!(log.contains(id), "{id}");
        }
        for id in [0, 3, 8, 11] {
            assert!(!log.contains(id), "{id}");
        }
    }

    #[test]
    fn outcome_detects_lost_and_duplicated_work() {
        let mut audit = ChaosAudit::default();
        audit.begin(1);
        audit.begin(2);
        audit.begin(3);
        audit.complete(1);
        audit.complete(1); // duplicated
        audit.complete(2);
        // id 3 admitted, never completed, held nowhere => lost.
        let out = ChaosOutcome {
            audit,
            resident: vec![vec![]],
            partial_ids: vec![],
            pool_ids: vec![],
            alive: vec![true],
            engine_versions: vec![0],
            relay_version: 0,
            actor_version: 0,
            malformed_spans: vec![],
            kv_reserved: vec![0.0],
            heap_entries: vec![0],
            breaker_trips: vec![0],
            env_aborts: 0,
        };
        let v = out.violations();
        assert!(v.iter().any(|m| m.contains("completed 2 times")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("lost")), "{v:?}");
    }

    #[test]
    fn outcome_detects_unreclaimed_dead_replica_state() {
        let out = ChaosOutcome {
            audit: ChaosAudit::default(),
            resident: vec![vec![], vec![]],
            partial_ids: vec![],
            pool_ids: vec![],
            alive: vec![true, false],
            engine_versions: vec![0, 0],
            relay_version: 0,
            actor_version: 0,
            malformed_spans: vec![],
            kv_reserved: vec![512.0, 256.0],
            heap_entries: vec![3, 2],
            breaker_trips: vec![0, 1],
            env_aborts: 0,
        };
        let v = out.violations();
        assert!(
            v.iter().any(|m| m.contains("still reserves 256 KVCache")),
            "{v:?}"
        );
        assert!(
            v.iter().any(|m| m.contains("still holds 2 heap entries")),
            "{v:?}"
        );
        // The live replica's reservations are legitimate.
        assert!(!v.iter().any(|m| m.contains("replica 0")), "{v:?}");
    }

    #[test]
    fn audit_flags_breaker_bypass_and_staleness_excess() {
        let mut audit = ChaosAudit::default();
        audit.admission_check(0, false);
        audit.admission_check(2, true);
        audit.staleness_check(3, 4, false);
        audit.staleness_check(9, 8, true);
        assert_eq!(audit.violations.len(), 2, "{:?}", audit.violations);
        assert!(audit.violations[0].contains("circuit breaker is open"));
        assert!(audit.violations[1].contains("degraded-mode bound 8"));
    }

    #[test]
    fn outcome_detects_version_regression_and_divergence() {
        let mut audit = ChaosAudit::default();
        audit.record_version(0, 3);
        audit.record_version(0, 2); // regression
        let out = ChaosOutcome {
            audit,
            resident: vec![vec![], vec![]],
            partial_ids: vec![],
            pool_ids: vec![],
            alive: vec![true, true],
            engine_versions: vec![2, 9], // replica 1 ahead of the relay
            relay_version: 5,
            actor_version: 4, // relay ahead of the actor
            malformed_spans: vec![],
            kv_reserved: vec![0.0, 0.0],
            heap_entries: vec![0, 0],
            breaker_trips: vec![0, 0],
            env_aborts: 0,
        };
        let v = out.violations();
        assert!(v.iter().any(|m| m.contains("not monotone")), "{v:?}");
        assert!(
            v.iter().any(|m| m.contains("ahead of relay version")),
            "{v:?}"
        );
        assert!(
            v.iter().any(|m| m.contains("ahead of actor version")),
            "{v:?}"
        );
    }

    #[test]
    fn fleet_schedules_are_deterministic_and_bounded() {
        let cfg = FleetChaosConfig::default();
        let a = generate_fleet_schedule(21, &cfg);
        let b = generate_fleet_schedule(21, &cfg);
        let c = generate_fleet_schedule(22, &cfg);
        assert_eq!(a, b, "same seed must reproduce the schedule");
        assert_ne!(a, c, "different seeds must decorrelate");
        assert_eq!(a.len(), cfg.events);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        let cfg = FleetChaosConfig {
            events: 64,
            cells: 3,
            ..FleetChaosConfig::default()
        };
        for seed in 0..8 {
            for ev in generate_fleet_schedule(seed, &cfg) {
                match ev.kind {
                    FleetFaultKind::CellCrash { cell, .. } => assert!(cell < cfg.cells),
                    FleetFaultKind::CellSlow { cell, factor, .. } => {
                        assert!(cell < cfg.cells);
                        assert!(factor > 1.0);
                    }
                    FleetFaultKind::RouterPartition { ref cells, .. } => {
                        assert!(!cells.is_empty());
                        assert!(cells.len() < cfg.cells, "must leave a reachable cell");
                        assert!(cells.iter().all(|&c| c < cfg.cells));
                    }
                }
            }
        }
    }

    #[test]
    fn fleet_scenario_overlaps_three_fault_kinds() {
        let sched = fleet_overlapping_scenario(4);
        let t = Time::from_secs(165);
        let active = sched
            .iter()
            .filter(|e| {
                let end = match &e.kind {
                    FleetFaultKind::CellCrash { recover_after, .. } => e.at + *recover_after,
                    FleetFaultKind::CellSlow { duration, .. } => e.at + *duration,
                    FleetFaultKind::RouterPartition { duration, .. } => e.at + *duration,
                };
                e.at <= t && end >= t
            })
            .count();
        assert!(
            active >= 3,
            "need ≥3 overlapping fleet faults, got {active}"
        );
    }

    #[test]
    fn fleet_audit_flags_quarantine_dead_and_overcommit_admissions() {
        let mut audit = FleetAudit::default();
        audit.dispatch(1, 0, 0, false, true, 3, 8);
        audit.dispatch(2, 0, 1, true, true, 1, 8);
        audit.dispatch(3, 1, 2, false, false, 1, 8);
        audit.dispatch(4, 1, 0, false, true, 9, 8);
        assert_eq!(audit.violations.len(), 3, "{:?}", audit.violations);
        assert!(audit.violations[0].contains("quarantined cell 1"));
        assert!(audit.violations[1].contains("believes dead"));
        assert!(audit.violations[2].contains("overcommits cell 0"));
        assert_eq!(audit.cell_admissions, vec![2, 1, 1]);
    }

    fn clean_fleet_outcome() -> FleetOutcome {
        FleetOutcome {
            audit: FleetAudit::default(),
            tenant_weights: vec![1.0, 1.0],
            tenant_arrivals: vec![10, 10],
            tenant_completed: vec![10, 10],
            backlog: vec![],
            in_flight: vec![vec![], vec![]],
            cell_alive: vec![true, true],
            cell_quarantined: vec![false, false],
            dips: vec![],
        }
    }

    #[test]
    fn fleet_outcome_detects_duplicate_and_lost_requests() {
        let mut out = clean_fleet_outcome();
        out.audit.dispatch(1, 0, 0, false, true, 1, 8);
        out.audit.dispatch(1, 0, 1, false, true, 1, 8); // re-dispatch: fine
        out.audit.complete(1);
        out.audit.complete(1); // duplicated: not fine
        out.audit.dispatch(2, 1, 0, false, true, 1, 8); // never completes, held nowhere
        let v = out.violations();
        assert!(
            v.iter()
                .any(|m| m.contains("completed 2 times across re-dispatch")),
            "{v:?}"
        );
        assert!(v.iter().any(|m| m.contains("request 2 lost")), "{v:?}");

        // The same re-dispatch completing exactly once, with the straggler
        // held in the backlog, is clean.
        let mut out = clean_fleet_outcome();
        out.audit.dispatch(1, 0, 0, false, true, 1, 8);
        out.audit.dispatch(1, 0, 1, false, true, 1, 8);
        out.audit.complete(1);
        out.audit.dispatch(2, 1, 0, false, true, 1, 8);
        out.backlog = vec![2];
        assert_eq!(out.violations(), Vec::<String>::new());
    }

    #[test]
    fn fleet_outcome_detects_dead_cell_residency() {
        let mut out = clean_fleet_outcome();
        out.audit.dispatch(5, 0, 1, false, true, 1, 8);
        out.cell_alive = vec![true, false];
        out.in_flight = vec![vec![], vec![5]];
        let v = out.violations();
        assert!(
            v.iter()
                .any(|m| m.contains("dead cell 1 still holds 1 requests")),
            "{v:?}"
        );
    }

    #[test]
    fn starvation_margin_honors_weights_and_demand() {
        // Tenant 1 starved: equal weights and demand, but 1/10th the share.
        let mut out = clean_fleet_outcome();
        out.tenant_arrivals = vec![100, 100];
        out.tenant_completed = vec![100, 10];
        let m = out.starvation_margin();
        assert!((m - (10.0 / 110.0) / 0.5).abs() < 1e-9, "margin {m}");
        assert!(out
            .violations()
            .iter()
            .any(|v| v.contains("tenant starvation")));

        // A light tenant that got everything it asked for is not starved,
        // even though its share is far below its weighted fair share.
        let mut out = clean_fleet_outcome();
        out.tenant_arrivals = vec![100, 5];
        out.tenant_completed = vec![100, 5];
        assert!(out.starvation_margin() >= 1.0 - 1e-9);
        assert_eq!(out.violations(), Vec::<String>::new());
    }

    #[test]
    fn fleet_outcome_enforces_goodput_dip_bounds() {
        let mut out = clean_fleet_outcome();
        out.dips = vec![GoodputDip {
            fault_at: Time::from_secs(120),
            baseline: 10.0,
            trough: 1.0,
            retained: 0.1,
            mttr: None,
        }];
        let v = out.violations();
        assert!(v.iter().any(|m| m.contains("dropped goodput")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("no finite MTTR")), "{v:?}");
        assert!((out.min_goodput_retained() - 0.1).abs() < 1e-9);

        out.dips = vec![GoodputDip {
            fault_at: Time::from_secs(120),
            baseline: 10.0,
            trough: 7.0,
            retained: 0.7,
            mttr: Some(Duration::from_secs(45)),
        }];
        assert_eq!(out.violations(), Vec::<String>::new());
    }
}
