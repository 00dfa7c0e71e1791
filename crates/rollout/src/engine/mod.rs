//! The rollout replica engine: continuous-batching generation in virtual
//! time.
//!
//! The engine is a deterministic state machine embedded in a larger
//! simulation world. All active sequences advance one token per decode step
//! (lockstep continuous batching), with the step latency given by the
//! roofline model at the current batch size and context total. Between
//! internal events the decode rate is held constant and re-evaluated at
//! every event plus a bounded step horizon, so rate drift from growing
//! KVCache is tracked closely.
//!
//! Admission reserves a trajectory's final context length against KVCache
//! capacity (the simulator knows final lengths, so reservation-based
//! admission replaces vLLM's watermark-plus-preemption scheme with
//! equivalent steady-state behaviour and no preemption churn). The
//! *utilization* metric reported to the rollout manager is actual resident
//! context, which reproduces the ramp-up / steady / ramp-down lifecycle of
//! Figure 9.
//!
//! The implementation is split along its natural seams:
//!
//! * [`mod@self`] — the engine struct, configuration, and inspection surface;
//! * `lifecycle` — the trajectory state machine: admission, submission,
//!   interrupts, drains/injects (repack moves), segment and env transitions;
//! * `stepper` — the batch step loop: internal event discovery, virtual
//!   time advancement, decode-rate re-evaluation, and KVCache accounting.

mod lifecycle;
pub mod reference;
mod slab;
mod stepper;
#[cfg(test)]
mod tests;

use crate::traj::{Phase, TrajState};
use laminar_cluster::DecodeModel;
use laminar_sim::trace::{SpanKind, TraceSpan};
use laminar_sim::{Time, TimeSeries, TimeWeighted};
use laminar_workload::{PolicyVersions, TrajectorySpec};
use slab::TrajSlab;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Completion record handed to the enclosing world.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTraj {
    /// The finished assignment.
    pub spec: TrajectorySpec,
    /// Weight versions used across generation, oldest first.
    pub policy_versions: PolicyVersions,
    /// When generation first started.
    pub started_at: Time,
    /// When the final token was produced.
    pub finished_at: Time,
}

impl CompletedTraj {
    /// Appends the record's canonical checkpoint encoding (one completion =
    /// one delta-checkpoint chunk in the undrained-completions plane).
    pub fn encode_words(&self, out: &mut Vec<u64>) {
        self.spec.encode_words(out);
        out.push(self.policy_versions.len() as u64);
        out.extend(self.policy_versions.iter());
        out.push(self.started_at.as_nanos());
        out.push(self.finished_at.as_nanos());
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum concurrent trajectories resident (1024 in the paper's
    /// throughput runs, 256 in convergence runs).
    pub max_concurrency: usize,
    /// Decode steps between forced rate re-evaluations.
    pub horizon_steps: f64,
    /// Record the KVCache-utilization time series (Figure 9).
    pub record_kv_series: bool,
    /// Record per-phase trace spans (prefill / decode segment / env call),
    /// drained via [`ReplicaEngine::take_trace_spans`].
    pub record_trace: bool,
    /// Env-call stall budget: the maximum cumulative extra delay an
    /// in-flight environment call may absorb from `EnvStall` faults before
    /// the call is abandoned and the trajectory completes early (derived
    /// from a `RetryPolicy`'s total backoff budget by the driver). `None`
    /// preserves the historical unbounded behaviour.
    pub env_stall_budget: Option<laminar_sim::Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_concurrency: 1024,
            horizon_steps: 128.0,
            record_kv_series: false,
            record_trace: false,
            env_stall_budget: None,
        }
    }
}

/// Tokens-remaining comparison tolerance. Event times are rounded to whole
/// nanoseconds, so a segment's computed completion instant can under-shoot
/// the exact token count by up to `1 ns / step_secs` tokens; 1e-3 tokens is
/// comfortably above that for any realistic step latency.
const EPS: f64 = 1e-3;

/// Internal engine transitions discovered by the stepper.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Internal {
    PrefillDone(u64),
    EnvReturn(u64),
    SegmentDone,
    Recalc,
}

/// Entry in the phase-deadline heap: a prefill completion or environment
/// return scheduled for `at`. Ordered by `(at, id)` so ties resolve to the
/// lowest trajectory id, matching the order a full scan of the id-sorted
/// active map would discover them in. Entries are invalidated lazily: one is
/// live only while `active[id].phase` still carries exactly this deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PhaseEntry {
    at: Time,
    id: u64,
}

/// Entry in the segment-completion heap, keyed by the value of the engine's
/// global decode-step accumulator at which the trajectory's current decode
/// segment runs out of tokens. All decoding trajectories advance in lockstep,
/// so this key is fixed when a trajectory enters [`Phase::Decoding`] and the
/// heap needs no updates while the batch decodes. Stale entries (the
/// trajectory left the decoding phase, or re-entered it with a new key) are
/// detected by comparing against [`TrajState::finish_key`].
#[derive(Debug, Clone, Copy)]
struct SegEntry {
    key: f64,
    id: u64,
}

impl PartialEq for SegEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key.total_cmp(&other.key).is_eq() && self.id == other.id
    }
}
impl Eq for SegEntry {}
impl PartialOrd for SegEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SegEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .total_cmp(&other.key)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// Folds `global_steps - steps_baseline` decode steps into a decoding
/// trajectory's materialized token counts and re-baselines it. Safe to call
/// at any point while the trajectory decodes: the finish key is invariant
/// under re-baselining (the remaining tokens shrink by exactly the amount
/// the baseline advances).
pub(crate) fn materialize(st: &mut TrajState, global_steps: f64) {
    let delta = global_steps - st.steps_baseline;
    if delta != 0.0 {
        st.decoded_in_segment += delta;
        st.total_decoded += delta;
    }
    st.steps_baseline = global_steps;
}

/// One rollout replica.
///
/// `Clone` snapshots the complete engine — heaps, resident trajectories,
/// lazy accumulators, buffered spans — which is what the checkpoint/restore
/// plane relies on; the heap clones copy backing storage verbatim so pop
/// order survives the round trip.
#[derive(Debug, Clone)]
pub struct ReplicaEngine {
    /// Replica id within the system.
    pub id: usize,
    decode: DecodeModel,
    cfg: EngineConfig,
    kv_capacity: f64,
    weight_version: u64,
    /// Resident trajectories: slab slots + free list + id-to-slot map, so
    /// steady-state admission/completion churn allocates nothing and every
    /// id resolves in O(1).
    active: TrajSlab,
    waiting: VecDeque<TrajState>,
    reserved: f64,
    last_update: Time,
    step_secs: f64,
    decoding_count: usize,
    decoding_ctx_sum: f64,
    resident_ctx_sum: f64,
    /// Prefill is compute-bound and serializes on the replica: the next
    /// prefill cannot start before this instant.
    prefill_busy_until: Time,
    completions: Vec<CompletedTraj>,
    kv_series: TimeSeries,
    busy: TimeWeighted,
    kv_tw: TimeWeighted,
    tokens_decoded: f64,
    completed_count: u64,
    epoch: u64,
    trace_spans: Vec<TraceSpan>,
    /// Global decode-step accumulator: total lockstep decode steps applied
    /// since the last quiesce point. Per-trajectory decoded counts are
    /// materialized lazily from this via [`TrajState::steps_baseline`],
    /// making [`ReplicaEngine::apply_progress`] O(1) per event.
    global_steps: f64,
    /// Pending prefill-completion / env-return deadlines with lazy
    /// invalidation (min-heap over `(time, id)`).
    phase_heap: BinaryHeap<Reverse<PhaseEntry>>,
    /// Pending segment completions keyed by the `global_steps` value at which
    /// each decoding trajectory exhausts its segment (min-heap, lazily
    /// invalidated via [`TrajState::finish_key`]).
    seg_heap: BinaryHeap<Reverse<SegEntry>>,
    /// The next internal transition and its instant: the earliest of the
    /// live heap tops and the forced rate re-evaluation, cached by
    /// [`ReplicaEngine::refresh_next`] whenever an input of discovery moves.
    next: Option<(Time, Internal)>,
    events_processed: u64,
    /// Straggler multiplier: decode steps and prefills take `perf_factor ×`
    /// their modeled time. 1.0 (the default) is exact full speed.
    perf_factor: f64,
    /// Trajectories completed early because an env call exhausted the
    /// stall budget ([`EngineConfig::env_stall_budget`]).
    env_aborts: u64,
    /// Reusable id buffer for iterate-and-mutate passes over the active set
    /// (interrupts, drains, env-delay fan-out). Always empty between calls.
    scratch_ids: Vec<u64>,
    /// Reusable buffer of segment-completion candidates popped per
    /// `finish_ready_segments` call. Always empty between calls.
    scratch_ready: Vec<u64>,
}

impl ReplicaEngine {
    /// Creates an idle replica.
    pub fn new(id: usize, decode: DecodeModel, cfg: EngineConfig) -> Self {
        let kv_capacity = decode.kvcache_capacity_tokens() as f64;
        assert!(
            kv_capacity > 0.0,
            "model does not fit on this replica (no KVCache room)"
        );
        ReplicaEngine {
            id,
            decode,
            cfg,
            kv_capacity,
            weight_version: 0,
            active: TrajSlab::new(),
            waiting: VecDeque::new(),
            reserved: 0.0,
            prefill_busy_until: Time::ZERO,
            last_update: Time::ZERO,
            step_secs: 0.0,
            decoding_count: 0,
            decoding_ctx_sum: 0.0,
            resident_ctx_sum: 0.0,
            completions: Vec::new(),
            kv_series: TimeSeries::new(),
            busy: TimeWeighted::new(),
            kv_tw: TimeWeighted::new(),
            tokens_decoded: 0.0,
            completed_count: 0,
            epoch: 0,
            trace_spans: Vec::new(),
            global_steps: 0.0,
            phase_heap: BinaryHeap::new(),
            seg_heap: BinaryHeap::new(),
            next: None,
            events_processed: 0,
            perf_factor: 1.0,
            env_aborts: 0,
            scratch_ids: Vec::new(),
            scratch_ready: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// Weight version used for newly started trajectories.
    pub fn weight_version(&self) -> u64 {
        self.weight_version
    }

    /// Trajectories resident on the replica (all phases).
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Trajectories admitted but not yet resident.
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    /// Total in-flight request count (`N_reqs` of Algorithm 1).
    pub fn n_reqs(&self) -> usize {
        self.active.len() + self.waiting.len()
    }

    /// True when nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.waiting.is_empty()
    }

    /// Actual resident KVCache, tokens (`C_used` of Algorithm 1).
    pub fn kv_used_tokens(&self) -> f64 {
        self.resident_ctx_sum
    }

    /// KVCache reserved by admissions, tokens.
    pub fn kv_reserved_tokens(&self) -> f64 {
        self.reserved
    }

    /// KVCache capacity, tokens.
    pub fn kv_capacity_tokens(&self) -> f64 {
        self.kv_capacity
    }

    /// Actual KVCache utilization in `[0, 1]`.
    pub fn kv_utilization(&self) -> f64 {
        self.resident_ctx_sum / self.kv_capacity
    }

    /// The roofline batch bound `B` for this replica.
    pub fn roofline_batch_limit(&self) -> usize {
        self.decode.roofline_batch_limit()
    }

    /// Monotone state-change counter; wake events older than the epoch they
    /// were scheduled under can be ignored by the world.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total whole tokens decoded so far.
    pub fn tokens_decoded(&self) -> f64 {
        self.tokens_decoded
    }

    /// Trajectories completed so far.
    pub fn completed_count(&self) -> u64 {
        self.completed_count
    }

    /// KVCache-utilization time series, when recording is enabled.
    pub fn kv_series(&self) -> &TimeSeries {
        &self.kv_series
    }

    /// Time-weighted mean of the decoding batch size so far.
    pub fn mean_decode_batch(&self) -> f64 {
        self.busy.mean()
    }

    /// Time-weighted mean KVCache utilization so far.
    pub fn mean_kv_utilization(&self) -> f64 {
        self.kv_tw.mean()
    }

    /// Drains accumulated completion records.
    pub fn take_completions(&mut self) -> Vec<CompletedTraj> {
        std::mem::take(&mut self.completions)
    }

    /// Swaps the accumulated completion records into `buf` and hands the
    /// engine `buf`'s storage in exchange — the allocation-free
    /// counterpart of [`ReplicaEngine::take_completions`]: a caller that
    /// drains `buf` and swaps it back in on the next delivery keeps both
    /// buffers' capacity, so completing a trajectory allocates nothing.
    ///
    /// # Panics
    /// Panics if `buf` is not empty: its records would go back into the
    /// engine and be delivered twice.
    pub fn swap_completions(&mut self, buf: &mut Vec<CompletedTraj>) {
        assert!(
            buf.is_empty(),
            "swap_completions needs an empty buffer, got {} undelivered completions",
            buf.len()
        );
        std::mem::swap(&mut self.completions, buf);
    }

    /// Drains accumulated trace spans (empty unless
    /// [`EngineConfig::record_trace`] is set).
    pub fn take_trace_spans(&mut self) -> Vec<TraceSpan> {
        std::mem::take(&mut self.trace_spans)
    }

    /// Internal engine events processed so far (prefill completions, env
    /// returns, segment completions, rate re-evaluations). The denominator
    /// of the per-event cost and allocation metrics.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Current straggler multiplier (1.0 = full speed).
    pub fn perf_factor(&self) -> f64 {
        self.perf_factor
    }

    /// Trajectories completed early because an env call exhausted the
    /// stall budget.
    pub fn env_aborts(&self) -> u64 {
        self.env_aborts
    }

    /// Entries currently sitting in the internal event heaps (live or
    /// lazily invalidated). A drained replica holds zero — the reclamation
    /// soak test asserts this for dead replicas.
    pub fn pending_heap_entries(&self) -> usize {
        self.phase_heap.len() + self.seg_heap.len()
    }

    /// Ids of every trajectory the replica currently holds — resident
    /// (any phase) or admitted-but-waiting — in ascending order.
    pub fn resident_ids(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.active.values().map(|st| st.spec.id).collect();
        out.extend(self.waiting.iter().map(|st| st.spec.id));
        out.sort_unstable();
        out
    }

    /// Visits every resident trajectory's progress as
    /// `(id, whole tokens decoded, current segment)` — the stream to the
    /// partial response pool. Visits in storage order, so `visit` must not
    /// depend on order (the pool's per-id updates commute).
    pub fn for_each_in_progress(&self, mut visit: impl FnMut(u64, u64, usize)) {
        for st in self.active.values() {
            // Decoding trajectories hold lazily-accounted progress; fold in
            // the pending global steps without mutating the state.
            let pending = if st.phase == Phase::Decoding {
                self.global_steps - st.steps_baseline
            } else {
                0.0
            };
            visit(
                st.spec.id,
                (st.total_decoded + pending).floor() as u64,
                st.segment,
            );
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint plane
    // ------------------------------------------------------------------

    /// Resident trajectories in ascending id order — the per-trajectory
    /// chunk source for delta checkpoints.
    pub fn active_states(&self) -> impl Iterator<Item = (u64, &TrajState)> + '_ {
        self.active.iter()
    }

    /// Admitted-but-waiting trajectories in queue order.
    pub fn waiting_states(&self) -> impl Iterator<Item = &TrajState> + '_ {
        self.waiting.iter()
    }

    /// Buffered trace spans, without draining them — the checkpoint encoder
    /// reads the append-only stream in place.
    pub fn trace_spans(&self) -> &[TraceSpan] {
        &self.trace_spans
    }

    /// Undrained completion records, without draining them.
    pub fn completions(&self) -> &[CompletedTraj] {
        &self.completions
    }

    /// Appends the engine's scalar state — everything outside the
    /// per-trajectory chunks, the span stream, and the completion buffer —
    /// as a fixed-order word stream for the delta-checkpoint scalar chunk.
    /// The event heaps contribute nothing: their live entries are derived
    /// from trajectory phases, and their stale entries are ones a rebuild
    /// would drop. The two time-weighted accumulators and the KV series are
    /// carried in full.
    pub fn checkpoint_scalar_words(&self, out: &mut Vec<u64>) {
        out.push(self.id as u64);
        out.push(self.weight_version);
        out.push(self.reserved.to_bits());
        out.push(self.last_update.as_nanos());
        out.push(self.step_secs.to_bits());
        out.push(self.decoding_count as u64);
        out.push(self.decoding_ctx_sum.to_bits());
        out.push(self.resident_ctx_sum.to_bits());
        out.push(self.prefill_busy_until.as_nanos());
        out.push(self.tokens_decoded.to_bits());
        out.push(self.completed_count);
        out.push(self.epoch);
        out.push(self.global_steps.to_bits());
        out.push(self.events_processed);
        out.push(self.perf_factor.to_bits());
        out.push(self.env_aborts);
        self.busy.state_words(out);
        self.kv_tw.state_words(out);
        out.push(self.kv_series.len() as u64);
        for &(t, v) in self.kv_series.points() {
            out.push(t.as_nanos());
            out.push(v.to_bits());
        }
        out.push(self.waiting.len() as u64);
        out.push(self.active.len() as u64);
    }

    // ------------------------------------------------------------------
    // Indexed next-event bookkeeping
    // ------------------------------------------------------------------

    /// Schedules a phase deadline (prefill completion or env return) for a
    /// resident trajectory. The entry self-invalidates once the trajectory's
    /// phase no longer carries exactly this deadline.
    pub(super) fn push_phase_deadline(&mut self, id: u64, at: Time) {
        self.phase_heap.push(Reverse(PhaseEntry { at, id }));
    }

    /// The transition a phase-heap entry stands for, or `None` when stale.
    fn phase_entry_event(&self, e: PhaseEntry) -> Option<Internal> {
        match self.active.get(e.id)?.phase {
            Phase::Prefill { until } if until == e.at => Some(Internal::PrefillDone(e.id)),
            Phase::Env { until } if until == e.at => Some(Internal::EnvReturn(e.id)),
            _ => None,
        }
    }

    /// True while a segment-heap entry still describes its trajectory.
    fn seg_entry_live(&self, e: SegEntry) -> bool {
        self.active.get(e.id).is_some_and(|st| {
            st.phase == Phase::Decoding && st.finish_key.total_cmp(&e.key).is_eq()
        })
    }

    /// Pops lazily-invalidated entries off both heap tops, restoring the
    /// live-top invariant, and returns the live phase-heap top's deadline
    /// with the transition it stands for. Each examined entry costs one
    /// slab lookup. Amortized O(log n) per transition since each pushed
    /// entry is popped at most once.
    fn prune_event_tops(&mut self) -> Option<(Time, Internal)> {
        let mut phase_top = None;
        while let Some(&Reverse(e)) = self.phase_heap.peek() {
            phase_top = self.phase_entry_event(e).map(|kind| (e.at, kind));
            if phase_top.is_some() {
                break;
            }
            self.phase_heap.pop();
        }
        while let Some(&Reverse(e)) = self.seg_heap.peek() {
            if self.seg_entry_live(e) {
                break;
            }
            self.seg_heap.pop();
        }
        phase_top
    }

    /// Whether both heap tops are live — what every `&mut self` exit leaves
    /// behind. Checked by debug assertions and tests only: it looks each top
    /// up again.
    fn event_tops_live(&self) -> bool {
        self.phase_heap
            .peek()
            .is_none_or(|&Reverse(e)| self.phase_entry_event(e).is_some())
            && self
                .seg_heap
                .peek()
                .is_none_or(|&Reverse(e)| self.seg_entry_live(e))
    }

    /// Moves a resident trajectory into [`Phase::Decoding`] at `now`,
    /// baselining its lazy progress and indexing its segment completion.
    pub(super) fn enter_decoding(&mut self, id: u64, now: Time) {
        let global = self.global_steps;
        let Some(st) = self.active.get_mut(id) else {
            return;
        };
        st.phase = Phase::Decoding;
        st.decode_started_at = now;
        st.steps_baseline = global;
        let key = global + st.remaining_in_segment();
        st.finish_key = key;
        let ctx = st.context_tokens();
        self.decoding_count += 1;
        self.decoding_ctx_sum += ctx;
        self.seg_heap.push(Reverse(SegEntry { key, id }));
    }

    /// Records a span when tracing is enabled.
    pub(crate) fn trace(
        &mut self,
        kind: SpanKind,
        start: Time,
        end: Time,
        version: u64,
        tokens: u64,
    ) {
        if self.cfg.record_trace {
            self.trace_spans
                .push(TraceSpan::new(kind, start, end, Some(self.id), version).with_tokens(tokens));
        }
    }
}

/// Current policy version of an in-flight trajectory (the last recorded one).
fn traj_version(st: &TrajState) -> u64 {
    st.policy_versions.last()
}
