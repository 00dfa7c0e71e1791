//! The retained naive replica engine: the pre-indexing hot path, kept as a
//! behavioural reference.
//!
//! [`NaiveReplicaEngine`] reproduces the original O(active-trajectories)
//! per-event implementation: `next_internal` rescans every active trajectory
//! for the earliest phase deadline and the minimum tokens remaining, and
//! `apply_progress` eagerly bumps every decoding trajectory's counters at
//! every event. It exists as the oracle of the engine equivalence tests,
//! which assert the indexed [`ReplicaEngine`](super::ReplicaEngine)
//! produces the same trajectory timeline over randomized schedules.
//!
//! It intentionally omits the inspection extras (KV series, trace spans):
//! only the simulation-visible behaviour is reproduced.

use crate::traj::{Phase, TrajState};
use laminar_cluster::DecodeModel;
use laminar_sim::Time;
use laminar_workload::{Segment, TrajectorySpec};
use std::collections::{BTreeMap, VecDeque};

use super::{CompletedTraj, EngineConfig, EPS};

enum Internal {
    PrefillDone(u64),
    EnvReturn(u64),
    SegmentDone,
    Recalc,
}

/// The original full-scan replica engine (see module docs).
#[derive(Debug)]
pub struct NaiveReplicaEngine {
    decode: DecodeModel,
    cfg: EngineConfig,
    kv_capacity: f64,
    weight_version: u64,
    active: BTreeMap<u64, TrajState>,
    waiting: VecDeque<TrajState>,
    reserved: f64,
    last_update: Time,
    step_secs: f64,
    decoding_count: usize,
    decoding_ctx_sum: f64,
    resident_ctx_sum: f64,
    prefill_busy_until: Time,
    completions: Vec<CompletedTraj>,
    tokens_decoded: f64,
    completed_count: u64,
    events_processed: u64,
}

impl NaiveReplicaEngine {
    /// Creates an idle replica.
    pub fn new(decode: DecodeModel, cfg: EngineConfig) -> Self {
        let kv_capacity = decode.kvcache_capacity_tokens() as f64;
        assert!(kv_capacity > 0.0, "model does not fit on this replica");
        NaiveReplicaEngine {
            decode,
            cfg,
            kv_capacity,
            weight_version: 0,
            active: BTreeMap::new(),
            waiting: VecDeque::new(),
            reserved: 0.0,
            last_update: Time::ZERO,
            step_secs: 0.0,
            decoding_count: 0,
            decoding_ctx_sum: 0.0,
            resident_ctx_sum: 0.0,
            prefill_busy_until: Time::ZERO,
            completions: Vec::new(),
            tokens_decoded: 0.0,
            completed_count: 0,
            events_processed: 0,
        }
    }

    /// True when nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.waiting.is_empty()
    }

    /// Total whole tokens decoded so far.
    pub fn tokens_decoded(&self) -> f64 {
        self.tokens_decoded
    }

    /// Trajectories completed so far.
    pub fn completed_count(&self) -> u64 {
        self.completed_count
    }

    /// Internal events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Drains accumulated completion records.
    pub fn take_completions(&mut self) -> Vec<CompletedTraj> {
        std::mem::take(&mut self.completions)
    }

    /// Submits a fresh trajectory.
    pub fn submit(&mut self, spec: TrajectorySpec, now: Time) {
        self.advance_to(now);
        let st = TrajState::new(spec, self.weight_version, now);
        self.waiting.push_back(st);
        self.try_admit(now);
        self.recalc_rate();
    }

    /// Sets the weight version for trajectories submitted from now on.
    pub fn set_weight_version(&mut self, version: u64, now: Time) {
        self.advance_to(now);
        self.weight_version = version;
        for st in self.waiting.iter_mut() {
            if st.total_decoded == 0.0 {
                st.policy_versions.reset(version);
            }
        }
        // A publish is a schedule boundary: progress was just brought up to
        // `now`, so re-sample the decode rate against the grown context —
        // the indexed engine re-evaluates at every boundary, and the
        // timelines only match if the reference does too.
        self.recalc_rate();
    }

    /// Partial-rollout style interruption: every in-flight trajectory adopts
    /// `version` mid-generation, paying a KVCache rebuild before its next
    /// decode step.
    pub fn interrupt_with_weights(&mut self, version: u64, now: Time) {
        self.advance_to(now);
        self.weight_version = version;
        // Sorted like the indexed engine: re-prefill reservations serialize,
        // so the timelines only match if both process ids in the same order.
        let mut ids: Vec<u64> = self.active.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let (phase, ctx, had_tokens) = {
                let st = self.active.get_mut(&id).expect("id from keys");
                if st.total_decoded > 0.0 {
                    st.push_version(version);
                } else {
                    st.policy_versions.reset(version);
                }
                (st.phase, st.context_tokens(), st.total_decoded > 0.0)
            };
            match phase {
                Phase::Decoding => {
                    if had_tokens {
                        self.exit_decoding(id);
                        let until = self.reserve_prefill(ctx.round() as u64, now);
                        self.active.get_mut(&id).expect("resident").phase =
                            Phase::Prefill { until };
                    }
                }
                Phase::Prefill { .. } => {}
                Phase::Env { .. } => {
                    self.active.get_mut(&id).expect("resident").needs_reprefill = true;
                }
            }
        }
        for st in self.waiting.iter_mut() {
            if st.total_decoded == 0.0 {
                st.policy_versions.reset(version);
            } else {
                st.push_version(version);
            }
        }
        self.recalc_rate();
    }

    /// The next instant at which the replica's state changes on its own.
    pub fn next_event_time(&self) -> Option<Time> {
        self.next_internal().map(|(t, _)| t)
    }

    /// Advances the replica's state to `now`, applying every internal
    /// transition in order.
    pub fn advance_to(&mut self, now: Time) {
        let mut guard = 0u64;
        while let Some((t, kind)) = self.next_internal() {
            if t > now {
                break;
            }
            guard += 1;
            assert!(guard < 50_000_000, "replica engine event storm — model bug");
            self.events_processed += 1;
            self.apply_progress(t);
            match kind {
                Internal::PrefillDone(id) => {
                    if let Some(st) = self.active.get_mut(&id) {
                        st.phase = Phase::Decoding;
                        st.decode_started_at = t;
                        let ctx = st.context_tokens();
                        self.decoding_count += 1;
                        self.decoding_ctx_sum += ctx;
                    }
                }
                Internal::EnvReturn(id) => self.env_return(id, t),
                Internal::SegmentDone => self.finish_ready_segments(t),
                Internal::Recalc => {}
            }
            self.try_admit(t);
            self.recalc_rate();
        }
        self.apply_progress(now);
    }

    /// The original O(n) event discovery: full scan of the active set.
    fn next_internal(&self) -> Option<(Time, Internal)> {
        let mut best: Option<(Time, Internal)> = None;
        let mut consider = |t: Time, k: Internal| {
            if best.as_ref().is_none_or(|(bt, _)| t < *bt) {
                best = Some((t, k));
            }
        };
        for (&id, st) in &self.active {
            match st.phase {
                Phase::Prefill { until } => consider(until, Internal::PrefillDone(id)),
                Phase::Env { until } => consider(until, Internal::EnvReturn(id)),
                Phase::Decoding => {}
            }
        }
        if self.decoding_count > 0 && self.step_secs > 0.0 {
            let min_rem = self
                .active
                .values()
                .filter(|s| s.phase == Phase::Decoding)
                .map(|s| s.remaining_in_segment())
                .fold(f64::INFINITY, f64::min);
            if min_rem.is_finite() {
                let t_done = self.offset(min_rem.max(0.0));
                consider(t_done, Internal::SegmentDone);
                let t_recalc = self.offset(self.cfg.horizon_steps);
                consider(t_recalc, Internal::Recalc);
            }
        }
        best
    }

    fn decode_resume_at(&self) -> Time {
        self.last_update.max(self.prefill_busy_until)
    }

    fn offset(&self, steps: f64) -> Time {
        Time::from_secs_f64(self.decode_resume_at().as_secs_f64() + steps * self.step_secs)
    }

    /// The original eager progress accounting: every decoding trajectory's
    /// counters advance at every event.
    fn apply_progress(&mut self, t: Time) {
        if t <= self.last_update {
            return;
        }
        if self.decoding_count > 0 && self.step_secs > 0.0 {
            let start = self.decode_resume_at().min(t);
            let steps = t.since(start).as_secs_f64() / self.step_secs;
            for st in self.active.values_mut() {
                if st.phase == Phase::Decoding {
                    st.decoded_in_segment += steps;
                    st.total_decoded += steps;
                }
            }
            let grown = self.decoding_count as f64 * steps;
            self.decoding_ctx_sum += grown;
            self.resident_ctx_sum += grown;
            self.tokens_decoded += grown;
        }
        self.last_update = t;
    }

    fn recalc_rate(&mut self) {
        self.step_secs = if self.decoding_count > 0 {
            self.decode
                .step_secs(self.decoding_count, self.decoding_ctx_sum)
        } else {
            0.0
        };
    }

    fn reserve_prefill(&mut self, tokens: u64, now: Time) -> Time {
        let start = now.max(self.prefill_busy_until);
        let end = start + self.decode.prefill_time(tokens);
        self.prefill_busy_until = end;
        end
    }

    fn finish_ready_segments(&mut self, t: Time) {
        let ready: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, s)| s.phase == Phase::Decoding && s.remaining_in_segment() <= EPS)
            .map(|(&id, _)| id)
            .collect();
        for id in ready {
            self.exit_decoding(id);
            let st = self.active.get_mut(&id).expect("resident");
            st.phase = Phase::Env { until: t };
            let seg_tokens = st
                .current_decode_tokens()
                .map(|t| t as f64)
                .unwrap_or(st.decoded_in_segment);
            let slack = seg_tokens - st.decoded_in_segment;
            st.total_decoded += slack;
            self.resident_ctx_sum += slack;
            st.decoded_in_segment = 0.0;
            st.segment += 1;
            if st.segment >= st.spec.segments.len() {
                self.complete(id, t);
            } else {
                let st = self.active.get_mut(&id).expect("resident");
                match st.spec.segments[st.segment] {
                    Segment::Env { latency } => {
                        st.phase = Phase::Env { until: t + latency };
                    }
                    Segment::Decode { .. } => {
                        st.phase = Phase::Decoding;
                        st.decode_started_at = t;
                        let ctx = st.context_tokens();
                        self.decoding_count += 1;
                        self.decoding_ctx_sum += ctx;
                    }
                }
            }
        }
    }

    fn env_return(&mut self, id: u64, t: Time) {
        let Some(st) = self.active.get_mut(&id) else {
            return;
        };
        st.segment += 1;
        st.decoded_in_segment = 0.0;
        if st.segment >= st.spec.segments.len() {
            self.complete(id, t);
            return;
        }
        if st.needs_reprefill {
            st.needs_reprefill = false;
            let tokens = st.context_tokens().round() as u64;
            let until = self.reserve_prefill(tokens, t);
            let st = self.active.get_mut(&id).expect("resident");
            st.phase = Phase::Prefill { until };
        } else {
            st.phase = Phase::Decoding;
            st.decode_started_at = t;
            let ctx = st.context_tokens();
            self.decoding_count += 1;
            self.decoding_ctx_sum += ctx;
        }
    }

    fn complete(&mut self, id: u64, t: Time) {
        let mut sink = Vec::with_capacity(1);
        self.remove_active(id, &mut sink);
        let st = sink.pop().expect("just removed");
        self.completions.push(CompletedTraj {
            spec: st.spec,
            policy_versions: st.policy_versions,
            started_at: st.started_at,
            finished_at: t,
        });
        self.completed_count += 1;
    }

    fn remove_active(&mut self, id: u64, out: &mut Vec<TrajState>) {
        if let Some(st) = self.active.get(&id) {
            if st.phase == Phase::Decoding {
                self.exit_decoding(id);
            }
        }
        if let Some(st) = self.active.remove(&id) {
            self.reserved -= st.spec.final_context() as f64;
            self.resident_ctx_sum -= st.context_tokens();
            if self.active.is_empty() {
                self.reserved = 0.0;
                self.resident_ctx_sum = 0.0;
                self.decoding_ctx_sum = 0.0;
            }
            out.push(st);
        }
    }

    fn exit_decoding(&mut self, id: u64) {
        if let Some(st) = self.active.get(&id) {
            if st.phase == Phase::Decoding {
                self.decoding_count -= 1;
                self.decoding_ctx_sum -= st.context_tokens();
            }
        }
    }

    fn try_admit(&mut self, now: Time) {
        while let Some(front) = self.waiting.front() {
            let need = front.spec.final_context() as f64;
            let fits = self.active.len() < self.cfg.max_concurrency
                && self.reserved + need <= self.kv_capacity;
            if !fits {
                break;
            }
            let mut st = self.waiting.pop_front().expect("front exists");
            self.reserved += need;
            self.resident_ctx_sum += st.context_tokens();
            let keep_env = matches!(st.phase, Phase::Env { until } if until > now);
            if !keep_env {
                if matches!(st.spec.segments.get(st.segment), Some(Segment::Env { .. })) {
                    st.segment += 1;
                    st.decoded_in_segment = 0.0;
                }
                let tokens = st.context_tokens().round() as u64;
                let until = self.reserve_prefill(tokens, now);
                st.phase = Phase::Prefill { until };
            }
            let id = st.spec.id;
            let prev = self.active.insert(id, st);
            assert!(prev.is_none(), "duplicate trajectory id {id} on replica");
        }
    }
}
