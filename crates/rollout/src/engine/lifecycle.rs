//! The trajectory state machine: admission, submission, interrupts, moves,
//! and the segment / environment-call transitions.

use super::{materialize, traj_version, CompletedTraj, ReplicaEngine, EPS};
use crate::traj::{Phase, TrajState};
use laminar_sim::trace::SpanKind;
use laminar_sim::Time;
use laminar_workload::Segment;

impl ReplicaEngine {
    /// Submits a fresh trajectory; it starts under the replica's current
    /// weight version once admitted.
    pub fn submit(&mut self, spec: laminar_workload::TrajectorySpec, now: Time) {
        self.advance_to(now);
        let st = TrajState::new(spec, self.weight_version, now);
        self.waiting.push_back(st);
        self.try_admit(now);
        self.after_change(now);
    }

    /// Sets the weight version for trajectories submitted from now on.
    /// In Laminar this is called only when the replica is between batches
    /// (or just released by a repack), so in-flight work keeps a single
    /// consistent version.
    pub fn set_weight_version(&mut self, version: u64, now: Time) {
        self.advance_to(now);
        self.weight_version = version;
        // Trajectories that have not generated any token yet can adopt the
        // new version for free.
        for st in self.waiting.iter_mut() {
            if st.total_decoded == 0.0 {
                st.policy_versions.reset(version);
            }
        }
        self.after_change(now);
    }

    /// Blocks the replica's prefill pipeline until `until` — models the
    /// GPU-direct weight-synchronization window during which rollout
    /// compute is stalled by the collective (§2.4 challenge 1). Combined
    /// with [`Self::interrupt_with_weights`] this makes an interrupt-all
    /// update pay sync + serialized KVCache rebuild, as partial-rollout
    /// systems do.
    pub fn stall_prefill_queue(&mut self, until: Time) {
        self.prefill_busy_until = self.prefill_busy_until.max(until);
        // The busy horizon is where paused decoding resumes, so the cached
        // next transition moves with it.
        self.refresh_next();
    }

    /// Partial-rollout style interruption (§2.3, Figure 3(d)): every
    /// in-flight trajectory adopts `version` mid-generation, paying a
    /// KVCache rebuild (re-prefill of its full current context) before its
    /// next decode step. Mixed-version contamination is recorded in
    /// `policy_versions`.
    pub fn interrupt_with_weights(&mut self, version: u64, now: Time) {
        self.advance_to(now);
        self.weight_version = version;
        // Id order: the re-prefill reservations below serialize on the
        // prefill pipeline, so processing order is timeline-visible —
        // `ids_into` sorts ascending, matching the old sorted-map scan. The
        // id snapshot goes through the reusable scratch buffer so the pass
        // allocates nothing at steady state.
        let mut ids = std::mem::take(&mut self.scratch_ids);
        self.active.ids_into(&mut ids);
        for &id in &ids {
            let (phase, ctx, had_tokens) = {
                let global = self.global_steps;
                let st = self.active.get_mut(id).expect("id from index");
                // Decoding trajectories carry lazily-accounted progress;
                // settle it before inspecting the token counts.
                if st.phase == Phase::Decoding {
                    materialize(st, global);
                }
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
                        let until = self.reserve_prefill(ctx.round() as u64, now, version);
                        self.active.get_mut(id).expect("resident").phase = Phase::Prefill { until };
                        self.push_phase_deadline(id, until);
                    }
                }
                Phase::Prefill { .. } => {}
                Phase::Env { .. } => {
                    self.active.get_mut(id).expect("resident").needs_reprefill = true;
                }
            }
        }
        ids.clear();
        self.scratch_ids = ids;
        for st in self.waiting.iter_mut() {
            if st.total_decoded == 0.0 {
                st.policy_versions.reset(version);
            } else {
                st.push_version(version);
            }
        }
        self.after_change(now);
    }

    /// Removes every in-flight trajectory (repack source release, or machine
    /// failure drain). Progress is preserved in the returned states.
    pub fn drain_in_progress(&mut self, now: Time) -> Vec<TrajState> {
        self.advance_to(now);
        let mut out: Vec<TrajState> = Vec::with_capacity(self.n_reqs());
        // Id order: the drained states are re-injected elsewhere in this
        // order, so admission (and thus the whole downstream timeline) must
        // not depend on storage order. `ids_into` sorts ascending.
        let mut ids = std::mem::take(&mut self.scratch_ids);
        self.active.ids_into(&mut ids);
        for &id in &ids {
            self.remove_active(id, &mut out);
        }
        ids.clear();
        self.scratch_ids = ids;
        out.extend(self.waiting.drain(..));
        debug_assert!(self.active.is_empty());
        self.after_change(now);
        out
    }

    /// Receives in-progress trajectories from a repack move. They re-enter
    /// the admission queue; trajectories with generated tokens pay a
    /// re-prefill of their current context on admission (the repack
    /// overhead measured in Table 1).
    pub fn inject(&mut self, states: Vec<TrajState>, now: Time) {
        self.advance_to(now);
        for mut st in states {
            if st.total_decoded > 0.0 {
                st.needs_reprefill = true;
            }
            self.waiting.push_back(st);
        }
        self.try_admit(now);
        self.after_change(now);
    }

    /// Reserves a prefill slot of `tokens` context starting no earlier than
    /// `now`; returns when that prefill finishes. Prefill compute is
    /// serialized per replica (it saturates the GPU), so concurrent
    /// re-prefills — e.g. a partial-rollout interrupt rebuilding every
    /// KVCache — queue up rather than overlapping for free.
    pub(super) fn reserve_prefill(&mut self, tokens: u64, now: Time, version: u64) -> Time {
        let start = now.max(self.prefill_busy_until);
        let end = start + self.decode.prefill_time(tokens).mul_f64(self.perf_factor);
        self.prefill_busy_until = end;
        self.trace(SpanKind::Prefill, start, end, version, tokens);
        end
    }

    /// Sets the straggler multiplier: decode steps and prefills take
    /// `factor ×` their modeled time from `now` on. `1.0` restores exact
    /// full speed (the ×1.0 path multiplies by exactly 1, so an engine that
    /// never saw a fault is bit-identical to one that never had the knob).
    pub fn set_perf_factor(&mut self, factor: f64, now: Time) {
        self.advance_to(now);
        self.perf_factor = factor.max(1e-6);
        self.after_change(now);
    }

    /// Delays every environment call currently in flight by `extra` —
    /// an env-call timeout fault. Returns how many calls were delayed.
    ///
    /// When [`super::EngineConfig::env_stall_budget`] is set, each call
    /// absorbs delay only up to the budget: the portion beyond it is
    /// dropped, the trajectory is marked aborted, and it completes early at
    /// its (no longer receding) return deadline instead of wedging the
    /// batch forever.
    pub fn delay_env_returns(&mut self, extra: laminar_sim::Duration, now: Time) -> u64 {
        self.advance_to(now);
        let budget = self.cfg.env_stall_budget;
        let capped = |st: &mut TrajState| {
            let applied = match budget {
                Some(b) => {
                    let remaining = b.saturating_sub(st.env_stalled);
                    if extra > remaining {
                        st.aborted = true;
                    }
                    extra.min(remaining)
                }
                None => extra,
            };
            st.env_stalled += applied;
            applied
        };
        let mut delayed = 0;
        // Ascending id order, so the pushed deadlines (and the resulting
        // timeline) do not depend on storage order.
        let mut ids = std::mem::take(&mut self.scratch_ids);
        self.active.ids_into(&mut ids);
        for &id in &ids {
            let st = self.active.get_mut(id).expect("id from index");
            if let Phase::Env { until } = st.phase {
                let new_until = until.max(now) + capped(st);
                st.phase = Phase::Env { until: new_until };
                self.push_phase_deadline(id, new_until);
                delayed += 1;
            }
        }
        ids.clear();
        self.scratch_ids = ids;
        // Not-yet-admitted trajectories mid-env-call stall too.
        for st in self.waiting.iter_mut() {
            if let Phase::Env { until } = st.phase {
                st.phase = Phase::Env {
                    until: until.max(now) + capped(st),
                };
                delayed += 1;
            }
        }
        self.after_change(now);
        delayed
    }

    /// Completes every decoding trajectory whose current segment has no
    /// tokens left.
    ///
    /// Ready trajectories are popped off the segment-completion heap —
    /// amortized O(log n) each — instead of scanning the whole active set.
    /// They are processed in ascending id order, the order a scan of the
    /// id-sorted active map would produce.
    pub(super) fn finish_ready_segments(&mut self, t: Time) {
        let horizon = self.global_steps + EPS;
        // Reuse the engine-owned candidate buffer: the common case (one
        // completion per event) previously allocated a fresh Vec per call.
        let mut ready = std::mem::take(&mut self.scratch_ready);
        debug_assert!(ready.is_empty());
        while let Some(&std::cmp::Reverse(e)) = self.seg_heap.peek() {
            if !self.seg_entry_live(e) {
                self.seg_heap.pop();
                continue;
            }
            if e.key > horizon {
                break;
            }
            self.seg_heap.pop();
            ready.push(e.id);
        }
        ready.sort_unstable();
        for &id in &ready {
            // Re-validate against live state: a stale heap entry can carry
            // the same (key, id) as the live one — e.g. an interrupt and
            // re-prefill while no other trajectory was decoding re-enters
            // the segment at an unchanged `global_steps` with unchanged
            // remaining tokens — so the same id can be popped twice.
            match self.active.get(id) {
                Some(st) if st.phase == Phase::Decoding && st.finish_key <= horizon => {}
                _ => continue,
            }
            self.exit_decoding(id);
            let st = self.active.get_mut(id).expect("resident");
            // Leave the Decoding phase immediately so the counter adjustment
            // above is not repeated by a later `remove_active`/`exit_decoding`
            // on the same trajectory; the placeholder is overwritten below.
            st.phase = Phase::Env { until: t };
            // Snap fractional progress to the exact segment length. A
            // trajectory whose segment list is already exhausted (possible
            // after a mid-env move of an env-terminated spec) has nothing
            // left to snap.
            let seg_tokens = st
                .current_decode_tokens()
                .map(|t| t as f64)
                .unwrap_or(st.decoded_in_segment);
            let slack = seg_tokens - st.decoded_in_segment;
            st.total_decoded += slack;
            self.resident_ctx_sum += slack;
            st.decoded_in_segment = 0.0;
            st.segment += 1;
            let decode_started = st.decode_started_at;
            let version = traj_version(st);
            self.trace(
                SpanKind::DecodeStep,
                decode_started,
                t,
                version,
                seg_tokens.round() as u64,
            );
            let st = self.active.get_mut(id).expect("resident");
            if st.segment >= st.spec.segments.len() {
                let st = self.take_active(id).expect("just validated resident");
                self.completions.push(CompletedTraj {
                    spec: st.spec,
                    policy_versions: st.policy_versions,
                    started_at: st.started_at,
                    finished_at: t,
                });
                self.completed_count += 1;
            } else {
                match st.spec.segments[st.segment] {
                    Segment::Env { latency } => {
                        st.phase = Phase::Env { until: t + latency };
                        let version = traj_version(st);
                        self.push_phase_deadline(id, t + latency);
                        self.trace(SpanKind::EnvCall, t, t + latency, version, 0);
                    }
                    Segment::Decode { .. } => {
                        // Specs alternate decode/env, but tolerate
                        // consecutive decodes by continuing directly.
                        self.enter_decoding(id, t);
                    }
                }
            }
        }
        ready.clear();
        self.scratch_ready = ready;
    }

    pub(super) fn env_return(&mut self, id: u64, t: Time) {
        let Some(st) = self.active.get_mut(id) else {
            return;
        };
        if st.aborted {
            // The env call exhausted the stall budget: end the trajectory
            // here rather than continuing its remaining segments.
            let st = self.take_active(id).expect("resident");
            self.completions.push(CompletedTraj {
                spec: st.spec,
                policy_versions: st.policy_versions,
                started_at: st.started_at,
                finished_at: t,
            });
            self.completed_count += 1;
            self.env_aborts += 1;
            return;
        }
        st.segment += 1;
        st.decoded_in_segment = 0.0;
        if st.segment >= st.spec.segments.len() {
            // Env call was the last segment (not produced by our generators,
            // but handle it): complete.
            let st = self.take_active(id).expect("resident");
            self.completions.push(CompletedTraj {
                spec: st.spec,
                policy_versions: st.policy_versions,
                started_at: st.started_at,
                finished_at: t,
            });
            self.completed_count += 1;
            return;
        }
        if st.needs_reprefill {
            st.needs_reprefill = false;
            let tokens = st.context_tokens().round() as u64;
            let version = traj_version(st);
            let until = self.reserve_prefill(tokens, t, version);
            let st = self.active.get_mut(id).expect("resident");
            st.phase = Phase::Prefill { until };
            self.push_phase_deadline(id, until);
        } else {
            self.enter_decoding(id, t);
        }
    }

    /// Removes `id` from the active set and returns its state, releasing
    /// its reservation. The single-completion hot path — no sink `Vec`.
    pub(super) fn take_active(&mut self, id: u64) -> Option<TrajState> {
        if let Some(st) = self.active.get(id) {
            if st.phase == Phase::Decoding {
                self.exit_decoding(id);
            }
        }
        let st = self.active.remove(id)?;
        self.reserved -= st.spec.final_context() as f64;
        self.resident_ctx_sum -= st.context_tokens();
        if self.active.is_empty() {
            // Kill accumulated float error at quiesce points, and drop
            // any lazily-invalidated heap entries along with the global
            // decode-step accumulator they were keyed against. Resetting
            // the (empty) slab normalizes its free list so checkpoints do
            // not carry slot-recycling history.
            self.reserved = 0.0;
            self.resident_ctx_sum = 0.0;
            self.decoding_ctx_sum = 0.0;
            self.global_steps = 0.0;
            self.phase_heap.clear();
            self.seg_heap.clear();
            self.active.clear();
        }
        Some(st)
    }

    /// Removes `id` from the active set, returning its state through `out`
    /// (drain paths that collect several states).
    pub(super) fn remove_active(&mut self, id: u64, out: &mut Vec<TrajState>) {
        if let Some(st) = self.take_active(id) {
            out.push(st);
        }
    }

    pub(super) fn exit_decoding(&mut self, id: u64) {
        let global = self.global_steps;
        if let Some(st) = self.active.get_mut(id) {
            if st.phase == Phase::Decoding {
                // Settle lazily-accounted progress before the context sum
                // adjustment, and normalize the engine-local bookkeeping so
                // drained states compare equal across engines.
                materialize(st, global);
                st.steps_baseline = 0.0;
                st.finish_key = 0.0;
                let ctx = st.context_tokens();
                self.decoding_count -= 1;
                self.decoding_ctx_sum -= ctx;
            }
        }
    }

    pub(super) fn try_admit(&mut self, now: Time) {
        while let Some(front) = self.waiting.front() {
            if front.aborted {
                // Budget-exhausted while waiting (moved mid-env-call):
                // complete early instead of re-admitting.
                let st = self.waiting.pop_front().expect("front exists");
                self.completions.push(CompletedTraj {
                    spec: st.spec,
                    policy_versions: st.policy_versions,
                    started_at: st.started_at,
                    finished_at: now,
                });
                self.completed_count += 1;
                self.env_aborts += 1;
                continue;
            }
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
                // If the trajectory was moved while in an environment call
                // that has since returned, resume at the next segment.
                if matches!(st.spec.segments.get(st.segment), Some(Segment::Env { .. })) {
                    st.segment += 1;
                    st.decoded_in_segment = 0.0;
                }
                let tokens = st.context_tokens().round() as u64;
                let version = traj_version(&st);
                let until = self.reserve_prefill(tokens, now, version);
                st.phase = Phase::Prefill { until };
            }
            let id = st.spec.id;
            // Index the admitted trajectory's pending deadline (a fresh
            // prefill, or an environment call still in flight from before a
            // move).
            let deadline = match st.phase {
                Phase::Prefill { until } | Phase::Env { until } => Some(until),
                Phase::Decoding => None,
            };
            let prev = self.active.insert(st);
            assert!(prev.is_none(), "duplicate trajectory id {id} on replica");
            if let Some(at) = deadline {
                self.push_phase_deadline(id, at);
            }
        }
    }
}
