//! The batch step loop: internal event discovery, virtual-time advancement,
//! decode-rate re-evaluation, and KVCache accounting.
//!
//! Event discovery is O(log n) per event: phase deadlines (prefill
//! completions, env returns) sit in a lazily-invalidated min-heap ordered by
//! `(time, id)`, and segment completions sit in a second min-heap keyed by
//! the global decode-step accumulator value at which each decoding
//! trajectory exhausts its segment. Because lockstep continuous batching
//! advances every decoding trajectory at the same rate, a segment's
//! completion key is fixed when the trajectory enters the decoding phase —
//! no heap updates are needed while the batch decodes, and
//! [`ReplicaEngine::apply_progress`] only bumps the global accumulator
//! instead of touching every trajectory. The earliest transition is cached
//! and recomputed once per state change, so the wake that fires an event
//! does not rediscover it.

use super::{Internal, ReplicaEngine};
use laminar_sim::Time;

impl ReplicaEngine {
    /// The next instant at which the replica's state changes on its own,
    /// if any. The world schedules a wake event here.
    ///
    /// Returns the cached next transition: every `&mut self` entry point
    /// that moves an input of discovery refreshes the cache before it
    /// returns (see `ReplicaEngine::refresh_next`), and debug builds
    /// assert on every call that the cache equals a fresh computation.
    pub fn next_event_time(&self) -> Option<Time> {
        debug_assert!(self.event_tops_live(), "stale event-heap top");
        debug_assert!(self.next_is_fresh(), "stale cached transition");
        self.next.map(|(t, _)| t)
    }

    /// Advances the replica's state to `now`, applying every internal
    /// transition (prefill completions, env returns, segment completions,
    /// rate re-evaluations) in order.
    ///
    /// Fires the cached transition and refreshes the cache once per fired
    /// event, so each event costs one prune and one `earliest`. The closing
    /// settlement refreshes again only when it moved the clock.
    pub fn advance_to(&mut self, now: Time) {
        let mut guard = 0u64;
        while let Some((t, kind)) = self.next {
            if t > now {
                break;
            }
            guard += 1;
            assert!(guard < 50_000_000, "replica engine event storm — model bug");
            self.apply_internal(t, kind);
            self.refresh_next();
        }
        if self.apply_progress(now) {
            self.refresh_next();
        }
    }

    /// One internal transition: progress settlement, the event itself, then
    /// admission / rate / recording follow-ups.
    fn apply_internal(&mut self, t: Time, kind: Internal) {
        self.events_processed += 1;
        self.apply_progress(t);
        match kind {
            Internal::PrefillDone(id) => {
                // The fired deadline is the live top; consume it.
                self.phase_heap.pop();
                self.enter_decoding(id, t);
            }
            Internal::EnvReturn(id) => {
                self.phase_heap.pop();
                self.env_return(id, t);
            }
            Internal::SegmentDone => self.finish_ready_segments(t),
            Internal::Recalc => {}
        }
        self.try_admit(t);
        self.recalc_rate();
        self.record(t);
    }

    /// Recomputes the cached next transition: prunes stale heap tops, then
    /// reads the earliest transition off the live tops. Called after every
    /// batch of state changes that can move a heap top, the decode rate, the
    /// progress clock or the prefill pipeline's busy horizon.
    pub(super) fn refresh_next(&mut self) {
        let phase_top = self.prune_event_tops();
        self.next = self.earliest(phase_top);
    }

    /// Whether the cached transition equals a fresh computation over the
    /// live heap tops. Checked by debug assertions and tests only.
    pub(super) fn next_is_fresh(&self) -> bool {
        let phase_top = self
            .phase_heap
            .peek()
            .and_then(|&std::cmp::Reverse(e)| self.phase_entry_event(e).map(|kind| (e.at, kind)));
        self.next == self.earliest(phase_top)
    }

    /// The earliest pending internal transition, given the live phase-heap
    /// top's deadline and the transition it stands for.
    ///
    /// Tie-breaking replicates the retained full-scan reference
    /// ([`super::reference::NaiveReplicaEngine`]): phase deadlines win ties
    /// (lowest id first), a segment completion pre-empts only when strictly
    /// earlier, and a forced rate re-evaluation only when strictly earlier
    /// than both.
    fn earliest(&self, phase_top: Option<(Time, Internal)>) -> Option<(Time, Internal)> {
        let mut best = phase_top;
        if self.decoding_count > 0 && self.step_secs > 0.0 {
            if let Some(&std::cmp::Reverse(e)) = self.seg_heap.peek() {
                let rem = (e.key - self.global_steps).max(0.0);
                let t_done = self.offset(rem);
                if best.is_none_or(|(bt, _)| t_done < bt) {
                    best = Some((t_done, Internal::SegmentDone));
                }
                let t_recalc = self.offset(self.cfg.horizon_steps);
                if best.is_none_or(|(bt, _)| t_recalc < bt) {
                    best = Some((t_recalc, Internal::Recalc));
                }
            }
        }
        best
    }

    /// Decoding is paused while the prefill pipeline is busy
    /// (prefill-prioritized scheduling, the vLLM default): decode steps
    /// resume only once queued prefills drain.
    fn decode_resume_at(&self) -> Time {
        self.last_update.max(self.prefill_busy_until)
    }

    pub(super) fn offset(&self, steps: f64) -> Time {
        Time::from_secs_f64(self.decode_resume_at().as_secs_f64() + steps * self.step_secs)
    }

    /// Advances decode progress to `t` at the current rate — O(1): the
    /// lockstep steps accrue once into the global accumulator and the
    /// aggregate context sums, never per trajectory. Per-trajectory counts
    /// are materialized lazily at phase transitions. Returns whether the
    /// progress clock moved.
    pub(super) fn apply_progress(&mut self, t: Time) -> bool {
        if t <= self.last_update {
            return false;
        }
        if self.decoding_count > 0 && self.step_secs > 0.0 {
            // Progress only accrues once the prefill pipeline is clear.
            let start = self.decode_resume_at().min(t);
            let steps = t.since(start).as_secs_f64() / self.step_secs;
            self.global_steps += steps;
            let grown = self.decoding_count as f64 * steps;
            self.decoding_ctx_sum += grown;
            self.resident_ctx_sum += grown;
            self.tokens_decoded += grown;
        }
        self.last_update = t;
        true
    }

    pub(super) fn recalc_rate(&mut self) {
        self.step_secs = if self.decoding_count > 0 {
            self.decode
                .step_secs(self.decoding_count, self.decoding_ctx_sum)
                * self.perf_factor
        } else {
            0.0
        };
    }

    pub(super) fn record(&mut self, t: Time) {
        self.busy.record(t, self.decoding_count as f64);
        self.kv_tw.record(t, self.kv_utilization());
        if self.cfg.record_kv_series {
            self.kv_series.push(t, self.kv_utilization());
        }
    }

    pub(super) fn after_change(&mut self, now: Time) {
        self.epoch += 1;
        self.recalc_rate();
        self.record(now);
        self.refresh_next();
    }
}
