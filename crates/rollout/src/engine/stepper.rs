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
//! instead of touching every trajectory.

use super::{Internal, ReplicaEngine};
use laminar_sim::Time;

/// Which live heap top holds the earliest pending transition.
#[derive(Clone, Copy)]
enum Next {
    /// The phase-heap top: a prefill completion or an env return.
    PhaseTop,
    /// The segment-heap top runs out of tokens.
    SegmentDone,
    /// The forced rate re-evaluation one horizon ahead.
    Recalc,
}

impl ReplicaEngine {
    /// The next instant at which the replica's state changes on its own,
    /// if any. The world schedules a wake event here.
    ///
    /// Reads the heap tops without looking them up in the slab: every
    /// `&mut self` entry point leaves both tops live (it returns through
    /// [`ReplicaEngine::prune_event_tops`], directly or via
    /// [`ReplicaEngine::advance_to`]'s discovery loop), and debug builds
    /// assert that invariant on every call.
    pub fn next_event_time(&self) -> Option<Time> {
        debug_assert!(self.event_tops_live(), "stale event-heap top");
        self.earliest().map(|(t, _)| t)
    }

    /// Advances the replica's state to `now`, applying every internal
    /// transition (prefill completions, env returns, segment completions,
    /// rate re-evaluations) in order.
    ///
    /// Each discovery step prunes the heap tops and reads the earliest
    /// transition off them, so a live top is looked up in the slab once
    /// per step; the phase top's lookup also yields which transition fires.
    pub fn advance_to(&mut self, now: Time) {
        let mut guard = 0u64;
        loop {
            let phase_top = self.prune_event_tops();
            let Some((t, next)) = self.earliest() else {
                break;
            };
            if t > now {
                break;
            }
            guard += 1;
            assert!(guard < 50_000_000, "replica engine event storm — model bug");
            let kind = match next {
                Next::PhaseTop => phase_top.expect("a phase-heap top is live after pruning"),
                Next::SegmentDone => Internal::SegmentDone,
                Next::Recalc => Internal::Recalc,
            };
            self.apply_internal(t, kind);
        }
        self.apply_progress(now);
    }

    /// Replays the serial per-event wake chains up to `fence`: fires each
    /// pending wake in scheduler order, settles at its instant via
    /// [`ReplicaEngine::advance_to`], then re-predicts — exactly the
    /// sequence a driver scheduling one wake per `next_event_time` would
    /// produce. The settlement matters even when the predicted event moved
    /// (an external settlement postponed the forced rate re-evaluation):
    /// each wake re-bases the recalc horizon off its own instant, so a
    /// lookahead driver that replays the chains — rather than the bare
    /// event list — stays byte-identical to serial execution.
    ///
    /// A wake scheduled under an epoch the engine has since left is
    /// consumed without firing and without re-predicting, mirroring the
    /// serial driver's staleness guard. Wakes scheduled under a *later*
    /// epoch than the engine currently holds (a replica replaced after a
    /// fault resets its epoch) do fire — again matching the serial guard,
    /// which only skips strictly-older epochs.
    ///
    /// `pending` is left holding the predictions past the fence (empty once
    /// the engine runs out of events, i.e. goes idle — the caller owns the
    /// restart decision at the final completion's instant).
    pub fn advance_wake_queue(&mut self, pending: &mut crate::shard::WakeQueue, fence: Time) {
        let mut guard = 0u64;
        while let Some((p, epoch)) = pending.pop_through(fence) {
            if epoch < self.epoch() {
                continue;
            }
            guard += 1;
            assert!(guard < 50_000_000, "replica wake storm — model bug");
            self.advance_to(p);
            if let Some(t) = self.next_event_time() {
                pending.push(t, self.epoch());
            }
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

    /// The earliest pending internal transition and where it comes from,
    /// reading both heap tops as live.
    ///
    /// Tie-breaking replicates the retained full-scan reference
    /// ([`super::reference::NaiveReplicaEngine`]): phase deadlines win ties
    /// (lowest id first), a segment completion pre-empts only when strictly
    /// earlier, and a forced rate re-evaluation only when strictly earlier
    /// than both.
    fn earliest(&self) -> Option<(Time, Next)> {
        let mut best = self
            .phase_heap
            .peek()
            .map(|&std::cmp::Reverse(e)| (e.at, Next::PhaseTop));
        if self.decoding_count > 0 && self.step_secs > 0.0 {
            if let Some(&std::cmp::Reverse(e)) = self.seg_heap.peek() {
                let rem = (e.key - self.global_steps).max(0.0);
                let t_done = self.offset(rem);
                if best.is_none_or(|(bt, _)| t_done < bt) {
                    best = Some((t_done, Next::SegmentDone));
                }
                let t_recalc = self.offset(self.cfg.horizon_steps);
                if best.is_none_or(|(bt, _)| t_recalc < bt) {
                    best = Some((t_recalc, Next::Recalc));
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
    /// are materialized lazily at phase transitions.
    pub(super) fn apply_progress(&mut self, t: Time) {
        if t <= self.last_update {
            return;
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
        self.prune_event_tops();
    }
}
