//! Fault handling: the chaos plane's injection paths — machine loss +
//! recovery (Figure 15), trainer failure with checkpoint replay (§3.3),
//! relay-tier outages, straggler onset, and env-call stalls.

use super::{Ev, World};
use crate::chaos::FaultKind;
use laminar_rollout::manager::C_MAX_FRAC;
use laminar_rollout::ReplicaEngine;
use laminar_runtime::SpanKind;
use laminar_sim::{Duration, Scheduler, Time};

impl World {
    /// Dispatches one scheduled fault from `opts.faults`.
    pub(super) fn apply_fault(&mut self, idx: usize, now: Time, sched: &mut Scheduler<Ev>) {
        self.audit.faults_applied += 1;
        match self.opts.faults[idx].kind.clone() {
            FaultKind::ReplicaCrash {
                replicas,
                recover_after,
            } => self.kill_machines(&replicas, recover_after, now, sched),
            FaultKind::TrainerCrash { recover_after } => {
                self.trainer_fail(recover_after, now, sched)
            }
            FaultKind::RelayOutage { duration } => self.relay_outage(duration, now),
            FaultKind::SlowNode {
                replica,
                factor,
                duration,
            } => self.slow_node(replica, factor, duration, now, sched),
            FaultKind::EnvStall { replica, extra } => self.env_stall(replica, extra, now, sched),
        }
    }

    /// A rollout machine dies: its replicas stop, their in-flight state is
    /// lost, and the partial response pool redirects every affected
    /// trajectory to a healthy replica on the same weight version (or back
    /// to the prompt pool).
    ///
    /// Two invariants this must uphold (both were violated before the chaos
    /// plane existed): *every* victim is marked dead before any redirect is
    /// planned, so a trajectory can never land on a replica dying later in
    /// the same event; and a redirect counts against the target's KVCache
    /// reservation and roofline batch bound — cumulatively across the whole
    /// redirect batch — falling back to the prompt pool when no healthy
    /// same-version replica has room.
    pub(super) fn kill_machines(
        &mut self,
        victims: &[usize],
        recover_after: Duration,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        // Phase 1: take every victim down and collect their partial work.
        let mut killed: Vec<usize> = Vec::new();
        let mut lost = Vec::new();
        for &r in victims {
            if r >= self.engines.len() || !self.alive[r] {
                continue;
            }
            self.engines[r].advance_to(now);
            self.alive[r] = false;
            // A kill also counts against the breaker: a machine crashing
            // repeatedly within the window trips it, and a half-open probe
            // lost to a crash re-opens it (keeping probe liveness — the
            // next admission attempt schedules a fresh probe).
            self.breakers[r].record_failure(now);
            self.span(
                SpanKind::Failure,
                now,
                now + recover_after,
                Some(r),
                self.relay_version,
                0,
            );
            // The engine's in-flight state is lost with the machine;
            // the partial response pool still has every trajectory.
            let _ = self.engines[r].drain_in_progress(now);
            lost.extend(self.partials.drain_rollout(r));
            killed.push(r);
        }
        // Phase 2: redirect to healthy replicas generating the same weight
        // version, within capacity; otherwise restart from the prompt pool.
        let mut extra_kv = vec![0.0_f64; self.engines.len()];
        let mut extra_reqs = vec![0_usize; self.engines.len()];
        for p in lost {
            let version = p.policy_versions.last();
            let need = p.spec.final_context() as f64;
            let target = (0..self.engines.len()).find(|&h| {
                self.alive[h]
                    && !self.pulling[h]
                    && self.engines[h].weight_version() == version
                    && self.engines[h].kv_reserved_tokens() + extra_kv[h] + need
                        <= C_MAX_FRAC * self.engines[h].kv_capacity_tokens()
                    && self.engines[h].n_reqs() + extra_reqs[h]
                        < self.engines[h].roofline_batch_limit()
            });
            match target {
                Some(h) => {
                    extra_kv[h] += need;
                    extra_reqs[h] += 1;
                    self.audit.redirect(
                        p.spec.id,
                        h,
                        &killed,
                        self.alive[h],
                        self.engines[h].kv_reserved_tokens() + extra_kv[h],
                        C_MAX_FRAC * self.engines[h].kv_capacity_tokens(),
                        self.engines[h].n_reqs() + extra_reqs[h],
                        self.engines[h].roofline_batch_limit(),
                    );
                    self.partials.begin(p.spec.clone(), h, version, now);
                    let mut st = laminar_rollout::TrajState::new(p.spec, version, p.started_at);
                    st.total_decoded = p.generated_tokens as f64;
                    st.segment = p.segment_index;
                    st.policy_versions = p.policy_versions;
                    self.engines[h].inject(vec![st], now);
                }
                None => {
                    self.audit.repooled += 1;
                    self.pool.push_front(p.spec);
                }
            }
        }
        for r in 0..self.engines.len() {
            if self.alive[r] {
                self.wake(r, sched);
            }
        }
        if !killed.is_empty() {
            sched.after(recover_after, Ev::RecoverMachine { replicas: killed });
        }
        self.note_capacity(now, sched);
    }

    /// The replacement machine is up: fresh engines initialize from the
    /// master relay at the latest version and rejoin the run.
    pub(super) fn recover_machine(
        &mut self,
        replicas: &[usize],
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        for &r in replicas {
            if self.alive[r] {
                continue;
            }
            self.alive[r] = true;
            self.pulling[r] = false;
            let fresh = ReplicaEngine::new(r, self.cfg.decode_model(), self.engine_cfg());
            let mut dead = std::mem::replace(&mut self.engines[r], fresh);
            // Keep the spans the dead engine recorded before the failure.
            self.trace_spans.extend(dead.take_trace_spans());
            self.engines[r].set_weight_version(self.relay_version, now);
            self.audit.record_version(r, self.relay_version);
            self.start_batch(r, now, sched);
            self.wake(r, sched);
        }
        self.note_capacity(now, sched);
    }

    /// The trainer worker dies: the in-flight update (if any) is lost; its
    /// eventual `TrainerDone` is discarded by epoch. Recovery evicts,
    /// restarts, loads the latest checkpoint — rolling `version` back to
    /// the checkpoint so staleness accounting reflects the restored actor —
    /// and replays the newer updates while rollouts keep generating (§3.3).
    pub(super) fn trainer_fail(
        &mut self,
        recover_after: Duration,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        if self.trainer_failed {
            return; // a second crash while already down is absorbed
        }
        self.trainer_failed = true;
        self.trainer_busy = false;
        self.trainer_epoch += 1;
        let failed_version = self.version;
        let (resume, replayed) = self.checkpoints.recovery(failed_version);
        // Roll version bookkeeping back to the checkpoint: until replay
        // completes, the actor genuinely is at `resume`.
        self.version = resume;
        self.trainer_resume_to = failed_version;
        let replay = self.last_iter_duration * replayed;
        self.span(
            SpanKind::Failure,
            now,
            now + recover_after + replay,
            None,
            resume,
            replayed,
        );
        sched.after(recover_after + replay, Ev::TrainerRecover);
    }

    /// Replay finished: the actor is back at the version it failed at.
    pub(super) fn trainer_recover(&mut self, sched: &mut Scheduler<Ev>) {
        self.trainer_failed = false;
        self.version = self.version.max(self.trainer_resume_to);
        sched.immediately(Ev::TrainerCheck);
    }

    /// The relay broadcast tier is disrupted: versions still in flight only
    /// become pullable once the outage ends. Already-broadcast versions
    /// stay available (replicas pull from their colocated relay), so only
    /// `WeightsAvailable` delivery is delayed.
    pub(super) fn relay_outage(&mut self, duration: Duration, now: Time) {
        self.relay_blocked_until = self.relay_blocked_until.max(now + duration);
        self.span(
            SpanKind::Failure,
            now,
            self.relay_blocked_until,
            None,
            self.relay_version,
            0,
        );
    }

    /// Straggler onset: replica `r` slows down by `factor` for `duration`.
    pub(super) fn slow_node(
        &mut self,
        r: usize,
        factor: f64,
        duration: Duration,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        if r >= self.engines.len() || !self.alive[r] {
            return;
        }
        self.engines[r].set_perf_factor(factor, now);
        self.breakers[r].record_failure(now);
        self.span(
            SpanKind::Failure,
            now,
            now + duration,
            Some(r),
            self.engines[r].weight_version(),
            0,
        );
        if !self.pulling[r] {
            self.wake(r, sched);
        }
        sched.after(duration, Ev::SlowNodeEnd { r });
    }

    /// The straggler window ends; `r` returns to full speed. A replica
    /// replaced by recovery mid-window simply gets a redundant ×1.0.
    pub(super) fn end_slow_node(&mut self, r: usize, now: Time, sched: &mut Scheduler<Ev>) {
        if r >= self.engines.len() || !self.alive[r] {
            return;
        }
        self.engines[r].set_perf_factor(1.0, now);
        if !self.pulling[r] {
            self.wake(r, sched);
        }
    }

    /// Env-call timeout: every environment call in flight on `r` is delayed
    /// by `extra` before returning.
    pub(super) fn env_stall(
        &mut self,
        r: usize,
        extra: Duration,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        if r >= self.engines.len() || !self.alive[r] || self.pulling[r] {
            return;
        }
        let delayed = self.engines[r].delay_env_returns(extra, now);
        if delayed > 0 {
            self.breakers[r].record_failure(now);
            self.span(
                SpanKind::Failure,
                now,
                now + extra,
                Some(r),
                self.engines[r].weight_version(),
                delayed,
            );
        }
        self.wake(r, sched);
    }
}
