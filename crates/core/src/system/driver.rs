//! The steady-state driver loop: per-replica batch generation, anytime
//! weight refresh through the relay tier, trainer scheduling over the
//! experience buffer, and the dynamic repack (Algorithm 1).

use super::recover::{DEGRADED_ADMISSION_FRAC, STALENESS_RELAX};
use super::{Ev, IdlenessMetric, World};
use laminar_data::Experience;
use laminar_rollout::manager::{LoadSample, REPACK_INTERVAL};
use laminar_rollout::CompletedTraj;
use laminar_runtime::{BreakerState, ConsumedTraj, SpanKind};
use laminar_sim::{Duration, Scheduler, SimWorld, Time};

impl World {
    pub(super) fn refill_pool(&mut self) {
        while self.pool.len() < 2 * self.cfg.global_batch() {
            let evolution = 1.0 + self.cfg.evolution_rate * self.batches_issued as f64;
            let batch = self.dataset.next_batch(self.cfg.prompts_per_batch);
            self.pool.extend(self.cfg.workload.batch(&batch, evolution));
            self.batches_issued += 1;
        }
    }

    /// Starts a fresh per-replica batch on `r` at its current weight
    /// version.
    ///
    /// This is the single admission gate of the recovery plane: a replica
    /// whose circuit breaker is open gets **no** work — instead a
    /// [`Ev::BreakerProbe`] is scheduled for the end of the cooldown, so a
    /// flapping node is not re-admitted every sweep. While degraded, the
    /// batch shrinks to the configured admission fraction.
    pub(super) fn start_batch(&mut self, r: usize, now: Time, sched: &mut Scheduler<Ev>) {
        if !self.breakers[r].allow(now) {
            self.audit.breaker_blocked += 1;
            if let Some(at) = self.breakers[r].retry_at() {
                sched.at(at.max(now), Ev::BreakerProbe { r });
            }
            return;
        }
        self.audit.admission_check(r, self.breakers[r].is_open(now));
        self.refill_pool();
        let version = self.engines[r].weight_version();
        for _ in 0..self.admission_target() {
            let Some(spec) = self.pool.pop_front() else {
                break;
            };
            self.audit.begin(spec.id);
            self.partials.begin(spec.clone(), r, version, now);
            self.engines[r].submit(spec, now);
        }
    }

    /// Per-replica admission target: the configured batch, shrunk while
    /// degraded so the surviving fleet is not oversubscribed.
    fn admission_target(&self) -> usize {
        if self.degraded {
            ((self.replica_batch as f64 * DEGRADED_ADMISSION_FRAC).floor() as usize).max(1)
        } else {
            self.replica_batch
        }
    }

    /// Delivers replica `r`'s buffered completions into the buffer and the
    /// bookkeeping planes, then nudges the trainer.
    pub(super) fn drain(&mut self, r: usize, now: Time, sched: &mut Scheduler<Ev>) {
        let done = self.engines[r].take_completions();
        if done.is_empty() {
            return;
        }
        // A half-open probe batch delivering completions proves the replica
        // recovered: close its breaker. (Closed-state successes are not
        // recorded — faults accumulate toward the trip threshold even when
        // interleaved with completions, so a flapping node still trips.)
        if self.breakers[r].state(now) == BreakerState::HalfOpen {
            self.breakers[r].record_success();
        }
        for c in &done {
            self.audit.complete(c.spec.id);
            self.partials.complete(c.spec.id);
            self.report
                .latencies
                .push(c.finished_at.since(c.started_at).as_secs_f64());
            // Inherent staleness (§6): actor version when generation
            // finished minus the generating version.
            if self.iterations_done >= self.cfg.warmup {
                self.report.staleness_by_finish.push((
                    c.finished_at.as_secs_f64(),
                    self.version.saturating_sub(c.policy_versions.first()),
                ));
            }
            self.buffer.write(to_experience(c));
        }
        sched.immediately(Ev::TrainerCheck);
    }

    pub(super) fn wake(&mut self, r: usize, sched: &mut Scheduler<Ev>) {
        if !self.alive[r] || self.pulling[r] {
            return;
        }
        if let Some(t) = self.engines[r].next_event_time() {
            sched.at(
                t,
                Ev::ReplicaWake {
                    r,
                    epoch: self.engines[r].epoch(),
                },
            );
        }
    }

    /// Replica finished its batch (or was released by a repack): pull the
    /// newest relayed weights if newer, then start the next batch.
    pub(super) fn refresh_and_restart(&mut self, r: usize, now: Time, sched: &mut Scheduler<Ev>) {
        if !self.alive[r] {
            return;
        }
        if self.relay_version > self.engines[r].weight_version() {
            let wait = self.relay.pull_cached(self.cfg.rollout_tp);
            if self.iterations_done >= self.cfg.warmup {
                self.report.rollout_waits.push(wait.as_secs_f64());
            }
            self.span(
                SpanKind::WeightSync,
                now,
                now + wait,
                Some(r),
                self.relay_version,
                0,
            );
            self.pulling[r] = true;
            sched.at(
                now + wait,
                Ev::ReplicaResume {
                    r,
                    version: self.relay_version,
                },
            );
        } else {
            self.start_batch(r, now, sched);
            self.wake(r, sched);
        }
    }

    pub(super) fn load_samples(&mut self, now: Time) -> Vec<LoadSample> {
        let mut out = Vec::new();
        for r in 0..self.engines.len() {
            if !self.alive[r] || self.pulling[r] {
                continue;
            }
            self.engines[r].advance_to(now);
            out.push(LoadSample {
                replica: r,
                kv_used: self.engines[r].kv_used_tokens(),
                kv_reserved: self.engines[r].kv_reserved_tokens(),
                n_reqs: self.engines[r].n_reqs(),
                weight_version: self.engines[r].weight_version(),
                kv_capacity: self.engines[r].kv_capacity_tokens(),
                roofline_b: self.engines[r].roofline_batch_limit(),
            });
        }
        out
    }

    pub(super) fn run_repack(&mut self, now: Time, sched: &mut Scheduler<Ev>) {
        if !self.opts.repack {
            return;
        }
        let samples = self.load_samples(now);
        let plan = match self.opts.idleness {
            IdlenessMetric::KvCacheLifecycle => self.manager.plan(&samples),
            IdlenessMetric::StaticThreshold(thresh) => {
                // Ablation: any replica below the request threshold is a
                // candidate; reuse the planner by faking ramp-down history.
                let loads: Vec<laminar_rollout::ReplicaLoad> = samples
                    .iter()
                    .filter(|s| s.n_reqs > 0 && s.n_reqs < thresh)
                    .map(|s| laminar_rollout::ReplicaLoad {
                        replica: s.replica,
                        kv_used: s.kv_used,
                        kv_reserved: s.kv_reserved,
                        kv_prev: f64::INFINITY,
                        n_reqs: s.n_reqs,
                        weight_version: s.weight_version,
                    })
                    .collect();
                let c_max = samples
                    .iter()
                    .map(|s| s.kv_capacity)
                    .fold(f64::INFINITY, f64::min)
                    * 0.99;
                let b = samples.iter().map(|s| s.roofline_b).min().unwrap_or(1);
                laminar_rollout::plan_repack(&loads, c_max, b)
            }
        };
        if plan.is_empty() {
            return;
        }
        for &(src, dst) in &plan.moves {
            // Guard: only move within the same weight-version group (the
            // manager guarantees it, but the static-threshold ablation may
            // not).
            if self.engines[src].weight_version() != self.engines[dst].weight_version() {
                continue;
            }
            let states = self.engines[src].drain_in_progress(now);
            let moved = states.len() as u64;
            for st in &states {
                self.partials.reassign(st.spec.id, dst);
            }
            // Repack overhead: shipping token ids + scheduling, well under a
            // second for a handful of trajectories (Table 1 reports 0.69 s
            // per repack round); re-prefill on the destination is charged by
            // the engine itself.
            let overhead = 0.05 + 0.01 * moved as f64;
            self.report.repack_overhead_secs += overhead;
            self.span(
                SpanKind::Repack,
                now,
                now + Duration::from_secs_f64(overhead),
                Some(src),
                self.engines[dst].weight_version(),
                moved,
            );
            self.engines[dst].inject(states, now);
            self.report.repack_released += 1;
            self.wake(dst, sched);
            // The released source immediately refreshes weights and starts
            // fresh on-policy work (§5).
            self.refresh_and_restart(src, now, sched);
        }
        self.report.repack_events += 1;
    }
}

pub(super) fn to_experience(c: &CompletedTraj) -> Experience {
    Experience {
        trajectory_id: c.spec.id,
        prompt_id: c.spec.prompt_id,
        group_index: c.spec.group_index,
        prompt_tokens: c.spec.prompt_tokens,
        response_tokens: c.spec.decode_tokens(),
        policy_versions: c.policy_versions.to_vec(),
        started_at: c.started_at,
        finished_at: c.finished_at,
    }
}

impl SimWorld for World {
    type Event = Ev;

    fn handle(&mut self, now: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
        if self.done() {
            return;
        }
        match ev {
            Ev::ReplicaWake { r, epoch } => {
                if !self.alive[r] || self.pulling[r] || epoch < self.engines[r].epoch() {
                    return;
                }
                self.engines[r].advance_to(now);
                self.drain(r, now, sched);
                if self.engines[r].is_idle() {
                    self.refresh_and_restart(r, now, sched);
                } else {
                    self.wake(r, sched);
                }
            }
            Ev::ReplicaResume { r, version } => {
                if !self.alive[r] {
                    return;
                }
                self.pulling[r] = false;
                self.engines[r].set_weight_version(version, now);
                self.audit.record_version(r, version);
                self.start_batch(r, now, sched);
                self.wake(r, sched);
            }
            Ev::TrainerCheck => {
                if self.trainer_busy
                    || self.trainer_failed
                    || self.buffer.len() < self.cfg.global_batch()
                {
                    return;
                }
                let sampled =
                    self.buffer
                        .sample(self.cfg.global_batch(), self.version, &mut self.rng);
                let tokens: f64 = sampled.iter().map(|e| e.total_tokens() as f64).sum();
                // Degraded-mode invariant: even with the relaxed sampler in
                // effect, sampled staleness must stay within the configured
                // cap plus the relax allowance.
                if let Some(cap) = self.opts.staleness_cap {
                    let bound = cap + if self.degraded { STALENESS_RELAX } else { 0 };
                    for e in &sampled {
                        self.audit
                            .staleness_check(e.staleness(self.version), bound, self.degraded);
                    }
                }
                if self.iterations_done >= self.cfg.warmup {
                    for e in &sampled {
                        self.report.consumed.push(ConsumedTraj {
                            staleness: e.staleness(self.version),
                            mixed_version: e.is_mixed_version(),
                        });
                    }
                }
                if now > self.trainer_free_at {
                    // Trainer sat idle waiting for the buffer to fill.
                    self.span(
                        SpanKind::Stall,
                        self.trainer_free_at,
                        now,
                        None,
                        self.version,
                        0,
                    );
                }
                self.trainer_busy = true;
                self.trainer_started = now;
                let dur = self.train.iteration_secs(tokens, self.cfg.minibatches);
                self.last_iter_duration = Duration::from_secs_f64(dur);
                let epoch = self.trainer_epoch;
                sched.after(
                    Duration::from_secs_f64(dur),
                    Ev::TrainerDone { tokens, epoch },
                );
            }
            Ev::TrainerDone { tokens, epoch } => {
                if epoch != self.trainer_epoch {
                    return; // the worker running this update failed mid-way
                }
                self.span(
                    SpanKind::TrainStep,
                    self.trainer_started,
                    now,
                    None,
                    self.version,
                    tokens as u64,
                );
                self.version += 1;
                self.checkpoints.on_version(self.version, now);
                self.trainer_busy = false;
                self.trainer_free_at = now;
                self.train_tokens_cum += tokens;
                if self.iterations_done >= self.cfg.warmup {
                    self.report
                        .iteration_secs
                        .push(now.since(self.last_train_done).as_secs_f64());
                    self.report.iteration_tokens.push(tokens);
                }
                self.last_train_done = now;
                self.iterations_done += 1;
                if !self.done() {
                    // Actor pushes to the master relay (sub-second stall) and
                    // resumes immediately; the chain broadcast completes in
                    // the background.
                    let avail = self.relay.actor_stall()
                        + self
                            .relay
                            .broadcast_time(self.cfg.rollout_gpus.div_ceil(8).max(1));
                    let v = self.version;
                    self.span(SpanKind::WeightSync, now, now + avail, None, v, 0);
                    sched.at(now + avail, Ev::WeightsAvailable { version: v });
                    sched.immediately(Ev::TrainerCheck);
                }
            }
            Ev::WeightsAvailable { version } => {
                if now < self.relay_blocked_until {
                    // Relay-tier outage: the broadcast completes only after
                    // the tier is repaired.
                    let at = self.relay_blocked_until;
                    sched.at(at, Ev::WeightsAvailable { version });
                    return;
                }
                self.relay_version = self.relay_version.max(version);
                // §5.1: a repack pass runs right after each weight update to
                // free replicas for on-policy generation quickly.
                self.run_repack(now, sched);
            }
            Ev::RepackTick => {
                // Stream in-progress state to the partial response pool
                // (step ② of Figure 5) so a machine failure loses at most
                // one monitoring interval of progress.
                let partials = &mut self.partials;
                for (r, eng) in self.engines.iter_mut().enumerate() {
                    if self.alive[r] && !self.pulling[r] {
                        eng.advance_to(now);
                        eng.for_each_in_progress(|id, tokens, segment| {
                            partials.update(id, tokens, segment, now)
                        });
                    }
                }
                self.run_repack(now, sched);
                if !self.done() {
                    sched.after(REPACK_INTERVAL, Ev::RepackTick);
                }
            }
            Ev::SampleTick => {
                self.sample_timeline(now);
                if !self.done() {
                    sched.after(self.opts.sample_every, Ev::SampleTick);
                }
            }
            Ev::Fault { idx } => self.apply_fault(idx, now, sched),
            Ev::RecoverMachine { replicas } => self.recover_machine(&replicas, now, sched),
            Ev::SlowNodeEnd { r } => self.end_slow_node(r, now, sched),
            Ev::TrainerRecover => self.trainer_recover(sched),
            Ev::AddReplicas { count } => self.add_replicas(count, now, sched),
            Ev::DegradeCheck => self.degrade_check(now),
            Ev::BreakerProbe { r } => {
                // Cooldown elapsed: if the replica is sitting idle (work
                // was blocked at the gate), admit the single probe batch.
                if self.alive[r] && !self.pulling[r] && self.engines[r].is_idle() {
                    self.refresh_and_restart(r, now, sched);
                }
            }
        }
    }
}
