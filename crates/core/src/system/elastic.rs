//! Elastic scale-out: rollout machines joining mid-run (§3.3).

use super::{Ev, World, REPLICA_BREAKER};
use laminar_rollout::ReplicaEngine;
use laminar_runtime::CircuitBreaker;
use laminar_sim::{Scheduler, Time};

impl World {
    /// Fresh rollout machines come online: each new replica initializes
    /// from the relay tier at the newest broadcast version and starts
    /// generating immediately — no global coordination with the existing
    /// replicas. The next repack tick samples it like any live replica.
    pub(super) fn add_replicas(&mut self, count: usize, now: Time, sched: &mut Scheduler<Ev>) {
        for _ in 0..count {
            let r = self.engines.len();
            self.engines.push(ReplicaEngine::new(
                r,
                self.cfg.decode_model(),
                self.engine_cfg(),
            ));
            self.alive.push(true);
            self.pulling.push(false);
            self.breakers.push(CircuitBreaker::new(REPLICA_BREAKER));
            // New machines initialize from the relay tier (§3.3).
            self.engines[r].set_weight_version(self.relay_version, now);
            self.audit.record_version(r, self.relay_version);
            self.start_batch(r, now, sched);
            self.wake(r, sched);
        }
        // Scale-out raises the alive fraction; it can end a degraded
        // episode just like machine recovery does.
        self.note_capacity(now, sched);
    }
}
