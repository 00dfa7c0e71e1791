//! Conservative-lookahead parallel discrete-event execution across
//! replica-group shards.
//!
//! The virtual-time engines of one run only interact through a handful of
//! *global interaction points* — weight publishes, experience-buffer
//! hand-offs, chaos events. Between two such points every replica's internal
//! event stream (prefill completions, env returns, segment completions, rate
//! re-evaluations) is completely independent of every other replica's, which
//! is exactly the lookahead window a conservative parallel-DES scheme needs:
//! a shard may advance its replicas' local clocks freely up to the next
//! fence, then joins a barrier before anyone crosses it.
//!
//! [`parallel_advance_chains`] is the lookahead primitive: it fans a slice
//! of engines across up to `shards` scoped worker threads, each replaying
//! its engines' mirrored wake chains ([`WakeQueue`]) up to (and including)
//! the fence instant. The scope join IS the barrier. At `shards = 1` the
//! loop runs strictly inline on the caller's thread — no pool, no
//! synchronization, byte-identical behaviour. The sharded Laminar driver
//! (`laminar_core`'s `system::sharded`) applies every cross-engine effect
//! at those barriers.
//!
//! Determinism argument, in brief: the shard partition only decides *which
//! thread* runs an engine's (already deterministic, self-contained) event
//! loop between fences; every cross-engine effect is applied single-threaded
//! at a barrier in a canonical order that no thread schedule can perturb.
//! Shard count is therefore a pure throughput knob.

use crate::engine::ReplicaEngine;
use laminar_sim::Time;

/// The pending-wake multiset of one replica, mirrored out of a serial
/// driver's central scheduler: `(time, seq)`-ordered entries tagged with
/// the engine epoch current when each was scheduled.
///
/// A serial wake-per-event driver can carry *several* live wake chains for
/// one replica — e.g. a fault sweep re-wakes every survivor without
/// invalidating their existing chains — and every chain's wakes settle the
/// engine clock at their own instants, each settlement re-basing the
/// forced rate-re-evaluation horizon. Byte identity with such a driver
/// therefore requires replaying the whole multiset in scheduler order
/// (time, then scheduling sequence), not just the earliest prediction.
#[derive(Debug, Clone, Default)]
pub struct WakeQueue {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Time, u64, u64)>>,
    seq: u64,
}

impl WakeQueue {
    /// An empty queue (no wake pending).
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirrors `Scheduler::at(at, ReplicaWake { epoch })`: queues a wake
    /// tagged with the scheduling-time engine epoch.
    pub fn push(&mut self, at: Time, epoch: u64) {
        self.heap.push(std::cmp::Reverse((at, self.seq, epoch)));
        self.seq += 1;
    }

    /// Earliest pending wake instant, if any.
    pub fn next(&self) -> Option<Time> {
        self.heap.peek().map(|&std::cmp::Reverse((t, _, _))| t)
    }

    /// Pops the earliest pending wake at or before `fence` as
    /// `(instant, epoch)`, scheduler order.
    pub fn pop_through(&mut self, fence: Time) -> Option<(Time, u64)> {
        match self.heap.peek() {
            Some(&std::cmp::Reverse((t, _, epoch))) if t <= fence => {
                self.heap.pop();
                Some((t, epoch))
            }
            _ => None,
        }
    }

    /// Consumes every pending wake at or before `fence` without firing it —
    /// what a serial driver's dead/pulling guard does to wakes that arrive
    /// while the replica cannot generate.
    pub fn discard_through(&mut self, fence: Time) {
        while self.pop_through(fence).is_some() {}
    }

    /// True when no wake is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Replays every engine's serial wake chains up to `fence` across up to
/// `shards` scoped threads — the lookahead primitive for drivers that
/// schedule one `ReplicaWake` per [`ReplicaEngine::next_event_time`]
/// prediction. `pending[r]` is replica `r`'s mirrored wake multiset (see
/// [`WakeQueue`] and [`ReplicaEngine::advance_wake_queue`]); `eligible[r]`
/// is false for replicas whose wakes a serial driver would skip at fire
/// time (dead or mid weight-pull) — their due entries are consumed without
/// effect, exactly as the serial guard does. Engines are chunked
/// contiguously, one chunk per worker, with the caller's thread working
/// the first; the scope join is the barrier.
///
/// `heads[r]` receives replica `r`'s earliest buffered completion instant
/// after the advance. Each worker computes the heads for its own chunk
/// *inside the worker thread*, overlapped with the other shards' still-
/// running advances — the caller's post-barrier hand-off scan is thereby
/// reduced to a slice merge, the overlapped portion of the central step.
/// Every buffer is caller-owned and reusable, so a hot driver loop touches
/// no allocator here (the wake queues retain their heap capacity across
/// windows for the same reason).
pub fn parallel_advance_chains(
    engines: &mut [ReplicaEngine],
    pending: &mut [WakeQueue],
    eligible: &[bool],
    heads: &mut [Option<Time>],
    fence: Time,
    shards: usize,
) {
    assert_eq!(engines.len(), pending.len(), "one wake queue per engine");
    assert_eq!(
        engines.len(),
        eligible.len(),
        "one eligibility flag per engine"
    );
    assert_eq!(engines.len(), heads.len(), "one completion head per engine");
    let live = pending
        .iter()
        .zip(eligible)
        .filter(|(q, ok)| **ok && q.next().is_some_and(|t| t <= fence))
        .count();
    let workers = shards.max(1).min(live.max(1));
    let run_one = |((e, h), (q, ok)): (
        (&mut ReplicaEngine, &mut Option<Time>),
        (&mut WakeQueue, &bool),
    )| {
        if *ok {
            e.advance_wake_queue(q, fence);
        } else {
            q.discard_through(fence);
        }
        *h = e.first_completion_time();
    };
    if workers <= 1 {
        engines
            .iter_mut()
            .zip(heads.iter_mut())
            .zip(pending.iter_mut().zip(eligible))
            .for_each(run_one);
        return;
    }
    let chunk = engines.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let mut rest_e = engines;
        let mut rest_h = heads;
        let mut rest_q = pending;
        let mut rest_ok = eligible;
        let mut handles = Vec::new();
        #[allow(clippy::type_complexity)]
        let mut first: Option<(
            &mut [ReplicaEngine],
            &mut [Option<Time>],
            &mut [WakeQueue],
            &[bool],
        )> = None;
        for w in 0..workers {
            let take = chunk.min(rest_e.len());
            let (mine_e, tail_e) = rest_e.split_at_mut(take);
            let (mine_h, tail_h) = rest_h.split_at_mut(take);
            let (mine_q, tail_q) = rest_q.split_at_mut(take);
            let (mine_ok, tail_ok) = rest_ok.split_at(take);
            rest_e = tail_e;
            rest_h = tail_h;
            rest_q = tail_q;
            rest_ok = tail_ok;
            if w == 0 {
                first = Some((mine_e, mine_h, mine_q, mine_ok));
            } else if !mine_e.is_empty() {
                handles.push(scope.spawn(move || {
                    mine_e
                        .iter_mut()
                        .zip(mine_h.iter_mut())
                        .zip(mine_q.iter_mut().zip(mine_ok))
                        .for_each(run_one);
                }));
            }
        }
        if let Some((mine_e, mine_h, mine_q, mine_ok)) = first {
            mine_e
                .iter_mut()
                .zip(mine_h.iter_mut())
                .zip(mine_q.iter_mut().zip(mine_ok))
                .for_each(run_one);
        }
        for h in handles {
            h.join().expect("shard worker panicked");
        }
    });
}
