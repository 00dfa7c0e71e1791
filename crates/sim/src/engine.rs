//! The event queue and simulation driver.

use crate::time::{Duration, Time};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A world of simulated components.
///
/// The world owns all mutable state; the engine only owns the clock and the
/// pending-event queue. Handlers receive the current instant and may schedule
/// follow-up events through the [`Scheduler`].
pub trait SimWorld {
    /// The event alphabet of this world.
    type Event;

    /// Delivers one event. Called exactly once per scheduled event, in
    /// non-decreasing time order.
    fn handle(&mut self, now: Time, ev: Self::Event, sched: &mut Scheduler<Self::Event>);
}

#[derive(Clone)]
struct Scheduled<E> {
    at: Time,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties FIFO, which makes runs deterministic.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The clock plus the pending-event queue.
///
/// Cloning (for `E: Clone`) copies the queue's backing storage verbatim, so
/// a clone pops events in exactly the same order as the original — the
/// property the checkpoint/restore plane relies on for byte-identical
/// resumption.
#[derive(Clone)]
pub struct Scheduler<E> {
    now: Time,
    seq: u64,
    delivered: u64,
    queue: BinaryHeap<Scheduled<E>>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            now: Time::ZERO,
            seq: 0,
            delivered: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total number of events ever scheduled (the sequence counter). With
    /// [`Scheduler::now`] and [`Scheduler::delivered`] this identifies the
    /// exact point a deterministic run has reached — the checkpoint plane
    /// folds all three into its state fingerprint.
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `ev` at absolute time `at`. Scheduling in the past is a
    /// logic error; the event is clamped to "now" so time never runs
    /// backwards, which keeps model bugs observable rather than corrupting
    /// the clock.
    pub fn at(&mut self, at: Time, ev: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, ev });
    }

    /// Schedules `ev` after `delay` from the current instant.
    pub fn after(&mut self, delay: Duration, ev: E) {
        self.at(self.now + delay, ev);
    }

    /// Schedules `ev` for immediate delivery (after already-queued events at
    /// the current instant).
    pub fn immediately(&mut self, ev: E) {
        self.at(self.now, ev);
    }

    /// Time of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<Time> {
        self.queue.peek().map(|s| s.at)
    }

    /// The next pending event as `(at, seq, &ev)` without delivering it —
    /// what a driver that must *classify* the next event before deciding
    /// whether to deliver it needs (the sharded fence-window micro-loop).
    pub fn peek(&self) -> Option<(Time, u64, &E)> {
        self.queue.peek().map(|s| (s.at, s.seq, &s.ev))
    }

    /// Every pending event as `(at, seq, &ev)` in canonical `(at, seq)`
    /// order. `(at, seq)` is a total order over scheduled events, so this
    /// sorted view determines the exact pop sequence regardless of the
    /// heap's internal layout — it is the checkpoint plane's canonical
    /// encoding of the queue (one chunk per pending event, stable keys
    /// while an event waits).
    pub fn pending_entries(&self) -> Vec<(Time, u64, &E)> {
        let mut out: Vec<(Time, u64, &E)> =
            self.queue.iter().map(|s| (s.at, s.seq, &s.ev)).collect();
        out.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        out
    }

    /// Visits every pending event as `(at, seq, &ev)` in *heap* (arbitrary)
    /// order, without allocating. Callers that need the canonical pop order
    /// collect into a reusable buffer and sort by `(at, seq)` themselves —
    /// the allocation-free complement of [`Scheduler::pending_entries`] for
    /// hot loops (the sharded driver's window planner scans the queue every
    /// fence window).
    pub fn scan_pending<F: FnMut(Time, u64, &E)>(&self, mut f: F) {
        for s in self.queue.iter() {
            f(s.at, s.seq, &s.ev);
        }
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        let s = self.queue.pop()?;
        debug_assert!(s.at >= self.now, "event queue moved backwards");
        self.now = s.at;
        self.delivered += 1;
        Some((s.at, s.ev))
    }
}

/// A world paired with its scheduler: the complete simulation state.
pub struct Simulation<W: SimWorld> {
    /// The user world holding all component state.
    pub world: W,
    /// The clock and the pending-event queue.
    pub scheduler: Scheduler<W::Event>,
}

impl<W: SimWorld + Clone> Clone for Simulation<W>
where
    W::Event: Clone,
{
    fn clone(&self) -> Self {
        Simulation {
            world: self.world.clone(),
            scheduler: self.scheduler.clone(),
        }
    }
}

impl<W: SimWorld> Simulation<W> {
    /// Wraps a world with a fresh scheduler at time zero.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            scheduler: Scheduler::new(),
        }
    }

    /// Delivers the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        match self.scheduler.pop() {
            Some((now, ev)) => {
                self.world.handle(now, ev, &mut self.scheduler);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue drains. Returns the final instant.
    pub fn run_to_completion(&mut self) -> Time {
        while self.step() {}
        self.scheduler.now()
    }

    /// Runs until `pred` holds on the world, the queue drains, or the event
    /// budget is exhausted. Returns `true` if the predicate was met.
    pub fn run_while<F: FnMut(&W) -> bool>(&mut self, mut keep_going: F, max_events: u64) -> bool {
        let mut budget = max_events;
        while keep_going(&self.world) {
            if budget == 0 || !self.step() {
                return !keep_going(&self.world);
            }
            budget -= 1;
        }
        true
    }

    /// Like [`Simulation::run_while`], but also pauses once the next pending
    /// event lies strictly after `deadline` — leaving the simulation at a
    /// well-defined between-events instant, which is exactly where the
    /// checkpoint plane takes its snapshots. Returns `true` if the predicate
    /// was met (the run finished), `false` if it paused at the deadline, the
    /// queue drained, or the budget ran out first.
    pub fn run_while_until<F: FnMut(&W) -> bool>(
        &mut self,
        mut keep_going: F,
        deadline: Time,
        max_events: u64,
    ) -> bool {
        let mut budget = max_events;
        while keep_going(&self.world) {
            match self.scheduler.next_event_time() {
                Some(t) if t <= deadline => {
                    if budget == 0 {
                        return false;
                    }
                    self.step();
                    budget -= 1;
                }
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    impl SimWorld for Recorder {
        type Event = u32;
        fn handle(&mut self, now: Time, ev: u32, _s: &mut Scheduler<u32>) {
            self.seen.push((now.as_nanos(), ev));
        }
    }

    #[test]
    fn events_deliver_in_time_order() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler.at(Time::from_nanos(30), 3);
        sim.scheduler.at(Time::from_nanos(10), 1);
        sim.scheduler.at(Time::from_nanos(20), 2);
        sim.run_to_completion();
        assert_eq!(sim.world.seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_deliver_fifo() {
        let mut sim = Simulation::new(Recorder::default());
        for i in 0..100 {
            sim.scheduler.at(Time::from_nanos(5), i);
        }
        sim.run_to_completion();
        let order: Vec<u32> = sim.world.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_clamp_to_now() {
        struct Clamper {
            delivered_at: Vec<u64>,
        }
        impl SimWorld for Clamper {
            type Event = bool;
            fn handle(&mut self, now: Time, first: bool, s: &mut Scheduler<bool>) {
                self.delivered_at.push(now.as_nanos());
                if first {
                    // Attempt to schedule into the past.
                    s.at(Time::from_nanos(1), false);
                }
            }
        }
        let mut sim = Simulation::new(Clamper {
            delivered_at: vec![],
        });
        sim.scheduler.at(Time::from_nanos(100), true);
        sim.run_to_completion();
        assert_eq!(sim.world.delivered_at, vec![100, 100]);
    }

    #[test]
    fn run_while_respects_predicate_and_budget() {
        struct Ticker {
            n: u32,
        }
        impl SimWorld for Ticker {
            type Event = ();
            fn handle(&mut self, _now: Time, _ev: (), s: &mut Scheduler<()>) {
                self.n += 1;
                s.after(Duration::from_secs(1), ());
            }
        }
        let mut sim = Simulation::new(Ticker { n: 0 });
        sim.scheduler.immediately(());
        let met = sim.run_while(|w| w.n < 5, 1_000);
        assert!(met);
        assert_eq!(sim.world.n, 5);

        let mut sim = Simulation::new(Ticker { n: 0 });
        sim.scheduler.immediately(());
        let met = sim.run_while(|w| w.n < 5, 2);
        assert!(!met);
    }

    #[test]
    fn run_while_until_pauses_between_events() {
        struct Ticker {
            n: u32,
        }
        impl SimWorld for Ticker {
            type Event = ();
            fn handle(&mut self, _now: Time, _ev: (), s: &mut Scheduler<()>) {
                self.n += 1;
                s.after(Duration::from_secs(1), ());
            }
        }
        let mut sim = Simulation::new(Ticker { n: 0 });
        sim.scheduler.immediately(());
        // Events land at t=0,1,2,3s; the 4s deadline admits four of them.
        let met = sim.run_while_until(|w| w.n < 100, Time::from_secs(3), 1_000);
        assert!(!met, "paused at the deadline, predicate unmet");
        assert_eq!(sim.world.n, 4);
        assert_eq!(
            sim.scheduler.next_event_time(),
            Some(Time::from_secs(4)),
            "next event left queued strictly after the deadline"
        );
        let met = sim.run_while_until(|w| w.n < 6, Time::from_secs(1_000), 1_000);
        assert!(met, "resuming past the deadline finishes the predicate");
        assert_eq!(sim.world.n, 6);
    }

    #[test]
    fn cloned_simulation_replays_identically() {
        #[derive(Clone, Default)]
        struct Chain {
            seen: Vec<(u64, u32)>,
        }
        impl SimWorld for Chain {
            type Event = u32;
            fn handle(&mut self, now: Time, ev: u32, s: &mut Scheduler<u32>) {
                self.seen.push((now.as_nanos(), ev));
                // Fan out: ties at the same instant stress FIFO order. The
                // double spawn makes the event count grow like Fibonacci in
                // the threshold, so keep it small: 18 yields ~10k events.
                if ev < 18 {
                    s.after(Duration::from_nanos(ev as u64 % 3), ev + 1);
                    s.after(Duration::from_nanos(2), ev + 2);
                }
            }
        }
        let mut sim = Simulation::new(Chain::default());
        sim.scheduler.at(Time::from_nanos(5), 0);
        sim.run_while(|w| w.seen.len() < 17, 1_000_000);
        let snapshot = sim.clone();
        assert_eq!(snapshot.scheduler.scheduled(), sim.scheduler.scheduled());
        sim.run_to_completion();
        let mut resumed = snapshot;
        resumed.run_to_completion();
        assert_eq!(
            resumed.world.seen, sim.world.seen,
            "a cloned simulation must replay the identical event sequence"
        );
        assert_eq!(resumed.scheduler.now(), sim.scheduler.now());
        assert_eq!(resumed.scheduler.delivered(), sim.scheduler.delivered());
    }

    #[test]
    fn delivered_counts_events() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler.at(Time::from_nanos(1), 1);
        sim.scheduler.at(Time::from_nanos(2), 2);
        sim.run_to_completion();
        assert_eq!(sim.scheduler.delivered(), 2);
    }
}
