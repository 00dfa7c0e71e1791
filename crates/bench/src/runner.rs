//! Dependency-free scoped-thread work-stealing executor.
//!
//! [`run_indexed`] fans a list of independent work items across `jobs`
//! threads and returns their results **in input order**, regardless of which
//! worker ran which item or in what order they finished. Each worker owns a
//! deque seeded round-robin with a share of the items; it pops its own work
//! from the front and, once empty, steals from the back of its neighbours'
//! deques. Because every item writes its result into a slot fixed by its
//! input index, the output is byte-identical to a serial run whenever the
//! work function itself is deterministic — which is what lets
//! `laminar-experiments --jobs N` promise report- and trace-identical output
//! for every `N`.
//!
//! `jobs <= 1` (or a single item) short-circuits to a plain in-thread loop:
//! the serial path and the parallel path run exactly the same closure over
//! exactly the same items.

use std::collections::VecDeque;
use std::sync::Mutex;

/// The machine's available parallelism (1 when it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count a `jobs` request resolves to for `items` work items:
/// never more workers than items, and never more than the machine can run
/// concurrently. When this is 1 — a serial machine, a single item, or an
/// explicit `--jobs 1` — [`run_indexed`] runs strictly inline (no pool
/// spawn), and callers can skip parallel-only detours such as per-run trace
/// buffering. Output is byte-identical either way, so clamping is purely a
/// perf decision.
pub fn effective_jobs(jobs: usize, items: usize) -> usize {
    jobs.max(1).min(items.max(1)).min(default_jobs())
}

/// The shard count a `--shards` request resolves to when runs fan across
/// `jobs` worker threads: the product `jobs × shards` is clamped to the
/// machine's available parallelism (floor 1 shard). Oversubscribing cores
/// with nested shard workers inside already-parallel experiment grids only
/// adds contention — and because the sharded driver's output is
/// byte-identical at every shard count, clamping is purely a perf
/// decision, exactly like [`effective_jobs`].
pub fn effective_shards(shards: usize, jobs: usize) -> usize {
    let budget = default_jobs() / jobs.max(1);
    shards.max(1).min(budget.max(1))
}

/// Runs `f` over `items` on up to `jobs` scoped threads, returning results
/// in input order. `f` receives the item's input index alongside the item.
/// The thread pool is only spawned when [`effective_jobs`] resolves above 1;
/// a 1-CPU machine (or `jobs = 1`, or a single item) runs strictly inline.
///
/// # Panics
///
/// Propagates the first worker panic once all threads have been joined.
pub fn run_indexed<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = effective_jobs(jobs, n);
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % workers]
            .lock()
            .expect("queue lock")
            .push_back((i, item));
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                // Own deque first (front), then steal from the back of the
                // others, scanning clockwise from this worker. One deque
                // lock at a time: a worker that kept its own deque locked
                // while locking a neighbour's would deadlock against that
                // neighbour stealing back.
                let own = queues[w].lock().expect("queue lock").pop_front();
                let task = own.or_else(|| {
                    (1..workers).find_map(|k| {
                        queues[(w + k) % workers]
                            .lock()
                            .expect("queue lock")
                            .pop_back()
                    })
                });
                let Some((i, item)) = task else {
                    // All deques empty: no work is ever added after spawn,
                    // so this worker is done.
                    break;
                };
                let r = f(i, item);
                *slots[i].lock().expect("slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("every item produced a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_arrive_in_input_order() {
        for jobs in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..37).collect();
            let out = run_indexed(items, jobs, |i, x| {
                assert_eq!(i as u64, x);
                // Finish out of order: later items are faster.
                std::thread::sleep(std::time::Duration::from_micros(200 - 5 * x.min(39)));
                x * x
            });
            assert_eq!(
                out,
                (0..37).map(|x| x * x).collect::<Vec<u64>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize, x: u64| (i as u64).wrapping_mul(31).wrapping_add(x);
        let items: Vec<u64> = (0..100).map(|x| x * 7).collect();
        let serial = run_indexed(items.clone(), 1, f);
        let parallel = run_indexed(items, 6, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_indexed((0..257).collect::<Vec<i32>>(), 5, |_, x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 257);
        assert_eq!(counter.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn idle_workers_steal_from_loaded_queues() {
        // One slow item pins its owner; the remaining items must still all
        // complete (stolen by the other workers) well before the slow one
        // would have gotten to them serially.
        let out = run_indexed((0..16).collect::<Vec<u64>>(), 4, |_, x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn shards_clamp_to_the_core_budget() {
        let cores = default_jobs();
        // Serial jobs leave the whole machine to the shard workers.
        assert_eq!(effective_shards(1, 1), 1);
        assert_eq!(effective_shards(cores + 7, 1), cores);
        // jobs × shards never exceeds available parallelism…
        for jobs in 1..=cores + 2 {
            for shards in 1..=cores + 2 {
                let eff = effective_shards(shards, jobs);
                assert!(eff >= 1);
                assert!(
                    eff == 1 || jobs * eff <= cores,
                    "jobs={jobs} shards={shards} resolved to {eff} on {cores} cores"
                );
            }
        }
        // …and saturated jobs floor the shard count at 1.
        assert_eq!(effective_shards(8, cores), 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u8> = run_indexed(Vec::new(), 4, |_, x: u8| x);
        assert!(none.is_empty());
        assert_eq!(run_indexed(vec![9], 4, |_, x| x * 2), vec![18]);
    }

    /// Two workers that run dry together steal from each other at once. A
    /// worker that held its own deque's lock while taking a neighbour's
    /// deadlocked against that neighbour: thousands of tiny two-worker runs
    /// hit the race within seconds on two or more cores (one core runs
    /// inline and cannot race). A watchdog turns a deadlock into a failure.
    #[test]
    fn workers_stealing_from_each_other_never_deadlock() {
        let (done, finished) = std::sync::mpsc::channel();
        let stress = std::thread::spawn(move || {
            for _ in 0..20_000 {
                let out = run_indexed((0..8).collect::<Vec<u64>>(), 2, |_, x| x + 1);
                assert_eq!(out, (1..=8).collect::<Vec<u64>>());
            }
            done.send(()).expect("the test thread is waiting");
        });
        match finished.recv_timeout(std::time::Duration::from_secs(120)) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("run_indexed deadlocked: two workers stuck stealing from each other")
            }
            _ => stress.join().expect("stress runs return ordered results"),
        }
    }
}
