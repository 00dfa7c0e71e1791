//! A real multi-threaded relay tier.
//!
//! Each relay worker is a thread holding the latest weight version in its
//! local store (modelling pinned host memory on a rollout machine). The
//! manager chunks a published weight blob and injects the chunks at the
//! master relay; every relay forwards each chunk to its chain successor
//! *before* finishing assembly, giving the pipelined broadcast of §4.2.
//! Heartbeat monitoring detects failed relays; [`RelayTier::repair`]
//! evicts them, relinks the chain in O(alive) pointer updates (O(1) per
//! failure), re-elects the master if needed, and re-broadcasts the latest
//! version so every survivor converges (§4.3).
//!
//! Hop cost is configurable (`seconds/byte` + startup) so a broadcast takes
//! real time on real threads: failure tests strike mid-broadcast, and the
//! Figure 18 experiment and the `relay_broadcast` example show the
//! *pipelining* property — broadcast time ≈ one blob transit plus a per-hop
//! chunk latency, nearly independent of chain length — beside the analytic
//! model.

use crate::bytes::Bytes;
use crate::chunk::{chunk_ranges, shard_ranges};
use laminar_sim::{
    BreakerConfig, CircuitBreaker, Duration as SimDuration, RetryPolicy, Time as SimTime,
};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration as StdDuration, Instant};

/// One complete weight snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightVersion {
    /// Monotonic actor version number.
    pub version: u64,
    /// The weight bytes.
    pub data: Bytes,
}

enum Command {
    Chunk {
        version: u64,
        index: u32,
        total: u32,
        data: Bytes,
    },
    SetNext(Option<Sender<Command>>),
    Ping(Sender<usize>),
    Fail,
    Poison,
    Shutdown,
}

type Store = Arc<RwLock<Option<WeightVersion>>>;

struct Assembly {
    total: u32,
    received: Vec<Option<Bytes>>,
    count: u32,
}

struct NodeHandle {
    cmd: Sender<Command>,
    store: Store,
    alive: bool,
    thread: Option<JoinHandle<()>>,
}

/// Relay tier configuration.
#[derive(Debug, Clone)]
pub struct RelayTierConfig {
    /// Relay worker count (one per rollout machine in the paper).
    pub nodes: usize,
    /// Broadcast chunk size in bytes.
    pub chunk_bytes: usize,
    /// Simulated per-hop transfer cost, seconds per byte (0 = as fast as
    /// the channels go).
    pub hop_seconds_per_byte: f64,
    /// Simulated per-hop per-chunk startup latency, seconds.
    pub hop_startup: f64,
    /// Heartbeat reply deadline; a relay silent past this is failed.
    pub heartbeat_timeout: StdDuration,
    /// Per-node circuit-breaker tuning: a relay missing this many
    /// consecutive heartbeats is quarantined, so later sweeps report it
    /// failed without paying another full deadline.
    pub breaker: BreakerConfig,
    /// Backoff policy bounding post-repair re-broadcast retries in
    /// [`RelayTier::repair_converged`].
    pub repair_retry: RetryPolicy,
}

impl RelayTierConfig {
    /// Fast defaults for `nodes` relays: 256 KiB chunks, no simulated hop
    /// cost, 100 ms heartbeat deadline, breaker tripping on two missed
    /// heartbeats, ~1.5 s worst-case repair-retry budget.
    pub fn fast(nodes: usize) -> Self {
        RelayTierConfig {
            nodes,
            chunk_bytes: 256 * 1024,
            hop_seconds_per_byte: 0.0,
            hop_startup: 0.0,
            heartbeat_timeout: StdDuration::from_millis(100),
            breaker: BreakerConfig {
                failure_threshold: 2,
                window: SimDuration::from_secs(30),
                cooldown: SimDuration::from_secs(5),
            },
            repair_retry: RetryPolicy {
                base: SimDuration::from_millis(50),
                factor: 2.0,
                max_delay: SimDuration::from_secs(1),
                max_retries: 5,
                jitter: 0.0,
            },
        }
    }
}

/// Outcome of a [`RelayTier::repair`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// Relays found dead this pass.
    pub failed: Vec<usize>,
    /// Wall time spent relinking the chain (excludes re-broadcast).
    pub rebuild: StdDuration,
    /// Master relay after the repair.
    pub master: usize,
    /// Whether the latest version was re-broadcast.
    pub rebroadcast: bool,
}

/// The relay tier: manager plus worker threads.
pub struct RelayTier {
    cfg: RelayTierConfig,
    nodes: Vec<NodeHandle>,
    chain: Vec<usize>,
    latest: Option<WeightVersion>,
    publishes: u64,
    rebroadcasts: u64,
    breakers: Vec<CircuitBreaker>,
    epoch: Instant,
}

impl RelayTier {
    /// Spawns `cfg.nodes` relay workers linked in a chain, node 0 as master.
    pub fn new(cfg: RelayTierConfig) -> Self {
        assert!(cfg.nodes >= 1, "relay tier needs at least one node");
        assert!(cfg.chunk_bytes >= 1, "chunk size must be positive");
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for id in 0..cfg.nodes {
            let (tx, rx) = channel();
            let store: Store = Arc::new(RwLock::new(None));
            let st = store.clone();
            let hop_spb = cfg.hop_seconds_per_byte;
            let hop_start = cfg.hop_startup;
            let thread = thread::Builder::new()
                .name(format!("relay-{id}"))
                .spawn(move || node_loop(id, rx, st, hop_spb, hop_start))
                .expect("spawn relay worker");
            nodes.push(NodeHandle {
                cmd: tx,
                store,
                alive: true,
                thread: Some(thread),
            });
        }
        let chain: Vec<usize> = (0..cfg.nodes).collect();
        let breakers = vec![CircuitBreaker::new(cfg.breaker); cfg.nodes];
        let mut tier = RelayTier {
            cfg,
            nodes,
            chain,
            latest: None,
            publishes: 0,
            rebroadcasts: 0,
            breakers,
            epoch: Instant::now(),
        };
        tier.relink_chain();
        tier
    }

    /// Current master relay id.
    pub fn master(&self) -> usize {
        self.chain[0]
    }

    /// Ids of relays currently believed alive.
    pub fn alive_nodes(&self) -> Vec<usize> {
        self.chain.clone()
    }

    /// Total publishes (actor pushes) so far.
    pub fn publishes(&self) -> u64 {
        self.publishes
    }

    /// Total repair-triggered re-broadcasts.
    pub fn rebroadcasts(&self) -> u64 {
        self.rebroadcasts
    }

    /// Times relay `id`'s heartbeat circuit breaker has tripped (`None` if
    /// the id is out of range).
    pub fn breaker_trips(&self, id: usize) -> Option<u64> {
        self.breakers.get(id).map(|b| b.trips())
    }

    /// Wall time since tier construction, mapped onto the virtual-time axis
    /// the policy primitives speak.
    fn wall_now(&self) -> SimTime {
        SimTime::from_secs_f64(self.epoch.elapsed().as_secs_f64())
    }

    fn relink_chain(&mut self) {
        for w in self.chain.windows(2) {
            let next = self.nodes[w[1]].cmd.clone();
            let _ = self.nodes[w[0]].cmd.send(Command::SetNext(Some(next)));
        }
        if let Some(&last) = self.chain.last() {
            let _ = self.nodes[last].cmd.send(Command::SetNext(None));
        }
    }

    fn send_version_to_master(&self, wv: &WeightVersion) {
        let ranges = chunk_ranges(wv.data.len(), wv.data.len().div_ceil(self.cfg.chunk_bytes));
        let total = ranges.len() as u32;
        let master = &self.nodes[self.master()];
        for (i, r) in ranges.into_iter().enumerate() {
            let _ = master.cmd.send(Command::Chunk {
                version: wv.version,
                index: i as u32,
                total,
                data: wv.data.slice(r),
            });
        }
    }

    /// Actor push: publishes a new weight version to the master relay and
    /// returns immediately; the broadcast proceeds in the background
    /// (step ⑤/⑥ of Figure 5). Versions must be monotonically increasing.
    pub fn publish(&mut self, version: u64, data: Bytes) {
        if let Some(prev) = &self.latest {
            assert!(version > prev.version, "weight versions must increase");
        }
        let wv = WeightVersion { version, data };
        self.send_version_to_master(&wv);
        self.latest = Some(wv);
        self.publishes += 1;
    }

    /// Rollout pull: the full latest version resident on relay `id`
    /// (colocated PCIe load in the paper). `None` if nothing arrived yet or
    /// the id is out of range.
    pub fn pull(&self, id: usize) -> Option<WeightVersion> {
        // A worker that died mid-write leaves the lock poisoned; the store
        // itself only ever holds complete versions (assembly happens in
        // worker-local buffers), so recover the guard and keep serving.
        self.nodes
            .get(id)?
            .store
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Rollout pull of one TP shard: rank `rank` of a `tp`-way replica gets
    /// its resharded slice of the latest version on relay `id`.
    pub fn pull_shard(&self, id: usize, rank: usize, tp: usize) -> Option<(u64, Bytes)> {
        assert!(rank < tp.max(1), "rank out of range");
        let wv = self.pull(id)?;
        let range = shard_ranges(wv.data.len(), tp)[rank].clone();
        Some((wv.version, wv.data.slice(range)))
    }

    /// Version resident on relay `id`, if any.
    pub fn node_version(&self, id: usize) -> Option<u64> {
        self.nodes
            .get(id)?
            .store
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|w| w.version)
    }

    /// Blocks until every alive relay holds `version` (or newer), up to
    /// `timeout`. Returns whether convergence was reached.
    pub fn wait_converged(&self, version: u64, timeout: StdDuration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let done = self
                .chain
                .iter()
                .all(|&id| self.node_version(id).is_some_and(|v| v >= version));
            if done {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(StdDuration::from_micros(200));
        }
    }

    /// Fault injection: relay `id` stops responding (hangs) — it neither
    /// forwards chunks nor answers heartbeats, like a wedged host process.
    pub fn kill(&mut self, id: usize) {
        if let Some(n) = self.nodes.get(id) {
            let _ = n.cmd.send(Command::Fail);
        }
    }

    /// Fault injection: relay `id`'s worker crashes *while holding its
    /// store write lock*, poisoning the lock mid-write — the worst-case
    /// variant of [`RelayTier::kill`]. Pulls must keep serving the last
    /// complete version and repair must evict the dead worker.
    pub fn poison(&mut self, id: usize) {
        if let Some(n) = self.nodes.get(id) {
            let _ = n.cmd.send(Command::Poison);
        }
    }

    /// One heartbeat pass over the relays currently believed alive; returns
    /// the ids that missed the deadline.
    ///
    /// All pings go out first and replies are collected against one shared
    /// deadline, so detection latency is one `heartbeat_timeout` regardless
    /// of how many relays are dead — not O(n × deadline) as a sequential
    /// per-relay `recv_timeout` would be.
    ///
    /// Each relay carries a circuit breaker fed by sweep outcomes: a node
    /// whose breaker is open (it missed `breaker.failure_threshold`
    /// consecutive sweeps) is reported failed immediately, without being
    /// pinged — a flapping or wedged relay stops costing a deadline per
    /// sweep until its cooldown admits a probe.
    pub fn heartbeat(&mut self) -> Vec<usize> {
        let now = self.wall_now();
        let mut failed = Vec::new();
        let mut pending: Vec<(usize, Receiver<usize>)> = Vec::new();
        for &id in &self.chain {
            if !self.breakers[id].allow(now) {
                failed.push(id);
                continue;
            }
            let (tx, rx) = channel();
            let _ = self.nodes[id].cmd.send(Command::Ping(tx));
            pending.push((id, rx));
        }
        let deadline = Instant::now() + self.cfg.heartbeat_timeout;
        for (id, rx) in pending {
            let left = deadline.saturating_duration_since(Instant::now());
            if rx.recv_timeout(left).is_err() {
                let miss_at = self.wall_now();
                self.breakers[id].record_failure(miss_at);
                failed.push(id);
            } else {
                self.breakers[id].record_success();
            }
        }
        failed.sort_unstable();
        failed
    }

    /// Full repair pass (§4.3): heartbeat-detect failures, evict them,
    /// relink the broadcast chain among survivors, re-elect the master if it
    /// died, and re-broadcast the latest version so in-flight deliveries cut
    /// off by the failure still converge. Panics if every relay has failed.
    pub fn repair(&mut self) -> RepairReport {
        let failed = self.heartbeat();
        let start = Instant::now();
        self.evict(&failed);
        let rebuild = start.elapsed();
        let rebroadcast = !failed.is_empty() && self.latest.is_some();
        if rebroadcast {
            let wv = self.latest.clone().expect("latest checked above");
            self.send_version_to_master(&wv);
            self.rebroadcasts += 1;
        }
        RepairReport {
            failed,
            rebuild,
            master: self.master(),
            rebroadcast,
        }
    }

    fn evict(&mut self, failed: &[usize]) {
        if failed.is_empty() {
            return;
        }
        self.chain.retain(|id| !failed.contains(id));
        assert!(!self.chain.is_empty(), "all relay workers failed");
        for &id in failed {
            self.nodes[id].alive = false;
        }
        self.relink_chain();
    }

    /// [`RelayTier::repair`], then drive the post-repair re-broadcast to
    /// convergence under the configured [`RetryPolicy`]: attempt `k` waits
    /// `repair_retry.raw_delay(k)` for every survivor to hold the latest
    /// version; on timeout the tier re-sweeps (evicting any relay that died
    /// *during* the re-broadcast) and re-sends. Returns the repair report
    /// and whether convergence was reached within the bounded retry budget
    /// — the caller must degrade rather than wait forever when it wasn't.
    pub fn repair_converged(&mut self) -> (RepairReport, bool) {
        let report = self.repair();
        let Some(version) = self.latest.as_ref().map(|w| w.version) else {
            return (report, true);
        };
        if !report.rebroadcast {
            return (report, true);
        }
        let mut attempt = 0;
        loop {
            let Some(wait) = self.cfg.repair_retry.raw_delay(attempt) else {
                return (report, false);
            };
            let wait = StdDuration::from_secs_f64(wait.as_secs_f64());
            if self.wait_converged(version, wait) {
                return (report, true);
            }
            let failed = self.heartbeat();
            self.evict(&failed);
            let wv = self.latest.clone().expect("latest checked above");
            self.send_version_to_master(&wv);
            self.rebroadcasts += 1;
            attempt += 1;
        }
    }

    /// Elastically adds a fresh relay at the end of the chain (replacement
    /// machine arriving, §3.3). It receives the latest version immediately
    /// by a targeted catch-up send. Returns the new relay's id.
    pub fn add_node(&mut self) -> usize {
        let id = self.nodes.len();
        let (tx, rx) = channel();
        let store: Store = Arc::new(RwLock::new(None));
        let st = store.clone();
        let hop_spb = self.cfg.hop_seconds_per_byte;
        let hop_start = self.cfg.hop_startup;
        let thread = thread::Builder::new()
            .name(format!("relay-{id}"))
            .spawn(move || node_loop(id, rx, st, hop_spb, hop_start))
            .expect("spawn relay worker");
        self.nodes.push(NodeHandle {
            cmd: tx,
            store,
            alive: true,
            thread: Some(thread),
        });
        self.breakers.push(CircuitBreaker::new(self.cfg.breaker));
        self.chain.push(id);
        self.relink_chain();
        if let Some(wv) = self.latest.clone() {
            // Catch-up: send directly to the newcomer (it is the chain tail,
            // so nothing is forwarded twice).
            let ranges = chunk_ranges(wv.data.len(), wv.data.len().div_ceil(self.cfg.chunk_bytes));
            let total = ranges.len() as u32;
            for (i, r) in ranges.into_iter().enumerate() {
                let _ = self.nodes[id].cmd.send(Command::Chunk {
                    version: wv.version,
                    index: i as u32,
                    total,
                    data: wv.data.slice(r),
                });
            }
        }
        id
    }

    /// Stops all worker threads and joins them.
    pub fn shutdown(mut self) {
        for n in &self.nodes {
            let _ = n.cmd.send(Command::Shutdown);
        }
        for n in &mut self.nodes {
            if let Some(t) = n.thread.take() {
                let _ = t.join();
            }
        }
    }
}

fn node_loop(
    _id: usize,
    inbox: Receiver<Command>,
    store: Store,
    hop_seconds_per_byte: f64,
    hop_startup: f64,
) {
    let mut next: Option<Sender<Command>> = None;
    let mut failed = false;
    let mut assemblies: HashMap<u64, Assembly> = HashMap::new();
    while let Ok(cmd) = inbox.recv() {
        match cmd {
            Command::Chunk {
                version,
                index,
                total,
                data,
            } => {
                if failed {
                    continue;
                }
                // Simulated hop transfer cost, paid before the chunk is
                // visible downstream — this is what serializes chunks at
                // each hop and produces pipelined timing.
                if hop_seconds_per_byte > 0.0 || hop_startup > 0.0 {
                    let secs = hop_startup + data.len() as f64 * hop_seconds_per_byte;
                    thread::sleep(StdDuration::from_secs_f64(secs));
                }
                if let Some(n) = &next {
                    let _ = n.send(Command::Chunk {
                        version,
                        index,
                        total,
                        data: data.clone(),
                    });
                }
                let have = store
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .as_ref()
                    .map(|w| w.version);
                if have.is_some_and(|v| v >= version) {
                    continue; // already assembled (duplicate from a repair)
                }
                // Keep only the newest assembly to bound memory.
                assemblies.retain(|&v, _| v >= version);
                let a = assemblies.entry(version).or_insert_with(|| Assembly {
                    total,
                    received: vec![None; total as usize],
                    count: 0,
                });
                let slot = &mut a.received[index as usize];
                if slot.is_none() {
                    *slot = Some(data);
                    a.count += 1;
                }
                if a.count == a.total {
                    let a = assemblies.remove(&version).expect("assembly exists");
                    let mut blob = Vec::with_capacity(
                        a.received
                            .iter()
                            .map(|c| c.as_ref().map_or(0, |b| b.len()))
                            .sum(),
                    );
                    for c in a.received {
                        blob.extend_from_slice(&c.expect("all chunks received"));
                    }
                    let mut w = store.write().unwrap_or_else(PoisonError::into_inner);
                    if w.as_ref().is_none_or(|cur| cur.version < version) {
                        *w = Some(WeightVersion {
                            version,
                            data: Bytes::from(blob),
                        });
                    }
                }
            }
            Command::SetNext(n) => {
                if !failed {
                    next = n;
                }
            }
            Command::Ping(reply) => {
                if !failed {
                    let _ = reply.send(_id);
                }
            }
            Command::Fail => {
                failed = true;
                next = None;
            }
            Command::Poison => {
                // Crash while holding the store write lock: the thread dies
                // and the RwLock is left poisoned, exactly like a worker
                // panicking mid-write in production.
                let _guard = store.write().unwrap_or_else(PoisonError::into_inner);
                panic!("relay {_id}: injected crash while holding the store lock");
            }
            Command::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(len: usize, tag: u8) -> Bytes {
        Bytes::from((0..len).map(|i| (i as u8) ^ tag).collect::<Vec<u8>>())
    }

    /// Regression: heartbeat used a sequential per-relay `recv_timeout`, so
    /// k dead relays cost k × deadline. With all pings sent up front and
    /// replies collected against one shared deadline, two dead relays must
    /// be detected in about one deadline, not two.
    #[test]
    fn heartbeat_detects_multiple_failures_in_one_deadline() {
        let deadline = StdDuration::from_millis(200);
        let mut tier = RelayTier::new(RelayTierConfig {
            heartbeat_timeout: deadline,
            ..RelayTierConfig::fast(12)
        });
        tier.kill(3);
        tier.kill(7);
        let start = Instant::now();
        let failed = tier.heartbeat();
        let elapsed = start.elapsed();
        assert_eq!(failed, vec![3, 7]);
        // Sequential detection would take ≥ 2 × 200 ms; shared-deadline
        // detection takes ~1 × 200 ms. The margin absorbs slow CI machines.
        assert!(
            elapsed < deadline * 2,
            "two dead relays must not pay two deadlines: {elapsed:?}"
        );
        tier.shutdown();
    }

    #[test]
    fn broadcast_converges_all_nodes() {
        let mut tier = RelayTier::new(RelayTierConfig::fast(8));
        let data = blob(1 << 20, 0xA5);
        tier.publish(1, data.clone());
        assert!(tier.wait_converged(1, StdDuration::from_secs(5)));
        for id in 0..8 {
            let wv = tier.pull(id).expect("version present");
            assert_eq!(wv.version, 1);
            assert_eq!(wv.data, data);
        }
        tier.shutdown();
    }

    #[test]
    fn newer_version_supersedes_older() {
        let mut tier = RelayTier::new(RelayTierConfig::fast(4));
        tier.publish(1, blob(4096, 1));
        tier.publish(2, blob(4096, 2));
        assert!(tier.wait_converged(2, StdDuration::from_secs(5)));
        for id in 0..4 {
            assert_eq!(tier.node_version(id), Some(2));
        }
        tier.shutdown();
    }

    #[test]
    #[should_panic(expected = "versions must increase")]
    fn non_monotonic_publish_rejected() {
        let mut tier = RelayTier::new(RelayTierConfig::fast(2));
        tier.publish(3, blob(16, 0));
        tier.publish(3, blob(16, 1));
    }

    #[test]
    fn shard_pull_reassembles_to_full_blob() {
        let mut tier = RelayTier::new(RelayTierConfig::fast(3));
        let data = blob(1000, 0x3C);
        tier.publish(1, data.clone());
        assert!(tier.wait_converged(1, StdDuration::from_secs(5)));
        let mut rebuilt = Vec::new();
        for rank in 0..4 {
            let (v, shard) = tier.pull_shard(2, rank, 4).expect("shard present");
            assert_eq!(v, 1);
            rebuilt.extend_from_slice(&shard);
        }
        assert_eq!(Bytes::from(rebuilt), data);
        tier.shutdown();
    }

    #[test]
    fn mid_chain_failure_repaired_and_converges() {
        let mut tier = RelayTier::new(RelayTierConfig::fast(6));
        tier.publish(1, blob(1 << 18, 7));
        assert!(tier.wait_converged(1, StdDuration::from_secs(5)));
        // Kill a mid-chain relay, then publish a new version: downstream of
        // the failure would never receive it without repair.
        tier.kill(3);
        let report = tier.repair();
        assert_eq!(report.failed, vec![3]);
        assert_eq!(report.master, 0);
        assert!(
            report.rebuild < StdDuration::from_secs(1),
            "rebuild must be fast"
        );
        tier.publish(2, blob(1 << 18, 9));
        assert!(tier.wait_converged(2, StdDuration::from_secs(5)));
        assert_eq!(tier.alive_nodes(), vec![0, 1, 2, 4, 5]);
        tier.shutdown();
    }

    #[test]
    fn failure_during_broadcast_recovers_via_rebroadcast() {
        let mut tier = RelayTier::new(RelayTierConfig {
            // Slow hops so the kill lands mid-broadcast.
            hop_seconds_per_byte: 2e-9,
            hop_startup: 1e-4,
            ..RelayTierConfig::fast(6)
        });
        tier.publish(1, blob(1 << 22, 0x55)); // 4 MiB, ~8ms+ per hop
        tier.kill(2);
        // Give the broadcast time to wedge at the dead node.
        thread::sleep(StdDuration::from_millis(30));
        let report = tier.repair();
        assert_eq!(report.failed, vec![2]);
        assert!(report.rebroadcast);
        assert!(
            tier.wait_converged(1, StdDuration::from_secs(10)),
            "survivors must converge after repair"
        );
        tier.shutdown();
    }

    #[test]
    fn master_failure_elects_new_master() {
        let mut tier = RelayTier::new(RelayTierConfig::fast(4));
        tier.publish(1, blob(8192, 1));
        assert!(tier.wait_converged(1, StdDuration::from_secs(5)));
        tier.kill(0);
        let report = tier.repair();
        assert_eq!(report.failed, vec![0]);
        assert_eq!(report.master, 1);
        // The actor keeps publishing to the new master.
        tier.publish(2, blob(8192, 2));
        assert!(tier.wait_converged(2, StdDuration::from_secs(5)));
        tier.shutdown();
    }

    #[test]
    fn added_node_catches_up_to_latest() {
        let mut tier = RelayTier::new(RelayTierConfig::fast(3));
        let data = blob(65_536, 0x42);
        tier.publish(5, data.clone());
        assert!(tier.wait_converged(5, StdDuration::from_secs(5)));
        let id = tier.add_node();
        assert_eq!(id, 3);
        assert!(tier.wait_converged(5, StdDuration::from_secs(5)));
        assert_eq!(tier.pull(id).expect("caught up").data, data);
        // And it participates in future broadcasts.
        tier.publish(6, blob(65_536, 0x43));
        assert!(tier.wait_converged(6, StdDuration::from_secs(5)));
        tier.shutdown();
    }

    /// Pipelining (§4.2), checked without a clock: a relay forwards each
    /// chunk to its successor as soon as it arrives, while its own store
    /// still lacks the version, instead of forwarding the assembled whole.
    #[test]
    fn relay_forwards_each_chunk_before_assembling_the_version() {
        let (inbox_tx, inbox) = channel();
        let (next_tx, next_rx) = channel();
        let store: Store = Arc::new(RwLock::new(None));
        let node = {
            let store = Arc::clone(&store);
            thread::spawn(move || node_loop(0, inbox, store, 0.0, 0.0))
        };
        inbox_tx.send(Command::SetNext(Some(next_tx))).unwrap();
        let data = blob(64, 3);
        let chunk = |index: u32| Command::Chunk {
            version: 1,
            index,
            total: 2,
            data: data.slice(index as usize * 32..(index as usize + 1) * 32),
        };
        // Generous guard against a hang; the assertions do not time anything.
        let forwarded = || match next_rx.recv_timeout(StdDuration::from_secs(30)) {
            Ok(Command::Chunk { index, .. }) => index,
            _ => panic!("the relay must forward every chunk it receives"),
        };

        inbox_tx.send(chunk(0)).unwrap();
        assert_eq!(forwarded(), 0);
        assert!(
            store.read().unwrap().is_none(),
            "chunk 0 must leave before the version is assembled"
        );
        inbox_tx.send(chunk(1)).unwrap();
        assert_eq!(forwarded(), 1);
        inbox_tx.send(Command::Shutdown).unwrap();
        node.join().unwrap();
        assert_eq!(
            *store.read().unwrap(),
            Some(WeightVersion { version: 1, data }),
            "both chunks assemble into the version"
        );
    }

    #[test]
    fn pull_during_in_flight_broadcast_returns_previous_version() {
        // "Anytime" pull semantics: a rollout asking mid-broadcast gets the
        // last fully resident version rather than blocking.
        let mut tier = RelayTier::new(RelayTierConfig::fast(4));
        tier.publish(1, blob(1 << 16, 1));
        assert!(tier.wait_converged(1, StdDuration::from_secs(5)));
        // Slow the hops so version 2 is in flight for a while.
        let mut slow = RelayTier::new(RelayTierConfig {
            hop_seconds_per_byte: 5e-8,
            ..RelayTierConfig::fast(4)
        });
        slow.publish(1, blob(1 << 20, 1));
        assert!(slow.wait_converged(1, StdDuration::from_secs(20)));
        slow.publish(2, blob(1 << 20, 2));
        // Immediately pull from the tail: version 1 must still be served.
        let v = slow.node_version(3).expect("has a version");
        assert!(v >= 1);
        assert!(slow.wait_converged(2, StdDuration::from_secs(20)));
        slow.shutdown();
        tier.shutdown();
    }

    #[test]
    fn rapid_version_churn_converges_to_newest() {
        let mut tier = RelayTier::new(RelayTierConfig::fast(5));
        for v in 1..=20u64 {
            tier.publish(v, blob(32 * 1024, v as u8));
        }
        assert!(tier.wait_converged(20, StdDuration::from_secs(10)));
        for id in 0..5 {
            assert_eq!(tier.node_version(id), Some(20));
        }
        assert_eq!(tier.publishes(), 20);
        tier.shutdown();
    }

    #[test]
    fn heartbeat_reports_only_dead_nodes() {
        let mut tier = RelayTier::new(RelayTierConfig::fast(5));
        assert!(tier.heartbeat().is_empty());
        tier.kill(4);
        tier.kill(1);
        let mut failed = tier.heartbeat();
        failed.sort_unstable();
        assert_eq!(failed, vec![1, 4]);
        tier.shutdown();
    }

    /// The poison-recovery satellite: a worker that panics *while holding
    /// its store write lock* must not take the tier down — pulls recover
    /// the poisoned lock and keep serving the last complete version, and
    /// repair evicts the dead worker so publishes continue.
    #[test]
    fn poisoned_store_still_serves_pulls_and_repairs() {
        let mut tier = RelayTier::new(RelayTierConfig::fast(5));
        let data = blob(32 * 1024, 0x99);
        tier.publish(1, data.clone());
        assert!(tier.wait_converged(1, StdDuration::from_secs(5)));
        tier.poison(2);
        // Wait for the worker thread to actually die holding the lock.
        let deadline = Instant::now() + StdDuration::from_secs(5);
        while !tier.nodes[2]
            .thread
            .as_ref()
            .is_some_and(JoinHandle::is_finished)
        {
            assert!(Instant::now() < deadline, "poisoned worker never died");
            thread::sleep(StdDuration::from_millis(1));
        }
        // The lock is now poisoned; pulls must recover it and serve v1.
        let wv = tier.pull(2).expect("poisoned store still serves");
        assert_eq!(wv.version, 1);
        assert_eq!(wv.data, data);
        assert_eq!(tier.node_version(2), Some(1));
        // The dead worker misses heartbeats, gets evicted, and the
        // survivors keep converging on new versions.
        let report = tier.repair();
        assert_eq!(report.failed, vec![2]);
        tier.publish(2, blob(32 * 1024, 0x9A));
        assert!(tier.wait_converged(2, StdDuration::from_secs(5)));
        assert_eq!(tier.alive_nodes(), vec![0, 1, 3, 4]);
        tier.shutdown();
    }

    /// After enough consecutive missed sweeps the node's circuit breaker
    /// opens and later sweeps report it failed *without* pinging it, so a
    /// wedged relay stops costing a heartbeat deadline per sweep.
    #[test]
    fn breaker_quarantines_node_after_consecutive_misses() {
        let deadline = StdDuration::from_millis(150);
        let mut tier = RelayTier::new(RelayTierConfig {
            heartbeat_timeout: deadline,
            ..RelayTierConfig::fast(4)
        });
        tier.kill(2);
        // fast() trips the breaker on two consecutive misses.
        assert_eq!(tier.heartbeat(), vec![2]);
        assert_eq!(tier.breaker_trips(2), Some(0));
        assert_eq!(tier.heartbeat(), vec![2]);
        assert_eq!(tier.breaker_trips(2), Some(1));
        // Third sweep: node 2 is rejected by its open breaker up front, so
        // the sweep finishes as soon as the three alive relays reply —
        // well before the deadline a ping to the dead node would cost.
        let start = Instant::now();
        assert_eq!(tier.heartbeat(), vec![2]);
        assert!(
            start.elapsed() < deadline,
            "open breaker must skip the dead node's deadline: {:?}",
            start.elapsed()
        );
        tier.shutdown();
    }

    /// `repair_converged` bounds the post-repair re-broadcast with the
    /// retry policy instead of waiting forever.
    #[test]
    fn repair_converged_reaches_survivors_within_retry_budget() {
        let mut tier = RelayTier::new(RelayTierConfig {
            // Slow hops so the kill lands mid-broadcast.
            hop_seconds_per_byte: 2e-9,
            hop_startup: 1e-4,
            ..RelayTierConfig::fast(6)
        });
        tier.publish(1, blob(1 << 22, 0x55));
        tier.kill(2);
        thread::sleep(StdDuration::from_millis(30));
        let (report, converged) = tier.repair_converged();
        assert_eq!(report.failed, vec![2]);
        assert!(report.rebroadcast);
        assert!(converged, "survivors must converge within the retry budget");
        for &id in &[0, 1, 3, 4, 5] {
            assert_eq!(tier.node_version(id), Some(1));
        }
        tier.shutdown();
    }

    #[test]
    fn repair_with_no_failures_is_noop() {
        let mut tier = RelayTier::new(RelayTierConfig::fast(3));
        tier.publish(1, blob(1024, 0));
        let report = tier.repair();
        assert!(report.failed.is_empty());
        assert!(!report.rebroadcast);
        assert_eq!(tier.rebroadcasts(), 0);
        tier.shutdown();
    }
}
