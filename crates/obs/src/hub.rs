//! Live telemetry hub: lock-free progress aggregation for running
//! sweeps.
//!
//! The event ring and profiler answer questions *after* a run; the hub
//! answers them *during* one. Workers (sweep threads, long machine
//! runs) publish small fixed-size progress [`Beat`]s — instructions
//! retired, misses, migrations, `F`/`A_R`, worker state — into
//! per-worker [`Ring`]s. A single aggregator (whoever calls
//! [`Hub::snapshot`], serialised internally) drains the rings and
//! merges them into an epoch-stamped [`HubSnapshot`] that the serving
//! edge ([`crate::serve`]) renders as `/progress` JSON and `/healthz`
//! verdicts.
//!
//! **No mutex on the hot path.** A publish is one [`Ring::push`]: a
//! handful of relaxed stores and one release store of the ring head; a
//! full ring drops the beat (and counts the drop) rather than blocking.
//! Only the aggregation side — never a worker — takes a lock.
//!
//! **Epoch'd snapshot merge.** Each merge drains every ring, folds the
//! newest beat per worker into the retained [`WorkerProgress`] row, and
//! bumps the snapshot epoch, so readers can tell "new data" from "same
//! data re-read".
//!
//! **Self-accounting.** The hub measures its own cost — beats
//! published, bytes moved, nanoseconds inside publish and merge — and
//! reports it as [`HubOverhead`]. A [`Budget`](crate::Budget) turns
//! that into a pass/fail verdict against a fraction of run time, so
//! "observability is cheap" stays a measured claim rather than an
//! assumption as instrumentation grows.
//!
//! **Off means absent.** Beats fire at task boundaries and once per
//! beat period, never per simulated event, so the hub has no
//! compile-time twin: an unobserved run simply has no hub (and so no
//! [`HubWorker`] to publish through).

use crate::json::{Json, ToJson};
use crate::model::sync::{Arc, Mutex};
use crate::spsc::Ring;
use std::time::Instant;

/// `u64` words per encoded [`Beat`] in the ring (the last is the
/// ring's sequence stamp).
pub const BEAT_WORDS: usize = 12;

/// Default ring capacity (beats buffered per worker between merges).
pub const DEFAULT_RING_CAPACITY: usize = 64;

/// Default expected beat interval for the stall watchdog, µs.
pub const DEFAULT_HEARTBEAT_US: u64 = 1_000_000;

/// Default missed-beat count before a worker is flagged stalled.
pub const DEFAULT_STALL_BEATS: u64 = 3;

/// What a worker is doing, as of its latest beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerState {
    /// No beat received yet, or between tasks.
    #[default]
    Idle,
    /// Executing a task.
    Running,
    /// Finished its share of the run.
    Done,
}

impl WorkerState {
    /// Stable string form (used by JSON and Prometheus labels).
    pub fn as_str(self) -> &'static str {
        match self {
            WorkerState::Idle => "idle",
            WorkerState::Running => "running",
            WorkerState::Done => "done",
        }
    }

    fn encode(self) -> u64 {
        match self {
            WorkerState::Idle => 0,
            WorkerState::Running => 1,
            WorkerState::Done => 2,
        }
    }

    fn decode(v: u64) -> WorkerState {
        match v {
            1 => WorkerState::Running,
            2 => WorkerState::Done,
            _ => WorkerState::Idle,
        }
    }
}

impl ToJson for WorkerState {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_string())
    }
}

/// One progress heartbeat. Counter fields are cumulative from the
/// worker's point of view (the merge keeps the newest beat, it does not
/// sum them); the hub-clock stamp is added by [`HubWorker::publish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Beat {
    /// Worker state.
    pub state: WorkerState,
    /// Task index the worker is on (`u64::MAX` when idle).
    pub task: u64,
    /// Tasks completed so far.
    pub tasks_done: u64,
    /// Instructions retired so far (current task or run, publisher's
    /// choice — label it consistently).
    pub instructions: u64,
    /// L2 misses so far.
    pub l2_misses: u64,
    /// Migrations so far.
    pub migrations: u64,
    /// Transition-filter value `F` at beat time.
    pub f_value: i64,
    /// `A_R` register at beat time.
    pub a_r: i64,
    /// Update-bus bytes so far.
    pub bus_bytes: u64,
}

impl Beat {
    /// An idle beat.
    pub fn idle() -> Beat {
        Beat {
            task: u64::MAX,
            ..Beat::default()
        }
    }

    fn encode(&self, wall_us: u64) -> [u64; BEAT_WORDS] {
        [
            self.state.encode(),
            self.task,
            self.tasks_done,
            self.instructions,
            self.l2_misses,
            self.migrations,
            self.f_value as u64,
            self.a_r as u64,
            self.bus_bytes,
            wall_us,
            0,
            0, // the ring's sequence stamp
        ]
    }

    fn decode(words: &[u64; BEAT_WORDS]) -> (Beat, u64) {
        (
            Beat {
                state: WorkerState::decode(words[0]),
                task: words[1],
                tasks_done: words[2],
                instructions: words[3],
                l2_misses: words[4],
                migrations: words[5],
                f_value: words[6] as i64,
                a_r: words[7] as i64,
                bus_bytes: words[8],
            },
            words[9],
        )
    }
}

/// Hub sizing and watchdog thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HubConfig {
    /// Worker slots (fixed at construction).
    pub workers: usize,
    /// Beats buffered per worker between merges. Must be ≥ 2.
    pub ring_capacity: usize,
    /// Expected beat interval for the stall watchdog, µs.
    pub heartbeat_us: u64,
    /// Beats a running worker may miss before `/healthz` flags it.
    pub stall_beats: u64,
}

impl HubConfig {
    /// The default configuration for `workers` worker slots.
    pub fn with_workers(workers: usize) -> HubConfig {
        HubConfig {
            workers,
            ring_capacity: DEFAULT_RING_CAPACITY,
            heartbeat_us: DEFAULT_HEARTBEAT_US,
            stall_beats: DEFAULT_STALL_BEATS,
        }
    }

    /// µs of silence after which a running worker counts as stalled.
    pub fn stall_after_us(&self) -> u64 {
        self.heartbeat_us.saturating_mul(self.stall_beats.max(1))
    }
}

crate::impl_to_json!(HubConfig {
    workers,
    ring_capacity,
    heartbeat_us,
    stall_beats
});

/// One worker's merged progress, as of the snapshot epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerProgress {
    /// Worker slot index.
    pub worker: usize,
    /// State from the newest beat.
    pub state: WorkerState,
    /// Beats merged so far.
    pub beats: u64,
    /// Beats dropped on a full ring so far.
    pub dropped: u64,
    /// Task index from the newest beat (`u64::MAX` when idle).
    pub task: u64,
    /// Tasks completed.
    pub tasks_done: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Migrations.
    pub migrations: u64,
    /// `F` at the newest beat.
    pub f_value: i64,
    /// `A_R` at the newest beat.
    pub a_r: i64,
    /// Update-bus bytes.
    pub bus_bytes: u64,
    /// Hub-clock stamp of the newest beat, µs.
    pub wall_us: u64,
    /// µs between the newest beat and the snapshot.
    pub age_us: u64,
}

crate::impl_to_json!(WorkerProgress {
    worker,
    state,
    beats,
    dropped,
    task,
    tasks_done,
    instructions,
    l2_misses,
    migrations,
    f_value,
    a_r,
    bus_bytes,
    wall_us,
    age_us
});

impl WorkerProgress {
    /// True when the worker claims to be running but has been silent
    /// past the watchdog threshold.
    pub fn stalled(&self, stall_after_us: u64) -> bool {
        self.state == WorkerState::Running && self.beats > 0 && self.age_us > stall_after_us
    }
}

/// What the hub's own instrumentation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubOverhead {
    /// Beats accepted into rings.
    pub beats: u64,
    /// Beats dropped on full rings.
    pub dropped: u64,
    /// Payload bytes moved through rings (`beats × beat size`).
    pub bytes: u64,
    /// Nanoseconds inside [`HubWorker::publish`], summed over workers.
    pub publish_ns: u64,
    /// Snapshot merges performed.
    pub merges: u64,
    /// Nanoseconds inside the snapshot merge.
    pub merge_ns: u64,
}

crate::impl_to_json!(HubOverhead {
    beats,
    dropped,
    bytes,
    publish_ns,
    merges,
    merge_ns
});

impl HubOverhead {
    /// Total observability nanoseconds (publish + merge).
    pub fn total_ns(&self) -> u64 {
        self.publish_ns.saturating_add(self.merge_ns)
    }
}

/// An epoch-stamped merged view of every worker.
#[derive(Debug, Clone, PartialEq)]
pub struct HubSnapshot {
    /// Bumped on every merge that ran (even if no new beats arrived).
    pub epoch: u64,
    /// Hub-clock time of the merge, µs.
    pub taken_us: u64,
    /// Per-worker progress rows, one per slot.
    pub workers: Vec<WorkerProgress>,
    /// Hub self-accounting at merge time.
    pub overhead: HubOverhead,
}

impl HubSnapshot {
    /// Sum of `instructions` over workers.
    pub fn total_instructions(&self) -> u64 {
        self.workers.iter().map(|w| w.instructions).sum()
    }

    /// Sum of completed tasks over workers.
    pub fn total_tasks_done(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_done).sum()
    }

    /// Workers flagged by the stall watchdog.
    pub fn stalled_workers(&self, stall_after_us: u64) -> Vec<usize> {
        self.workers
            .iter()
            .filter(|w| w.stalled(stall_after_us))
            .map(|w| w.worker)
            .collect()
    }

    /// True when every worker reported [`WorkerState::Done`].
    pub fn all_done(&self) -> bool {
        !self.workers.is_empty() && self.workers.iter().all(|w| w.state == WorkerState::Done)
    }
}

impl ToJson for HubSnapshot {
    fn to_json(&self) -> Json {
        Json::object()
            .field("epoch", self.epoch)
            .field("taken_us", self.taken_us)
            .field("total_instructions", self.total_instructions())
            .field("total_tasks_done", self.total_tasks_done())
            .field("workers", &self.workers)
            .field("overhead", self.overhead)
    }
}

/// `/healthz` verdict derived from a snapshot plus the watchdog config.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// No running worker has missed its beat budget.
    pub ok: bool,
    /// Worker slots configured.
    pub workers: usize,
    /// Stalled worker indices.
    pub stalled: Vec<usize>,
    /// Snapshot epoch the verdict was computed from.
    pub epoch: u64,
}

impl ToJson for HealthReport {
    fn to_json(&self) -> Json {
        Json::object()
            .field("status", if self.ok { "ok" } else { "stalled" }.to_string())
            .field("workers", self.workers)
            .field("stalled", &self.stalled)
            .field("epoch", self.epoch)
    }
}

/// Aggregator-side merge state, guarded by one (cold-path) mutex.
struct AggState {
    workers: Vec<WorkerProgress>,
    epoch: u64,
    merges: u64,
    merge_ns: u64,
}

struct HubInner {
    config: HubConfig,
    started: Instant,
    rings: Vec<Ring<BEAT_WORDS>>,
    agg: Mutex<AggState>,
}

/// The live telemetry hub.
///
/// Cheap to clone — clones share the same rings and merge state.
#[derive(Clone)]
pub struct Hub {
    inner: Arc<HubInner>,
}

impl std::fmt::Debug for Hub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hub")
            .field("config", &self.inner.config)
            .finish()
    }
}

impl Hub {
    /// A hub with `config.workers` slots.
    ///
    /// # Panics
    ///
    /// Panics if `ring_capacity < 2`.
    pub fn new(config: HubConfig) -> Hub {
        let rings = (0..config.workers)
            .map(|_| Ring::new(config.ring_capacity))
            .collect();
        let workers = (0..config.workers)
            .map(|worker| WorkerProgress {
                worker,
                task: u64::MAX,
                ..WorkerProgress::default()
            })
            .collect();
        Hub {
            inner: Arc::new(HubInner {
                config,
                started: Instant::now(),
                rings,
                agg: Mutex::new(AggState {
                    workers,
                    epoch: 0,
                    merges: 0,
                    merge_ns: 0,
                }),
            }),
        }
    }

    /// A hub with the default config for `workers` slots.
    pub fn with_workers(workers: usize) -> Hub {
        Hub::new(HubConfig::with_workers(workers))
    }

    /// The configuration.
    pub fn config(&self) -> HubConfig {
        self.inner.config
    }

    /// µs since the hub was created (the hub clock beats and snapshots
    /// are stamped with).
    pub fn now_us(&self) -> u64 {
        self.inner.started.elapsed().as_micros() as u64
    }

    /// Claims worker slot `index`'s producer handle. Each slot has
    /// exactly one producer: the first claim wins, later claims (and
    /// out-of-range indices) get `None`.
    pub fn worker(&self, index: usize) -> Option<HubWorker> {
        self.inner.rings.get(index)?.claim().then(|| HubWorker {
            inner: Arc::clone(&self.inner),
            index,
        })
    }

    fn agg_lock(&self) -> crate::model::sync::MutexGuard<'_, AggState> {
        match self.inner.agg.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Drains every ring, merges newest beats into the retained
    /// per-worker rows, bumps the epoch, and returns the merged view.
    /// Aggregation is serialised internally (single-aggregator);
    /// workers never block on it.
    pub fn snapshot(&self) -> HubSnapshot {
        let t0 = Instant::now();
        let mut agg = self.agg_lock();
        for (ring, row) in self.inner.rings.iter().zip(agg.workers.iter_mut()) {
            ring.drain(|words| {
                let (beat, wall_us) = Beat::decode(words);
                row.state = beat.state;
                row.task = beat.task;
                row.tasks_done = beat.tasks_done;
                row.instructions = beat.instructions;
                row.l2_misses = beat.l2_misses;
                row.migrations = beat.migrations;
                row.f_value = beat.f_value;
                row.a_r = beat.a_r;
                row.bus_bytes = beat.bus_bytes;
                row.wall_us = wall_us;
                row.beats += 1;
            });
            row.dropped = ring.dropped();
        }
        let now_us = self.now_us();
        for row in agg.workers.iter_mut() {
            row.age_us = if row.beats == 0 {
                0
            } else {
                now_us.saturating_sub(row.wall_us)
            };
        }
        agg.epoch += 1;
        agg.merges += 1;
        agg.merge_ns += t0.elapsed().as_nanos() as u64;
        HubSnapshot {
            epoch: agg.epoch,
            taken_us: now_us,
            workers: agg.workers.clone(),
            overhead: self.overhead_locked(&agg),
        }
    }

    /// Hub self-accounting so far (without forcing a merge).
    pub fn overhead(&self) -> HubOverhead {
        self.overhead_locked(&self.agg_lock())
    }

    fn overhead_locked(&self, agg: &AggState) -> HubOverhead {
        let rings = &self.inner.rings;
        let beats: u64 = rings.iter().map(Ring::published).sum();
        HubOverhead {
            beats,
            dropped: rings.iter().map(Ring::dropped).sum(),
            bytes: beats * (BEAT_WORDS as u64) * 8,
            publish_ns: rings.iter().map(Ring::cost_ns).sum(),
            merges: agg.merges,
            merge_ns: agg.merge_ns,
        }
    }

    /// Merges and reduces to the `/healthz` verdict using the
    /// configured watchdog thresholds.
    pub fn health(&self) -> HealthReport {
        let snap = self.snapshot();
        let stalled = snap.stalled_workers(self.inner.config.stall_after_us());
        HealthReport {
            ok: stalled.is_empty(),
            workers: snap.workers.len(),
            stalled,
            epoch: snap.epoch,
        }
    }
}

/// A worker's producer handle. Deliberately not `Clone`: one producer
/// per ring is what makes the ring SPSC.
pub struct HubWorker {
    inner: Arc<HubInner>,
    index: usize,
}

impl std::fmt::Debug for HubWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HubWorker")
            .field("index", &self.index)
            .finish()
    }
}

impl HubWorker {
    /// The slot index this handle publishes to.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Publishes one beat, stamped with the hub clock. A full ring
    /// drops the beat and counts the drop — the caller never waits.
    /// Publish cost is self-measured into [`HubOverhead::publish_ns`].
    pub fn publish(&self, beat: Beat) {
        let t0 = Instant::now();
        let ring = &self.inner.rings[self.index];
        let wall_us = t0.duration_since(self.inner.started).as_micros() as u64;
        ring.push(beat.encode(wall_us));
        ring.bill(t0.elapsed().as_nanos() as u64);
    }
}

/// What an observed task needs to publish consistent mid-task beats:
/// the worker's hub handle, the task coordinates the sweep runner
/// already announced in its claim beat, and how many retired
/// instructions apart the beats fall.
#[derive(Debug)]
pub struct ObsCtx<'a> {
    /// The claiming worker's producer handle.
    pub worker: &'a HubWorker,
    /// The task index being executed.
    pub task: u64,
    /// Tasks this worker had completed before this one.
    pub tasks_done: u64,
    /// Retired instructions between mid-task beats.
    pub beat_period: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(instructions: u64, state: WorkerState) -> Beat {
        Beat {
            state,
            task: 7,
            tasks_done: 1,
            instructions,
            l2_misses: instructions / 10,
            migrations: 2,
            f_value: -5,
            a_r: 11,
            bus_bytes: 400,
        }
    }

    #[test]
    fn beat_roundtrips_through_words() {
        let b = beat(1234, WorkerState::Running);
        let (back, wall) = Beat::decode(&b.encode(99));
        assert_eq!(back, b);
        assert_eq!(wall, 99);
        // Negative F/A_R survive the u64 transit.
        assert_eq!(back.f_value, -5);
    }

    #[test]
    fn worker_state_roundtrip() {
        for s in [WorkerState::Idle, WorkerState::Running, WorkerState::Done] {
            assert_eq!(WorkerState::decode(s.encode()), s);
        }
        assert_eq!(WorkerState::decode(99), WorkerState::Idle);
        assert_eq!(WorkerState::Running.to_json().compact(), "\"running\"");
    }

    #[test]
    fn snapshot_json_shape() {
        let hub = Hub::with_workers(2);
        let snap = hub.snapshot();
        let j = snap.to_json();
        assert!(j.get("epoch").is_some());
        assert!(j.get("workers").is_some());
        assert!(j.get("overhead").is_some());
        assert!(j.get("total_instructions").is_some());
    }

    #[test]
    fn publish_merges_the_newest_beat() {
        let hub = Hub::with_workers(2);
        let w = hub.worker(0).expect("first claim");
        w.publish(beat(500, WorkerState::Running));
        w.publish(beat(900, WorkerState::Running));
        let snap = hub.snapshot();
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.epoch, 1);
        // Merge keeps the newest beat, counts both.
        assert_eq!(snap.workers[0].instructions, 900);
        assert_eq!(snap.workers[0].beats, 2);
        assert_eq!(snap.workers[0].state, WorkerState::Running);
        assert_eq!(snap.workers[1].beats, 0);
        assert_eq!(snap.total_instructions(), 900);
        // The second claim of the same slot must fail (SPSC).
        assert!(hub.worker(0).is_none(), "slot 0 already claimed");
        assert!(hub.worker(5).is_none(), "out of range");
        let o = hub.overhead();
        assert_eq!(o.beats, 2);
        assert_eq!(o.bytes, 2 * (BEAT_WORDS as u64) * 8);
        assert!(o.merges >= 1);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let hub = Hub::new(HubConfig {
            workers: 1,
            ring_capacity: 4,
            ..HubConfig::with_workers(1)
        });
        let w = hub.worker(0).expect("claim");
        for k in 0..10u64 {
            w.publish(beat(k, WorkerState::Running));
        }
        let snap = hub.snapshot();
        assert_eq!(snap.workers[0].beats, 4, "ring holds 4");
        assert_eq!(snap.workers[0].dropped, 6);
        // The newest *retained* beat is the 4th (index 3).
        assert_eq!(snap.workers[0].instructions, 3);
        // After the drain the ring has room again.
        w.publish(beat(77, WorkerState::Done));
        let snap = hub.snapshot();
        assert_eq!(snap.workers[0].instructions, 77);
        assert_eq!(snap.workers[0].state, WorkerState::Done);
        assert_eq!(snap.epoch, 2);
    }

    #[cfg_attr(miri, ignore = "unbounded spin publishers are too slow under miri")]
    #[test]
    fn concurrent_publish_and_merge() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let hub = Hub::with_workers(4);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for i in 0..4 {
                let w = hub.worker(i).expect("claim");
                let stop = &stop;
                scope.spawn(move || {
                    let mut k = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        k += 1;
                        w.publish(beat(k, WorkerState::Running));
                    }
                    let mut last = beat(k, WorkerState::Done);
                    last.instructions = u64::MAX;
                    w.publish(last);
                });
            }
            // Merge concurrently with the publishers, repeatedly.
            let mut floor = [0u64; 4];
            for _ in 0..200 {
                let snap = hub.snapshot();
                for row in &snap.workers {
                    // Monotone per-worker progress: merged rows never
                    // see torn beats (instructions only grow, and only
                    // the Done beat carries the MAX sentinel).
                    assert!(row.instructions >= floor[row.worker]);
                    floor[row.worker] = row.instructions;
                    if row.instructions == u64::MAX {
                        assert_eq!(row.state, WorkerState::Done);
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Final merge sees every worker's Done beat (rings may have
        // dropped earlier beats, never blocked).
        let mut snap = hub.snapshot();
        if !snap.all_done() {
            // The Done beat may itself have been dropped on a full
            // ring; drain once more after the drop counters settle.
            snap = hub.snapshot();
        }
        let o = hub.overhead();
        assert!(o.beats > 0);
        assert!(o.merges >= 201);
        assert!(snap.epoch >= 201);
    }

    #[test]
    fn stall_watchdog_flags_silent_running_worker() {
        let hub = Hub::new(HubConfig {
            workers: 2,
            ring_capacity: 8,
            heartbeat_us: 1, // 1 µs heartbeat: anything is late
            stall_beats: 2,
        });
        let w = hub.worker(0).expect("claim");
        w.publish(beat(10, WorkerState::Running));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let health = hub.health();
        assert!(!health.ok);
        assert_eq!(health.stalled, vec![0], "only the running worker");
        // A Done worker is never stalled, however silent.
        w.publish(beat(20, WorkerState::Done));
        let health = hub.health();
        assert!(health.ok);
        // Idle (beat-less) workers are not stalled either.
        assert!(!health.stalled.contains(&1));
    }

    #[test]
    fn publish_cost_is_accounted() {
        let hub = Hub::with_workers(1);
        let w = hub.worker(0).expect("claim");
        for k in 0..32u64 {
            w.publish(beat(k, WorkerState::Running));
            let _ = hub.snapshot();
        }
        let o = hub.overhead();
        assert_eq!(o.beats, 32);
        assert!(o.merges >= 32);
        // Publishing and merging both cost nonzero measured time.
        assert!(o.publish_ns > 0);
        assert!(o.merge_ns > 0);
        assert!(o.total_ns() == o.publish_ns + o.merge_ns);
    }
}
