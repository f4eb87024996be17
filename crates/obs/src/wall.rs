//! Wall-clock flight recorder: causal span tracing and latency
//! self-profiling for the simulator's *own* execution.
//!
//! The event ring, profiler, and hub all measure *simulated* time —
//! instructions, misses, migrations. This module measures where the
//! simulator spends *wall-clock* time: which runner stage, which
//! machine block, which differ case. Three consumers hang off it:
//!
//! - **Latency histograms.** Every closed span lands in a per-family
//!   log-2 [`Histogram`] (nanoseconds), so `/spans` and `/metrics` can
//!   serve live p50/p99/p999 per span family while a sweep runs.
//! - **Flight recorder.** Each thread keeps its live span stack in a
//!   fixed block of atomics; a sampler thread periodically snapshots
//!   every stack ([`Wall::sample_stacks`]) and the accumulated counts
//!   render as collapsed-stack (flamegraph-compatible) output.
//! - **Causal trace.** Closed spans carry u64 span/parent IDs, so the
//!   retained spans export as a Chrome trace
//!   ([`crate::chrome::render_wall_trace`]) that can be merged with the
//!   simulated-time profile for a dual-clock view.
//!
//! **Same ring as the hub.** Closed spans go into per-thread
//! [`Ring`]s: a full ring drops the span and counts the drop — the
//! recording thread never blocks. Only [`Wall::snapshot`] (cold side,
//! mutex-guarded) drains rings into histograms and the retained-span
//! list.
//!
//! **Self-accounting.** The wall measures its own cost — spans
//! recorded, nanoseconds inside enter/exit, merge and sampling time —
//! as [`WallOverhead`], which a [`Budget`] turns into a pass/fail
//! verdict against a fraction of run time.
//!
//! **Off means unattached.** Spans are coarse (runner stages, beat
//! periods, differ cases), so the wall has no compile-time twin: a
//! thread with no attached [`WallThread`] opens inert guards.
//!
//! **Span families are a closed enum.** [`Family`] names every span
//! kind; the ring encodes a span's family as its index into
//! [`Family::ALL`], which is also the row order of `/spans`.

use crate::json::{Json, ToJson};
use crate::metrics::Histogram;
use crate::model::sync::{Arc, AtomicU64, Mutex, Ordering};
use crate::spsc::{Budget, BudgetVerdict, Ring};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// The span families, in `/spans` row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// A whole experiment sweep (driver thread, parent of every task).
    Sweep,
    /// One runner task, claim to completion.
    Task,
    /// Pulling the next task off the shared queue.
    Claim,
    /// Executing the task closure.
    Run,
    /// Buffering the result and publishing the completion beat.
    Complete,
    /// One beat period of an observed `Machine::run_shared` (every
    /// machine in the slice, over one stream).
    MachineBlock,
    /// One differ suite-lockstep case.
    DifferCase,
    /// One differ fuzz round (generate + lockstep + shrink).
    DifferFuzz,
}

impl Family {
    /// Every family, in stable index order (`family as usize` indexes
    /// this table).
    pub const ALL: [Family; 8] = [
        Family::Sweep,
        Family::Task,
        Family::Claim,
        Family::Run,
        Family::Complete,
        Family::MachineBlock,
        Family::DifferCase,
        Family::DifferFuzz,
    ];

    /// The family's name in `/spans`, Prometheus labels and collapsed
    /// stacks.
    pub fn name(self) -> &'static str {
        match self {
            Family::Sweep => "sweep",
            Family::Task => "runner/task",
            Family::Claim => "runner/claim",
            Family::Run => "runner/run",
            Family::Complete => "runner/complete",
            Family::MachineBlock => "machine/block",
            Family::DifferCase => "differ/case",
            Family::DifferFuzz => "differ/fuzz",
        }
    }
}

impl ToJson for Family {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

/// `u64` words per encoded span record in the ring:
/// `[id, parent, family index, start_ns, dur_ns, sequence stamp]`.
pub const SPAN_WORDS: usize = 6;

/// Default span-ring capacity (spans buffered per thread between
/// merges). Spans are coarse (tasks, machine blocks), so this covers
/// seconds of headway at the default beat period.
pub const DEFAULT_SPAN_RING_CAPACITY: usize = 1024;

/// Deepest live span stack the flight recorder samples; deeper frames
/// still record to the ring but are invisible to the sampler.
pub const MAX_LIVE_DEPTH: usize = 16;

/// Retained closed spans kept for Chrome export; overflow is counted
/// in [`WallOverhead::retained_dropped`], never grows unbounded.
pub const DEFAULT_RETAINED_SPANS: usize = 8192;

/// Per-family latency stats at snapshot time (all durations in ns).
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyStats {
    /// The span family.
    pub family: Family,
    /// Closed spans merged so far.
    pub count: u64,
    /// Summed span duration.
    pub total_ns: u64,
    /// Median latency (log-2 bucket upper bound, exact at extremes).
    pub p50_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// 99.9th-percentile latency.
    pub p999_ns: u64,
    /// Largest observed latency (exact).
    pub max_ns: u64,
}

crate::impl_to_json!(FamilyStats {
    family,
    count,
    total_ns,
    p50_ns,
    p99_ns,
    p999_ns,
    max_ns
});

/// One closed span retained for Chrome export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedSpan {
    /// Span id (nonzero; the thread index lives in the high bits).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// The span family.
    pub family: Family,
    /// Thread slot the span was recorded on.
    pub thread: usize,
    /// Start, ns since the wall was created.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

crate::impl_to_json!(RetainedSpan {
    id,
    parent,
    family,
    thread,
    start_ns,
    dur_ns
});

/// One sampled live-stack shape and how often the sampler saw it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StackCount {
    /// Semicolon-joined family names, outermost first — the collapsed
    /// stack format `flamegraph.pl` and speedscope ingest directly.
    pub stack: String,
    /// Samples that observed this stack.
    pub count: u64,
}

crate::impl_to_json!(StackCount { stack, count });

/// What the wall's own instrumentation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WallOverhead {
    /// Spans accepted into rings.
    pub spans: u64,
    /// Spans dropped on full rings.
    pub dropped: u64,
    /// Closed spans past the retained cap (histograms still counted
    /// them; only the Chrome-export copy was discarded).
    pub retained_dropped: u64,
    /// Payload bytes moved through rings (`spans × record size`).
    pub bytes: u64,
    /// Nanoseconds inside span enter/exit, summed over threads.
    pub record_ns: u64,
    /// Snapshot merges performed.
    pub merges: u64,
    /// Nanoseconds inside the snapshot merge.
    pub merge_ns: u64,
    /// Flight-recorder sampling passes.
    pub samples: u64,
    /// Nanoseconds inside sampling passes.
    pub sample_ns: u64,
}

crate::impl_to_json!(WallOverhead {
    spans,
    dropped,
    retained_dropped,
    bytes,
    record_ns,
    merges,
    merge_ns,
    samples,
    sample_ns
});

impl WallOverhead {
    /// Total observability nanoseconds (record + merge + sample).
    pub fn total_ns(&self) -> u64 {
        self.record_ns
            .saturating_add(self.merge_ns)
            .saturating_add(self.sample_ns)
    }
}

/// An epoch-stamped merged view of every family and sampled stack.
#[derive(Debug, Clone, PartialEq)]
pub struct WallSnapshot {
    /// Bumped on every merge that ran.
    pub epoch: u64,
    /// ns since the wall was created, at merge time.
    pub uptime_ns: u64,
    /// Per-family latency stats, one row per [`Family::ALL`] entry.
    pub families: Vec<FamilyStats>,
    /// Collapsed-stack counts accumulated by the flight recorder.
    pub collapsed: Vec<StackCount>,
    /// Wall self-accounting at merge time.
    pub overhead: WallOverhead,
}

impl WallSnapshot {
    /// The stats row for `family` (`None` only for an empty snapshot).
    pub fn family(&self, family: Family) -> Option<&FamilyStats> {
        self.families.iter().find(|f| f.family == family)
    }

    /// Closed spans across all families.
    pub fn total_spans(&self) -> u64 {
        self.families.iter().map(|f| f.count).sum()
    }

    /// The collapsed-stack text block (`stack count` per line),
    /// directly consumable by `flamegraph.pl` / speedscope.
    pub fn collapsed_text(&self) -> String {
        let mut out = String::new();
        for s in &self.collapsed {
            out.push_str(&s.stack);
            out.push(' ');
            out.push_str(&s.count.to_string());
            out.push('\n');
        }
        out
    }
}

impl ToJson for WallSnapshot {
    fn to_json(&self) -> Json {
        Json::object()
            .field("epoch", self.epoch)
            .field("uptime_ns", self.uptime_ns)
            .field("total_spans", self.total_spans())
            .field("families", &self.families)
            .field("collapsed", &self.collapsed)
            .field("overhead", self.overhead)
    }
}

/// One thread's span ring plus the live span stack the flight
/// recorder samples.
struct SpanSlot {
    ring: Ring<SPAN_WORDS>,
    /// Live stack depth (may exceed `MAX_LIVE_DEPTH`; the sampler caps
    /// its read).
    live_depth: AtomicU64,
    /// Live stack entries: family index, outermost first.
    live: [AtomicU64; MAX_LIVE_DEPTH],
}

/// Cold-side merge state, guarded by one mutex (never touched by the
/// span hot path).
struct AggState {
    epoch: u64,
    /// Parallel to `Family::ALL`.
    hists: Vec<Histogram>,
    totals: Vec<u64>,
    retained: Vec<RetainedSpan>,
    retained_dropped: u64,
    collapsed: Vec<(String, u64)>,
    merges: u64,
    merge_ns: u64,
    samples: u64,
    sample_ns: u64,
}

struct WallInner {
    started: Instant,
    retained_cap: usize,
    slots: Vec<SpanSlot>,
    agg: Mutex<AggState>,
}

/// The wall-clock flight recorder.
///
/// Cheap to clone — clones share the same rings and merge state.
#[derive(Clone)]
pub struct Wall {
    inner: Arc<WallInner>,
}

impl std::fmt::Debug for Wall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wall")
            .field("threads", &self.inner.slots.len())
            .finish()
    }
}

impl Wall {
    /// A wall with `threads` slots and `ring_capacity` buffered spans
    /// per thread.
    ///
    /// # Panics
    ///
    /// Panics if `ring_capacity < 2`.
    pub fn new(threads: usize, ring_capacity: usize) -> Wall {
        let slots = (0..threads)
            .map(|_| SpanSlot {
                ring: Ring::new(ring_capacity),
                live_depth: AtomicU64::new(0),
                live: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        Wall {
            inner: Arc::new(WallInner {
                started: Instant::now(),
                retained_cap: DEFAULT_RETAINED_SPANS,
                slots,
                agg: Mutex::new(AggState {
                    epoch: 0,
                    hists: Family::ALL.iter().map(|_| Histogram::new()).collect(),
                    totals: vec![0; Family::ALL.len()],
                    retained: Vec::new(),
                    retained_dropped: 0,
                    collapsed: Vec::new(),
                    merges: 0,
                    merge_ns: 0,
                    samples: 0,
                    sample_ns: 0,
                }),
            }),
        }
    }

    /// A wall with the default ring capacity.
    pub fn with_threads(threads: usize) -> Wall {
        Wall::new(threads, DEFAULT_SPAN_RING_CAPACITY)
    }

    /// Thread slots configured.
    pub fn threads(&self) -> usize {
        self.inner.slots.len()
    }

    /// ns since the wall was created (the clock spans are stamped with).
    pub fn now_ns(&self) -> u64 {
        self.inner.started.elapsed().as_nanos() as u64
    }

    /// Claims thread slot `index`'s producer handle. Each slot has
    /// exactly one producer: the first claim wins, later claims (and
    /// out-of-range indices) get `None`.
    pub fn thread(&self, index: usize) -> Option<WallThread> {
        self.inner
            .slots
            .get(index)?
            .ring
            .claim()
            .then(|| WallThread {
                inner: Arc::clone(&self.inner),
                index,
                stack: RefCell::new(Vec::new()),
                next_id: Cell::new(0),
            })
    }

    fn agg_lock(&self) -> crate::model::sync::MutexGuard<'_, AggState> {
        match self.inner.agg.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Drains every ring into the per-family histograms and the
    /// retained-span list, bumps the epoch, and returns the merged view.
    /// Cold side only; producers never block on it.
    pub fn snapshot(&self) -> WallSnapshot {
        let t0 = Instant::now();
        let mut agg = self.agg_lock();
        let agg = &mut *agg;
        for (thread, slot) in self.inner.slots.iter().enumerate() {
            slot.ring
                .drain(|&[id, parent, family, start_ns, dur_ns, _]| {
                    let fi = family as usize;
                    agg.hists[fi].observe(dur_ns);
                    agg.totals[fi] = agg.totals[fi].saturating_add(dur_ns);
                    if agg.retained.len() < self.inner.retained_cap {
                        agg.retained.push(RetainedSpan {
                            id,
                            parent,
                            family: Family::ALL[fi],
                            thread,
                            start_ns,
                            dur_ns,
                        });
                    } else {
                        agg.retained_dropped += 1;
                    }
                });
        }
        agg.epoch += 1;
        agg.merges += 1;
        agg.merge_ns += t0.elapsed().as_nanos() as u64;
        WallSnapshot {
            epoch: agg.epoch,
            uptime_ns: self.now_ns(),
            families: Family::ALL
                .iter()
                .zip(&agg.hists)
                .zip(&agg.totals)
                .map(|((&family, h), &total_ns)| FamilyStats {
                    family,
                    count: h.count(),
                    total_ns,
                    p50_ns: h.quantile(0.50),
                    p99_ns: h.quantile(0.99),
                    p999_ns: h.quantile(0.999),
                    max_ns: h.max(),
                })
                .collect(),
            collapsed: agg
                .collapsed
                .iter()
                .map(|(stack, count)| StackCount {
                    stack: stack.clone(),
                    count: *count,
                })
                .collect(),
            overhead: self.overhead_locked(agg),
        }
    }

    /// One flight-recorder pass: reads every thread's live span stack
    /// and folds the observed shapes into the collapsed-stack counts.
    /// Returns how many non-empty stacks were observed. Approximate by
    /// design — a stack mutating mid-read yields a momentarily stale
    /// (never torn) frame.
    pub fn sample_stacks(&self) -> usize {
        let t0 = Instant::now();
        let mut seen = 0usize;
        let mut agg = self.agg_lock();
        for slot in &self.inner.slots {
            // ord: Acquire pairs with the producer's Release depth store
            // in enter(): frames below `depth` were published before
            // the depth became visible.
            let depth = slot.live_depth.load(Ordering::Acquire) as usize;
            let depth = depth.min(MAX_LIVE_DEPTH);
            if depth == 0 {
                continue;
            }
            let mut stack = String::new();
            for entry in slot.live.iter().take(depth) {
                // ord: Relaxed — covered by the Acquire depth load; a
                // racing re-push can make this momentarily stale, which
                // sampling tolerates.
                let family = Family::ALL[entry.load(Ordering::Relaxed) as usize];
                if !stack.is_empty() {
                    stack.push(';');
                }
                stack.push_str(family.name());
            }
            seen += 1;
            match agg.collapsed.iter_mut().find(|(s, _)| *s == stack) {
                Some((_, count)) => *count += 1,
                None => agg.collapsed.push((stack, 1)),
            }
        }
        agg.samples += 1;
        agg.sample_ns += t0.elapsed().as_nanos() as u64;
        seen
    }

    /// Wall self-accounting so far (without forcing a merge).
    pub fn overhead(&self) -> WallOverhead {
        self.overhead_locked(&self.agg_lock())
    }

    fn overhead_locked(&self, agg: &AggState) -> WallOverhead {
        let rings = || self.inner.slots.iter().map(|s| &s.ring);
        let spans: u64 = rings().map(Ring::published).sum();
        WallOverhead {
            spans,
            dropped: rings().map(Ring::dropped).sum(),
            retained_dropped: agg.retained_dropped,
            bytes: spans * (SPAN_WORDS as u64) * 8,
            record_ns: rings().map(Ring::cost_ns).sum(),
            merges: agg.merges,
            merge_ns: agg.merge_ns,
            samples: agg.samples,
            sample_ns: agg.sample_ns,
        }
    }

    /// The default [`Budget`] verdict against the wall's own uptime —
    /// the serving edge's "is tracing still cheap" answer.
    pub fn budget_verdict(&self) -> BudgetVerdict {
        Budget::default().verdict(self.overhead().total_ns(), self.now_ns())
    }

    /// The retained closed spans (for Chrome export). Forces a merge
    /// first so freshly closed spans are included.
    pub fn spans(&self) -> Vec<RetainedSpan> {
        let _ = self.snapshot();
        self.agg_lock().retained.clone()
    }
}

/// A thread's producer handle. Deliberately not `Clone`: one producer
/// per ring is what makes the ring SPSC.
pub struct WallThread {
    inner: Arc<WallInner>,
    index: usize,
    /// Open frames: `(id, parent, family, start_ns)`.
    stack: RefCell<Vec<(u64, u64, Family, u64)>>,
    next_id: Cell<u64>,
}

impl std::fmt::Debug for WallThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WallThread")
            .field("index", &self.index)
            .finish()
    }
}

impl WallThread {
    /// The slot index this handle records to.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The id of the innermost open span, 0 when none.
    pub fn current(&self) -> u64 {
        self.stack.borrow().last().map_or(0, |f| f.0)
    }

    fn slot(&self) -> &SpanSlot {
        &self.inner.slots[self.index]
    }

    /// Publishes the open-stack depth to the sampler.
    fn set_depth(&self, depth: usize) {
        let live_depth = &self.slot().live_depth;
        // ord: Release pairs with the sampler's Acquire depth load in
        // sample_stacks(): entries below `depth` are visible before the
        // depth is, and frames at or above it are dead to the sampler.
        live_depth.store(depth as u64, Ordering::Release);
    }

    /// Opens a span of `family`, parented to the innermost open span on
    /// this thread. Returns the (nonzero) span id. Self-measured into
    /// [`WallOverhead::record_ns`].
    pub fn enter(&self, family: Family) -> u64 {
        self.enter_with_parent(family, self.current())
    }

    /// Opens a span of `family` with an explicit parent id — the
    /// cross-thread causality hook (e.g. runner tasks parented to the
    /// driver's sweep span).
    pub fn enter_with_parent(&self, family: Family, parent: u64) -> u64 {
        let t0 = Instant::now();
        let id = self.next_id.get() + 1;
        self.next_id.set(id);
        // Thread index in the high 16 bits keeps ids globally unique
        // without any shared allocation.
        let id = ((self.index as u64 + 1) << 48) | id;
        let start_ns = t0.duration_since(self.inner.started).as_nanos() as u64;
        let depth = {
            let mut stack = self.stack.borrow_mut();
            stack.push((id, parent, family, start_ns));
            stack.len()
        };
        if let Some(entry) = self.slot().live.get(depth - 1) {
            // ord: Relaxed — the Release depth store below publishes
            // this entry to the sampler.
            entry.store(family as u64, Ordering::Relaxed);
        }
        self.set_depth(depth);
        self.slot().ring.bill(t0.elapsed().as_nanos() as u64);
        id
    }

    /// Closes the innermost open span and pushes it into this thread's
    /// ring. A full ring drops the record and counts the drop — the
    /// caller never waits.
    ///
    /// `id` is the value [`enter`](Self::enter) returned; a mismatch
    /// (unbalanced guards) still closes the innermost frame, keeping
    /// the stack consistent.
    pub fn exit(&self, id: u64) {
        let t0 = Instant::now();
        let Some((span_id, parent, family, start_ns)) = self.stack.borrow_mut().pop() else {
            return;
        };
        debug_assert_eq!(span_id, id, "span guards must close LIFO");
        self.set_depth(self.stack.borrow().len());
        let end_ns = t0.duration_since(self.inner.started).as_nanos() as u64;
        let dur_ns = end_ns.saturating_sub(start_ns);
        let ring = &self.slot().ring;
        ring.push([span_id, parent, family as u64, start_ns, dur_ns, 0]);
        ring.bill(t0.elapsed().as_nanos() as u64);
    }

    /// Discards the innermost open span without recording it (used when
    /// a span turns out to cover nothing, e.g. a task claim that found
    /// the queue empty).
    pub fn cancel(&self, id: u64) {
        let popped = self.stack.borrow_mut().pop();
        debug_assert!(
            popped.is_none_or(|f| f.0 == id),
            "span guards must close LIFO"
        );
        self.set_depth(self.stack.borrow().len());
    }
}

// ---------------------------------------------------------------------
// Thread-propagated context: a thread attaches its WallThread once and
// instrumentation anywhere down the call stack opens spans without
// plumbing a handle through every signature.
// ---------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Option<WallThread>> = const { RefCell::new(None) };
}

/// Claims slot `index` of `wall` and installs the handle as this
/// thread's recording context. Returns false (and leaves any existing
/// context in place) when the slot is already claimed or out of range.
pub fn attach(wall: &Wall, index: usize) -> bool {
    match wall.thread(index) {
        Some(t) => {
            CURRENT.with(|c| *c.borrow_mut() = Some(t));
            true
        }
        None => false,
    }
}

/// Drops this thread's recording context (open guards become no-ops).
/// The slot stays claimed — like the hub, one producer per slot per
/// wall lifetime.
pub fn detach() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// The innermost open span id on this thread, 0 when none (or
/// unattached). Hand this to [`span_with_parent`] on another thread for
/// cross-thread causality.
pub fn current_id() -> u64 {
    CURRENT.with(|c| c.borrow().as_ref().map_or(0, |t| t.current()))
}

/// An RAII span: closes (records) the span when dropped.
#[must_use = "a span measures nothing unless held for its extent"]
#[derive(Debug)]
pub struct ScopedSpan {
    id: u64,
}

impl ScopedSpan {
    /// The span id (0 when this thread is unattached).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Discards the span without recording it.
    pub fn cancel(mut self) {
        let id = std::mem::take(&mut self.id);
        with_attached(id, |t| t.cancel(id));
    }
}

impl Drop for ScopedSpan {
    fn drop(&mut self) {
        with_attached(self.id, |t| t.exit(self.id));
    }
}

/// Runs `f` on this thread's attached handle, unless `id` is the inert
/// 0 of an unattached guard.
fn with_attached(id: u64, f: impl FnOnce(&WallThread)) {
    if id != 0 {
        CURRENT.with(|c| {
            if let Some(t) = c.borrow().as_ref() {
                f(t);
            }
        });
    }
}

/// Opens a span of `family` on this thread's attached context,
/// parented to the innermost open span. A no-op (id 0) when the thread
/// is unattached.
pub fn span(family: Family) -> ScopedSpan {
    ScopedSpan {
        id: CURRENT.with(|c| c.borrow().as_ref().map_or(0, |t| t.enter(family))),
    }
}

/// As [`span`], with an explicit parent id (0 for a root).
pub fn span_with_parent(family: Family, parent: u64) -> ScopedSpan {
    ScopedSpan {
        id: CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .map_or(0, |t| t.enter_with_parent(family, parent))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_table_indexes_and_names_are_unique() {
        for (i, f) in Family::ALL.iter().enumerate() {
            assert_eq!(*f as usize, i, "ALL is in discriminant order");
        }
        let mut names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Family::ALL.len(), "duplicate family name");
        assert_eq!(
            Family::MachineBlock.to_json().compact(),
            "\"machine/block\""
        );
    }

    #[test]
    fn overhead_total_sums_record_merge_and_sample() {
        let o = WallOverhead {
            record_ns: 1_000,
            merge_ns: 500,
            sample_ns: 500,
            ..WallOverhead::default()
        };
        assert_eq!(o.total_ns(), 2_000);
    }

    #[test]
    fn nested_spans_aggregate_and_retain_causality() {
        let wall = Wall::with_threads(2);
        let t = wall.thread(0).expect("first claim");
        let outer = t.enter(Family::Sweep);
        let inner = t.enter(Family::Task);
        t.exit(inner);
        t.exit(outer);
        let snap = wall.snapshot();
        assert_eq!(snap.families.len(), Family::ALL.len());
        assert_eq!(snap.epoch, 1);
        let sweep = snap.family(Family::Sweep).expect("sweep row");
        assert_eq!(sweep.count, 1);
        let task = snap.family(Family::Task).expect("task row");
        assert_eq!(task.count, 1);
        assert!(sweep.max_ns >= task.max_ns, "outer span covers inner");
        assert_eq!(snap.total_spans(), 2);
        // The second claim of the same slot must fail (SPSC).
        assert!(wall.thread(0).is_none(), "slot 0 already claimed");
        assert!(wall.thread(5).is_none(), "out of range");
        let o = wall.overhead();
        assert_eq!(o.spans, 2);
        assert_eq!(o.bytes, 2 * (SPAN_WORDS as u64) * 8);
        assert!(o.record_ns > 0);
        assert!(o.merges >= 1);
        // Both spans survive into the retained list with causality.
        let spans = wall.spans();
        assert_eq!(spans.len(), 2);
        let task_span = spans
            .iter()
            .find(|s| s.family == Family::Task)
            .expect("task span retained");
        let sweep_span = spans
            .iter()
            .find(|s| s.family == Family::Sweep)
            .expect("sweep span retained");
        assert_eq!(task_span.parent, sweep_span.id, "nesting sets parent");
        assert_eq!(sweep_span.parent, 0, "root has no parent");
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let wall = Wall::new(1, 4);
        let t = wall.thread(0).expect("claim");
        for _ in 0..10 {
            let id = t.enter(Family::Run);
            t.exit(id);
        }
        let snap = wall.snapshot();
        let o = snap.overhead;
        assert_eq!(o.spans, 4, "ring holds 4");
        assert_eq!(o.dropped, 6);
        assert_eq!(o.spans + o.dropped, 10, "record conservation");
        assert_eq!(snap.family(Family::Run).expect("run row").count, 4);
        // After the drain the ring has room again.
        let id = t.enter(Family::Run);
        t.exit(id);
        let snap = wall.snapshot();
        assert_eq!(snap.family(Family::Run).expect("run row").count, 5);
        assert_eq!(snap.epoch, 2);
    }

    #[test]
    fn cancel_discards_the_frame() {
        let wall = Wall::with_threads(1);
        let t = wall.thread(0).expect("claim");
        let id = t.enter(Family::Claim);
        t.cancel(id);
        assert_eq!(t.current(), 0, "stack unwound");
        assert_eq!(wall.snapshot().total_spans(), 0, "nothing recorded");
    }

    #[test]
    fn live_stack_sampling_collapses() {
        let wall = Wall::with_threads(1);
        let t = wall.thread(0).expect("claim");
        let outer = t.enter(Family::Sweep);
        let inner = t.enter(Family::Task);
        assert_eq!(wall.sample_stacks(), 1);
        assert_eq!(wall.sample_stacks(), 1);
        t.exit(inner);
        assert_eq!(wall.sample_stacks(), 1, "outer frame still live");
        t.exit(outer);
        assert_eq!(wall.sample_stacks(), 0, "empty stacks are skipped");
        let snap = wall.snapshot();
        let deep = snap
            .collapsed
            .iter()
            .find(|s| s.stack == "sweep;runner/task")
            .expect("nested stack sampled");
        assert_eq!(deep.count, 2);
        let shallow = snap
            .collapsed
            .iter()
            .find(|s| s.stack == "sweep")
            .expect("outer-only stack sampled");
        assert_eq!(shallow.count, 1);
        assert!(snap.collapsed_text().contains("sweep;runner/task 2\n"));
        assert_eq!(snap.overhead.samples, 4);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let wall = Wall::with_threads(2);
        let driver = wall.thread(0).expect("claim 0");
        let root = driver.enter(Family::Sweep);
        let worker = wall.thread(1).expect("claim 1");
        let task = worker.enter_with_parent(Family::Task, root);
        worker.exit(task);
        driver.exit(root);
        let spans = wall.spans();
        let task_span = spans
            .iter()
            .find(|s| s.family == Family::Task)
            .expect("task retained");
        assert_eq!(task_span.parent, root);
        assert_eq!(task_span.thread, 1);
        // Ids from different threads never collide.
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), spans.len());
    }

    #[test]
    fn tls_spans_record_through_the_attached_context() {
        let wall = Wall::with_threads(1);
        assert!(attach(&wall, 0), "first attach claims the slot");
        {
            let outer = span(Family::Sweep);
            assert_ne!(outer.id(), 0);
            assert_eq!(current_id(), outer.id());
            let inner = span(Family::Task);
            drop(inner);
            drop(outer);
        }
        // Cancelled guards record nothing.
        let ghost = span(Family::Claim);
        ghost.cancel();
        detach();
        // Unattached: guards are inert.
        let idle = span(Family::Run);
        assert_eq!(idle.id(), 0);
        drop(idle);
        assert_eq!(current_id(), 0);
        let snap = wall.snapshot();
        assert_eq!(snap.total_spans(), 2, "sweep + task, no claim/run");
        assert_eq!(snap.family(Family::Claim).expect("claim row").count, 0);
    }

    #[test]
    fn snapshot_json_shape() {
        let wall = Wall::with_threads(1);
        let j = wall.snapshot().to_json();
        assert!(j.get("epoch").is_some());
        assert!(j.get("families").is_some());
        assert!(j.get("collapsed").is_some());
        assert!(j.get("overhead").is_some());
        assert!(j.get("total_spans").is_some());
    }

    #[cfg_attr(miri, ignore = "timed producer loops are too slow under miri")]
    #[test]
    fn concurrent_record_merge_and_sample() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let wall = Wall::with_threads(4);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for i in 0..4 {
                let t = wall.thread(i).expect("claim");
                let stop = &stop;
                scope.spawn(move || {
                    // A guaranteed floor of iterations first: the main
                    // thread's snapshot loop can finish before a slow
                    // spawn even starts, and the final conservation
                    // check needs spans to conserve.
                    let mut done = 0u32;
                    while done < 50 || !stop.load(Ordering::Relaxed) {
                        let outer = t.enter(Family::Task);
                        let inner = t.enter(Family::Run);
                        t.exit(inner);
                        t.exit(outer);
                        done += 1;
                    }
                });
            }
            for _ in 0..100 {
                let snap = wall.snapshot();
                for f in &snap.families {
                    assert!(f.p50_ns <= f.p99_ns && f.p99_ns <= f.p999_ns);
                    assert!(f.p999_ns <= f.max_ns.max(f.p999_ns));
                }
                let _ = wall.sample_stacks();
            }
            stop.store(true, Ordering::Relaxed);
        });
        let snap = wall.snapshot();
        let o = snap.overhead;
        // 4 producers x >= 50 iterations x 2 spans, and a slot can only
        // drop once 1024 records sit undrained — so all 400 floor spans
        // publish.
        assert!(o.spans >= 400);
        assert!(o.merges >= 101);
        assert!(o.samples >= 100);
        // Conservation after join: the final snapshot drained every
        // ring, so the histograms saw exactly the accepted records
        // (drops were counted, never silently lost).
        assert_eq!(snap.total_spans(), o.spans, "merged == accepted");
    }
}
