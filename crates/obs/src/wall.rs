//! Wall-clock span recorder: causal span tracing and latency
//! self-profiling for the simulator's *own* execution.
//!
//! The event ring and the profiler measure *simulated* time —
//! instructions, misses, migrations. This module measures where the
//! simulator spends *wall-clock* time: which runner stage, which
//! machine block, which differ case. Three readers hang off the closed
//! spans:
//!
//! - **Latency histograms.** [`Wall::snapshot`] folds every span into a
//!   per-family log-2 [`Histogram`] (nanoseconds) and reports
//!   p50/p99/p999 per span family.
//! - **Folded stacks.** [`fold`] weighs each stack of same-thread spans
//!   by its exact self time in µs and renders collapsed-stack
//!   (flamegraph-compatible) lines.
//! - **Causal trace.** Closed spans carry u64 span/parent IDs, so they
//!   export as a Chrome trace ([`crate::chrome::render_wall_trace`])
//!   that can be merged with the simulated-time profile for a
//!   dual-clock view.
//!
//! **Per-thread buffers, read after the fact.** An attached thread
//! keeps its open spans and its closed spans to itself: a span closed
//! past the buffer's capacity is dropped and counted, and the recording
//! thread never waits. [`detach`] hands the buffer to the [`Wall`];
//! [`Wall::snapshot`], [`Wall::spans`] and the fold read only
//! handed-over spans, so nothing reads a buffer while its thread still
//! writes it. The runner's workers detach before they are joined.
//!
//! **Off means unattached.** Spans are coarse (runner stages, machine
//! runs, differ cases), so the wall has no compile-time twin: a thread
//! with no attached context opens inert guards.
//!
//! **Span families are a closed enum.** [`Family`] names every span
//! kind; [`Family::ALL`] is also the row order of
//! [`WallSnapshot::families`].

use crate::metrics::Histogram;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The span families, in [`WallSnapshot::families`] row order.
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
    /// One `Machine::run_shared` call (every machine in the slice, over
    /// one stream).
    MachineBlock,
    /// One differ suite-lockstep case.
    DifferCase,
    /// One differ fuzz round (generate + lockstep + shrink).
    DifferFuzz,
}

impl Family {
    /// Every family, in stable index order (`family as usize` indexes
    /// this table).
    pub const ALL: [Family; 7] = [
        Family::Sweep,
        Family::Task,
        Family::Claim,
        Family::Run,
        Family::MachineBlock,
        Family::DifferCase,
        Family::DifferFuzz,
    ];

    /// The family's name in collapsed stacks and Chrome traces.
    pub fn name(self) -> &'static str {
        match self {
            Family::Sweep => "sweep",
            Family::Task => "runner/task",
            Family::Claim => "runner/claim",
            Family::Run => "runner/run",
            Family::MachineBlock => "machine/block",
            Family::DifferCase => "differ/case",
            Family::DifferFuzz => "differ/fuzz",
        }
    }
}

/// Default per-thread buffer capacity: closed spans one attached thread
/// keeps until it detaches. Spans are coarse (tasks, machine runs), so
/// this covers thousands of tasks per worker.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// Per-family latency stats at snapshot time (all durations in ns).
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyStats {
    /// The span family.
    pub family: Family,
    /// Closed spans handed over so far.
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

/// One closed span.
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

/// One folded stack shape and its self time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StackCount {
    /// Semicolon-joined family names, outermost first — the collapsed
    /// stack format `flamegraph.pl` and speedscope ingest directly.
    pub stack: String,
    /// Self time of the stack's innermost frame, in µs.
    pub count: u64,
}

/// What the wall's own instrumentation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WallOverhead {
    /// Closed spans handed over.
    pub spans: u64,
    /// Closed spans dropped on full per-thread buffers.
    pub dropped: u64,
    /// Nanoseconds inside span enter/exit, summed over threads.
    pub record_ns: u64,
}

/// The merged view of every handed-over span.
#[derive(Debug, Clone, PartialEq)]
pub struct WallSnapshot {
    /// Per-family latency stats, one row per [`Family::ALL`] entry.
    pub families: Vec<FamilyStats>,
    /// Folded stacks, as [`fold`] renders them.
    pub collapsed: Vec<StackCount>,
    /// Wall self-accounting.
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

/// Folds closed spans into collapsed stacks weighted by exact self
/// time, in µs.
///
/// A span's stack is its chain of same-thread ancestors, outermost
/// first; a parent on another thread (a runner task's sweep) starts a
/// new stack. Its self time is its duration minus its same-thread
/// children's. A span that parents work on another thread folds
/// nothing of its own: its thread was waiting on that work, which folds
/// where it ran. Stacks sum over spans, come out sorted by stack, and
/// those under 1 µs are left out.
pub fn fold(spans: &[RetainedSpan]) -> Vec<StackCount> {
    let by_id: HashMap<u64, &RetainedSpan> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    let mut waits: HashSet<u64> = HashSet::new();
    for s in spans {
        match by_id.get(&s.parent) {
            Some(p) if p.thread == s.thread => *child_ns.entry(p.id).or_default() += s.dur_ns,
            Some(p) => {
                waits.insert(p.id);
            }
            None => {}
        }
    }
    let mut self_ns: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| !waits.contains(&s.id)) {
        let own = s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let mut names = vec![s.family.name()];
        let mut at = s;
        while let Some(p) = by_id.get(&at.parent).filter(|p| p.thread == at.thread) {
            names.push(p.family.name());
            at = p;
        }
        names.reverse();
        *self_ns.entry(names.join(";")).or_default() += own;
    }
    self_ns
        .into_iter()
        .filter(|&(_, ns)| ns >= 1000)
        .map(|(stack, ns)| StackCount {
            stack,
            count: ns / 1000,
        })
        .collect()
}

/// Slot claims and the handed-over spans, behind one mutex that only
/// [`attach`], [`detach`] and the readers take — never a span.
struct Merged {
    claimed: Vec<bool>,
    spans: Vec<RetainedSpan>,
    dropped: u64,
    record_ns: u64,
}

struct WallInner {
    started: Instant,
    capacity: usize,
    merged: Mutex<Merged>,
}

impl WallInner {
    fn lock(&self) -> MutexGuard<'_, Merged> {
        match self.merged.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// The wall-clock span recorder.
///
/// Cheap to clone — clones share the same handed-over spans.
#[derive(Clone)]
pub struct Wall {
    inner: Arc<WallInner>,
}

impl std::fmt::Debug for Wall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wall").finish_non_exhaustive()
    }
}

impl Wall {
    /// A wall with `threads` slots, each keeping up to `capacity`
    /// closed spans until its thread detaches.
    pub fn new(threads: usize, capacity: usize) -> Wall {
        Wall {
            inner: Arc::new(WallInner {
                started: Instant::now(),
                capacity,
                merged: Mutex::new(Merged {
                    claimed: vec![false; threads],
                    spans: Vec::new(),
                    dropped: 0,
                    record_ns: 0,
                }),
            }),
        }
    }

    /// A wall with the default per-thread capacity.
    pub fn with_threads(threads: usize) -> Wall {
        Wall::new(threads, DEFAULT_SPAN_CAPACITY)
    }

    /// Claims slot `index` for one thread: the first claim wins, later
    /// claims (and out-of-range indices) get `None`.
    fn claim(&self, index: usize) -> Option<WallThread> {
        let mut merged = self.inner.lock();
        let slot = merged.claimed.get_mut(index)?;
        if std::mem::replace(slot, true) {
            return None;
        }
        Some(WallThread {
            inner: Arc::clone(&self.inner),
            index,
            next_id: 0,
            stack: Vec::new(),
            closed: Vec::new(),
            dropped: 0,
            record_ns: 0,
        })
    }

    /// Per-family latency stats, folded stacks and self-accounting over
    /// every handed-over span.
    pub fn snapshot(&self) -> WallSnapshot {
        let merged = self.inner.lock();
        let mut hists = Family::ALL.map(|_| Histogram::new());
        let mut totals = [0u64; Family::ALL.len()];
        for s in &merged.spans {
            let fi = s.family as usize;
            hists[fi].observe(s.dur_ns);
            totals[fi] = totals[fi].saturating_add(s.dur_ns);
        }
        WallSnapshot {
            families: Family::ALL
                .iter()
                .zip(&hists)
                .zip(totals)
                .map(|((&family, h), total_ns)| FamilyStats {
                    family,
                    count: h.count(),
                    total_ns,
                    p50_ns: h.quantile(0.50),
                    p99_ns: h.quantile(0.99),
                    p999_ns: h.quantile(0.999),
                    max_ns: h.max(),
                })
                .collect(),
            collapsed: fold(&merged.spans),
            overhead: WallOverhead {
                spans: merged.spans.len() as u64,
                dropped: merged.dropped,
                record_ns: merged.record_ns,
            },
        }
    }

    /// The handed-over spans, by thread slot and then in open order.
    pub fn spans(&self) -> Vec<RetainedSpan> {
        let mut spans = self.inner.lock().spans.clone();
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }
}

/// One attached thread's recording state: its open-span stack and its
/// closed-span buffer. Dropping it hands the buffer to the wall.
struct WallThread {
    inner: Arc<WallInner>,
    index: usize,
    next_id: u64,
    /// Open frames: `(id, parent, family, start_ns)`.
    stack: Vec<(u64, u64, Family, u64)>,
    closed: Vec<RetainedSpan>,
    dropped: u64,
    record_ns: u64,
}

impl WallThread {
    /// The id of the innermost open span, 0 when none.
    fn current(&self) -> u64 {
        self.stack.last().map_or(0, |f| f.0)
    }

    fn since_start(&self, t: Instant) -> u64 {
        t.duration_since(self.inner.started).as_nanos() as u64
    }

    /// Opens a span of `family` with the given parent id and returns
    /// its (nonzero) id.
    fn enter(&mut self, family: Family, parent: u64) -> u64 {
        let t0 = Instant::now();
        self.next_id += 1;
        // Thread index in the high 16 bits keeps ids globally unique
        // without any shared allocation.
        let id = ((self.index as u64 + 1) << 48) | self.next_id;
        let start_ns = self.since_start(t0);
        self.stack.push((id, parent, family, start_ns));
        self.record_ns += t0.elapsed().as_nanos() as u64;
        id
    }

    /// Closes the innermost open span into the buffer, or drops and
    /// counts it when the buffer is full. `id` is the value
    /// [`enter`](Self::enter) returned; a mismatch (unbalanced guards)
    /// still closes the innermost frame, keeping the stack consistent.
    fn exit(&mut self, id: u64) {
        let t0 = Instant::now();
        let Some((span_id, parent, family, start_ns)) = self.stack.pop() else {
            return;
        };
        debug_assert_eq!(span_id, id, "span guards must close LIFO");
        if self.closed.len() < self.inner.capacity {
            self.closed.push(RetainedSpan {
                id: span_id,
                parent,
                family,
                thread: self.index,
                start_ns,
                dur_ns: self.since_start(t0).saturating_sub(start_ns),
            });
        } else {
            self.dropped += 1;
        }
        self.record_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Discards the innermost open span without recording it.
    fn cancel(&mut self, id: u64) {
        let popped = self.stack.pop();
        debug_assert!(
            popped.is_none_or(|f| f.0 == id),
            "span guards must close LIFO"
        );
    }
}

impl Drop for WallThread {
    fn drop(&mut self) {
        let mut merged = self.inner.lock();
        merged.spans.append(&mut self.closed);
        merged.dropped += self.dropped;
        merged.record_ns += self.record_ns;
    }
}

// ---------------------------------------------------------------------
// Thread-propagated context: a thread attaches once and instrumentation
// anywhere down the call stack opens spans without plumbing a handle
// through every signature.
// ---------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Option<WallThread>> = const { RefCell::new(None) };
}

/// Claims slot `index` of `wall` as this thread's recording context.
/// Returns false (and leaves any existing context in place) when the
/// slot is already claimed or out of range. One thread per slot per
/// wall lifetime.
pub fn attach(wall: &Wall, index: usize) -> bool {
    match wall.claim(index) {
        Some(t) => {
            CURRENT.with(|c| *c.borrow_mut() = Some(t));
            true
        }
        None => false,
    }
}

/// Ends this thread's recording context and hands its closed spans to
/// the wall; spans still open are discarded, and open guards become
/// no-ops.
pub fn detach() {
    drop(CURRENT.with(|c| c.borrow_mut().take()));
}

/// The innermost open span id on this thread, 0 when none (or
/// unattached). Hand this to [`span_with_parent`] on another thread for
/// cross-thread causality.
pub fn current_id() -> u64 {
    CURRENT.with(|c| c.borrow().as_ref().map_or(0, WallThread::current))
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
        let id = self.id;
        with_attached(id, |t| t.exit(id));
    }
}

/// Runs `f` on this thread's attached context, unless `id` is the
/// inert 0 of an unattached guard.
fn with_attached(id: u64, f: impl FnOnce(&mut WallThread)) {
    if id != 0 {
        CURRENT.with(|c| {
            if let Some(t) = c.borrow_mut().as_mut() {
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
        id: CURRENT.with(|c| {
            c.borrow_mut().as_mut().map_or(0, |t| {
                let parent = t.current();
                t.enter(family, parent)
            })
        }),
    }
}

/// As [`span`], with an explicit parent id (0 for a root) — the
/// cross-thread causality hook (e.g. runner tasks parented to the
/// driver's sweep span).
pub fn span_with_parent(family: Family, parent: u64) -> ScopedSpan {
    ScopedSpan {
        id: CURRENT.with(|c| {
            c.borrow_mut()
                .as_mut()
                .map_or(0, |t| t.enter(family, parent))
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
    }

    #[test]
    fn nested_spans_aggregate_and_retain_causality() {
        let wall = Wall::with_threads(2);
        assert!(attach(&wall, 0), "first claim");
        {
            let _outer = span(Family::Sweep);
            let _inner = span(Family::Task);
        }
        // Nothing is read before the thread hands its buffer over.
        assert_eq!(wall.snapshot().total_spans(), 0);
        detach();
        let snap = wall.snapshot();
        assert_eq!(snap.families.len(), Family::ALL.len());
        let sweep = snap.family(Family::Sweep).expect("sweep row");
        let task = snap.family(Family::Task).expect("task row");
        assert_eq!((sweep.count, task.count), (1, 1));
        assert!(sweep.max_ns >= task.max_ns, "outer span covers inner");
        assert_eq!(snap.total_spans(), 2);
        // A slot is claimed once per wall lifetime.
        assert!(!attach(&wall, 0), "slot 0 already claimed");
        assert!(!attach(&wall, 5), "out of range");
        let o = snap.overhead;
        assert_eq!((o.spans, o.dropped), (2, 0));
        assert!(o.record_ns > 0);
        let spans = wall.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].family, Family::Sweep, "open order");
        assert_eq!(spans[1].parent, spans[0].id, "nesting sets parent");
        assert_eq!(spans[0].parent, 0, "root has no parent");
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let wall = Wall::new(1, 4);
        assert!(attach(&wall, 0));
        for _ in 0..10 {
            drop(span(Family::Run));
        }
        detach();
        let snap = wall.snapshot();
        let o = snap.overhead;
        assert_eq!((o.spans, o.dropped), (4, 6), "record conservation");
        assert_eq!(snap.family(Family::Run).expect("run row").count, 4);
    }

    #[test]
    fn cancel_and_unattached_guards_record_nothing() {
        let wall = Wall::with_threads(1);
        assert!(attach(&wall, 0));
        let claim = span(Family::Claim);
        assert_eq!(current_id(), claim.id());
        claim.cancel();
        assert_eq!(current_id(), 0, "stack unwound");
        let open = span(Family::Run);
        detach();
        // Detached: guards are inert, and the open span is discarded.
        assert_eq!(span(Family::Task).id(), 0);
        drop(open);
        assert_eq!(current_id(), 0);
        assert_eq!(wall.snapshot().total_spans(), 0, "nothing recorded");
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let wall = Wall::with_threads(2);
        assert!(attach(&wall, 1));
        let root = span(Family::Sweep);
        let parent = root.id();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(attach(&wall, 0));
                drop(span_with_parent(Family::Task, parent));
                detach();
            });
        });
        drop(root);
        detach();
        let spans = wall.spans();
        let task = spans.iter().find(|s| s.family == Family::Task);
        let task = task.expect("task handed over");
        assert_eq!((task.parent, task.thread), (parent, 0));
        // Ids from different threads never collide.
        let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), spans.len());
    }

    fn closed(
        id: u64,
        parent: u64,
        family: Family,
        thread: usize,
        start_us: u64,
        dur_us: u64,
    ) -> RetainedSpan {
        RetainedSpan {
            id,
            parent,
            family,
            thread,
            start_ns: start_us * 1000,
            dur_ns: dur_us * 1000,
        }
    }

    /// The fold on synthetic spans: a driver's `sweep` on thread 1
    /// parents two tasks on thread 0. Self time is a span's duration
    /// minus its same-thread children, the sweep folds nothing, and the
    /// lines come out in one order whatever order the spans arrive in.
    #[test]
    fn fold_weighs_stacks_by_same_thread_self_time() {
        let spans = vec![
            closed(1, 0, Family::Sweep, 1, 0, 100),
            closed(10, 1, Family::Task, 0, 1, 40),
            closed(11, 10, Family::Run, 0, 2, 35),
            closed(12, 11, Family::MachineBlock, 0, 3, 30),
            closed(20, 1, Family::Task, 0, 50, 45),
            closed(21, 20, Family::Claim, 0, 50, 0),
            closed(22, 20, Family::Run, 0, 51, 40),
            closed(23, 22, Family::MachineBlock, 0, 52, 38),
        ];
        let text = |spans: &[RetainedSpan]| {
            let snap = WallSnapshot {
                families: Vec::new(),
                collapsed: fold(spans),
                overhead: WallOverhead::default(),
            };
            snap.collapsed_text()
        };
        let folded = text(&spans);
        assert_eq!(
            folded,
            "runner/task 10\n\
             runner/task;runner/run 7\n\
             runner/task;runner/run;machine/block 68\n"
        );
        let mut reversed = spans.clone();
        reversed.reverse();
        assert_eq!(text(&reversed), folded, "deterministic line order");
    }

    /// A span with no handed-over parent roots its own stack, and a
    /// driver that both waits on another thread and works on its own
    /// folds only the work.
    #[test]
    fn fold_roots_orphans_and_skips_waiting_parents() {
        let spans = vec![
            closed(1, 0, Family::Sweep, 1, 0, 100),
            closed(2, 1, Family::DifferCase, 1, 10, 20),
            closed(3, 1, Family::Task, 0, 5, 50),
            closed(4, 99, Family::Run, 0, 60, 3),
        ];
        let folded: Vec<(String, u64)> = fold(&spans)
            .into_iter()
            .map(|s| (s.stack, s.count))
            .collect();
        assert_eq!(
            folded,
            [
                ("runner/run".to_string(), 3),
                ("runner/task".to_string(), 50),
                ("sweep;differ/case".to_string(), 20),
            ]
        );
    }
}
