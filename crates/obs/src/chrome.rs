//! Chrome Trace Event Format export.
//!
//! Renders a run's profile ([`ProfileRecord`]s) and event ring
//! ([`TraceEvent`]s) as a Trace Event Format JSON object loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev): one
//! thread track per core carrying execution-residency slices, migration
//! instants tied together by flow arrows, and counter tracks for the
//! interval metrics (`F`, `A_R`, miss densities, per-core residency,
//! bus traffic).
//!
//! The trace clock is the retired-instruction counter, mapped 1:1 onto
//! the format's microsecond timestamps — 1 Minstr reads as 1 s in the
//! viewer, which is the right zoom level for the paper's dynamics
//! (`F`-counter flips every few hundred to few thousand references,
//! affinity settling over tens of Minstr).
//!
//! A second clock domain can ride alongside: [`render_wall_trace`]
//! renders the wall-clock span recorder's closed spans (real
//! nanoseconds, as microsecond timestamps) under their own process id,
//! and [`merge_traces`] splices both documents into one dual-clock
//! trace — simulated time as process 0, wall-clock time as process 1,
//! side by side in the same viewer.
//!
//! Everything here is plain data transformation: a run with no
//! recorder attached passes empty event and profile slices and still
//! renders a valid (residency-only) trace.

use crate::event::{EventKind, TraceEvent};
use crate::json::Json;
use crate::profile::ProfileRecord;
use crate::wall::RetainedSpan;

/// The process id of the simulated-time tracks.
const PID: u64 = 0;

/// The process id of the wall-clock tracks in a dual-clock trace.
pub const WALL_PID: u64 = 1;

/// Incremental builder for a Trace Event Format document.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    pid: u64,
    events: Vec<Json>,
}

impl ChromeTraceBuilder {
    /// An empty trace on process id 0 (the simulated-time clock).
    pub fn new() -> Self {
        ChromeTraceBuilder::with_pid(PID)
    }

    /// An empty trace whose tracks live under `pid` — a separate
    /// process group in the viewer, which is how a second clock domain
    /// (e.g. [`WALL_PID`]) coexists with the simulated-time tracks.
    pub fn with_pid(pid: u64) -> Self {
        ChromeTraceBuilder {
            pid,
            events: Vec::new(),
        }
    }

    fn push(&mut self, ph: &str, extra: Json) {
        let mut obj = Json::object().field("ph", ph).field("pid", self.pid);
        if let (Json::Obj(dst), Json::Obj(src)) = (&mut obj, extra) {
            dst.extend(src);
        }
        self.events.push(obj);
    }

    /// Names the process (metadata event).
    pub fn process_name(&mut self, name: &str) {
        self.push(
            "M",
            Json::object()
                .field("name", "process_name")
                .field("args", Json::object().field("name", name)),
        );
    }

    /// Names thread `tid` (metadata event).
    pub fn thread_name(&mut self, tid: u64, name: &str) {
        self.push(
            "M",
            Json::object()
                .field("tid", tid)
                .field("name", "thread_name")
                .field("args", Json::object().field("name", name)),
        );
    }

    /// A complete slice (`ph: "X"`) on thread `tid`.
    pub fn complete(&mut self, tid: u64, name: &str, ts: u64, dur: u64) {
        self.push(
            "X",
            Json::object()
                .field("tid", tid)
                .field("name", name)
                .field("cat", "residency")
                .field("ts", ts)
                .field("dur", dur),
        );
    }

    /// A complete slice with an explicit category and extra `args`
    /// payload (used by the wall-clock span export to carry span and
    /// parent ids).
    pub fn complete_in(&mut self, tid: u64, name: &str, cat: &str, ts: u64, dur: u64, args: Json) {
        self.push(
            "X",
            Json::object()
                .field("tid", tid)
                .field("name", name)
                .field("cat", cat)
                .field("ts", ts)
                .field("dur", dur)
                .field("args", args),
        );
    }

    /// A thread-scoped instant (`ph: "i"`).
    pub fn instant(&mut self, tid: u64, name: &str, ts: u64) {
        self.push(
            "i",
            Json::object()
                .field("tid", tid)
                .field("name", name)
                .field("cat", "migration")
                .field("s", "t")
                .field("ts", ts),
        );
    }

    /// A flow start (`ph: "s"`): the tail of an arrow with id `id`.
    pub fn flow_start(&mut self, tid: u64, name: &str, id: u64, ts: u64) {
        self.push(
            "s",
            Json::object()
                .field("tid", tid)
                .field("name", name)
                .field("cat", "migration")
                .field("id", id)
                .field("ts", ts),
        );
    }

    /// A flow end (`ph: "f"`): the head of the arrow with id `id`.
    pub fn flow_end(&mut self, tid: u64, name: &str, id: u64, ts: u64) {
        self.push(
            "f",
            Json::object()
                .field("tid", tid)
                .field("name", name)
                .field("cat", "migration")
                .field("id", id)
                .field("bp", "e")
                .field("ts", ts),
        );
    }

    /// A counter sample (`ph: "C"`) with one or more stacked series.
    pub fn counter(&mut self, name: &str, ts: u64, series: &[(&str, f64)]) {
        let mut args = Json::object();
        for (k, v) in series {
            args = args.field(k, *v);
        }
        self.push(
            "C",
            Json::object()
                .field("name", name)
                .field("ts", ts)
                .field("args", args),
        );
    }

    /// Number of events emitted so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finalises the trace as the JSON-object form of the format.
    pub fn build(self) -> Json {
        Json::object()
            .field("traceEvents", Json::Arr(self.events))
            .field("displayTimeUnit", "ms")
    }
}

/// Renders a machine run as a complete trace: per-core residency
/// slices (reconstructed from the migration events), migration
/// instants + flow arrows, and counter tracks from the profile
/// records. `cores` bounds the thread tracks; `end` is the run's final
/// instruction count (closes the last residency slice).
pub fn render_machine_trace(
    records: &[ProfileRecord],
    events: &[TraceEvent],
    cores: usize,
    end: u64,
) -> Json {
    let mut t = ChromeTraceBuilder::new();
    t.process_name("execmig machine");
    for c in 0..cores as u64 {
        t.thread_name(c, &format!("core {c}"));
    }

    // Residency slices between migrations. The ring may have dropped
    // the oldest events; start the first slice where the retained
    // window begins, on the core the first migration leaves from (or
    // the profile's first active core, or 0).
    let migrations: Vec<(u64, u8, u8)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Migration { from, to } => Some((e.at, from, to)),
            _ => None,
        })
        .collect();
    let mut slice_start = 0u64;
    let mut current: u64 = migrations
        .first()
        .map(|&(_, from, _)| u64::from(from))
        .or_else(|| records.first().map(|r| u64::from(r.active_core)))
        .unwrap_or(0);
    for (i, &(at, _, to)) in migrations.iter().enumerate() {
        if at > slice_start {
            t.complete(current, "executing", slice_start, at - slice_start);
        }
        t.instant(u64::from(to), "migration", at);
        t.flow_start(current, "migrate", i as u64, at);
        t.flow_end(u64::from(to), "migrate", i as u64, at);
        slice_start = at;
        current = u64::from(to);
    }
    if end > slice_start {
        t.complete(current, "executing", slice_start, end - slice_start);
    }

    // Counter tracks: one sample per profile interval, stamped at the
    // interval start (a counter holds its value until the next sample).
    for r in records {
        let kinstr = r.len_instructions().max(1) as f64 / 1000.0;
        t.counter(
            "miss density (per kinstr)",
            r.start,
            &[
                ("l1", (r.il1_misses + r.dl1_misses) as f64 / kinstr),
                ("l2", r.l2_misses as f64 / kinstr),
                ("l3", r.l3_misses as f64 / kinstr),
            ],
        );
        t.counter(
            "migrations/interval",
            r.start,
            &[
                ("migrations", r.migrations as f64),
                ("flips", r.flips as f64),
            ],
        );
        t.counter("F", r.start, &[("F", r.f_value as f64)]);
        t.counter("A_R", r.start, &[("A_R", r.a_r as f64)]);
        t.counter(
            "affinity-cache hit rate",
            r.start,
            &[("hit_rate", r.affinity_hit_rate())],
        );
        t.counter(
            "bus bytes/instr",
            r.start,
            &[(
                "bytes",
                r.bus_bytes as f64 / r.len_instructions().max(1) as f64,
            )],
        );
        t.counter(
            "coherence (per kinstr)",
            r.start,
            &[
                ("invalidations", r.invalidations as f64 / kinstr),
                ("updates", r.coherence_updates as f64 / kinstr),
            ],
        );
        let residency: Vec<(String, f64)> = r
            .residency
            .iter()
            .take(cores)
            .enumerate()
            .map(|(c, &v)| (format!("core{c}"), v as f64))
            .collect();
        let series: Vec<(&str, f64)> = residency.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        t.counter("residency (instr)", r.start, &series);
    }
    t.build()
}

/// Renders the wall-clock span recorder's closed spans as a trace
/// under [`WALL_PID`]: one thread track per wall slot, each closed
/// span a complete slice with its span/parent ids in `args`.
/// Timestamps are wall nanoseconds mapped to the format's microsecond
/// field at ns resolution divided by 1000 (sub-µs spans render with
/// duration 0 but keep their exact ids).
///
/// `threads` bounds the named thread tracks; by convention the runner
/// uses slots `0..workers` for workers and the last slot for the
/// driver thread.
pub fn render_wall_trace(spans: &[RetainedSpan], threads: usize) -> Json {
    let mut t = ChromeTraceBuilder::with_pid(WALL_PID);
    t.process_name("execmig wall clock");
    for i in 0..threads as u64 {
        let name = if threads > 1 && i == threads as u64 - 1 {
            "driver".to_string()
        } else {
            format!("worker {i}")
        };
        t.thread_name(i, &name);
    }
    for s in spans {
        t.complete_in(
            s.thread as u64,
            s.family.name(),
            "wall",
            s.start_ns / 1000,
            s.dur_ns / 1000,
            Json::object().field("id", s.id).field("parent", s.parent),
        );
    }
    t.build()
}

/// Splices two built trace documents into one: the union of their
/// `traceEvents` under one `displayTimeUnit`. With
/// [`render_machine_trace`] (pid 0, simulated time) and
/// [`render_wall_trace`] ([`WALL_PID`], wall-clock time) this yields
/// the dual-clock view — both process groups side by side in the same
/// viewer, each on its own clock.
pub fn merge_traces(a: Json, b: Json) -> Json {
    let mut events = Vec::new();
    for doc in [a, b] {
        if let Some(Json::Arr(items)) = doc.get("traceEvents") {
            events.extend(items.iter().cloned());
        }
    }
    Json::object()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ms")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::profile::PROFILE_MAX_CORES;
    use crate::wall::Family;

    fn record(start: u64, end: u64, l2: u64, core: u8) -> ProfileRecord {
        let mut residency = [0u64; PROFILE_MAX_CORES];
        residency[core as usize] = end - start;
        ProfileRecord {
            start,
            end,
            il1_misses: 1,
            dl1_misses: 2,
            l2_misses: l2,
            l3_misses: 0,
            migrations: 1,
            flips: 2,
            affinity_hits: 3,
            affinity_misses: 1,
            bus_bytes: 4096,
            invalidations: 0,
            coherence_updates: 0,
            residency,
            f_value: -5,
            a_r: 17,
            active_core: core,
            subset: core,
        }
    }

    fn events_of(doc: &Json) -> &[Json] {
        match doc.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            other => panic!("traceEvents missing: {other:?}"),
        }
    }

    #[test]
    fn builder_emits_wellformed_phases() {
        let mut t = ChromeTraceBuilder::new();
        t.process_name("p");
        t.thread_name(1, "core 1");
        t.complete(1, "executing", 10, 90);
        t.instant(2, "migration", 100);
        t.flow_start(1, "migrate", 7, 100);
        t.flow_end(2, "migrate", 7, 100);
        t.counter("F", 0, &[("F", -3.0)]);
        assert_eq!(t.len(), 7);
        let doc = t.build();
        let evs = events_of(&doc);
        let phases: Vec<&Json> = evs.iter().filter_map(|e| e.get("ph")).collect();
        for ph in ["M", "X", "i", "s", "f", "C"] {
            assert!(
                phases.iter().any(|p| **p == Json::Str(ph.into())),
                "missing phase {ph}"
            );
        }
        // Every event carries pid and the phases that need ts have it.
        for e in evs {
            assert!(e.get("pid").is_some());
        }
    }

    #[test]
    fn output_is_valid_json_round_trip() {
        let recs = [record(0, 100, 5, 0), record(100, 200, 2, 1)];
        let evs = [
            TraceEvent {
                at: 40,
                kind: EventKind::Migration { from: 0, to: 1 },
            },
            TraceEvent {
                at: 45,
                kind: EventKind::L2Miss,
            },
            TraceEvent {
                at: 150,
                kind: EventKind::Migration { from: 1, to: 3 },
            },
        ];
        let doc = render_machine_trace(&recs, &evs, 4, 200);
        // The exported text must parse back identically: that is the
        // "loads in a viewer without errors" contract we can check
        // offline.
        let text = doc.pretty();
        assert_eq!(json::parse(&text), Ok(doc.clone()));
        assert_eq!(doc.get("displayTimeUnit"), Some(&Json::Str("ms".into())));

        let evs = events_of(&doc);
        // Residency slices: [0,40) on core 0, [40,150) on core 1,
        // [150,200) on core 3.
        let slices: Vec<&Json> = evs
            .iter()
            .filter(|e| e.get("ph") == Some(&Json::Str("X".into())))
            .collect();
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0].get("tid"), Some(&Json::UInt(0)));
        assert_eq!(slices[0].get("dur"), Some(&Json::UInt(40)));
        assert_eq!(slices[2].get("tid"), Some(&Json::UInt(3)));
        assert_eq!(slices[2].get("dur"), Some(&Json::UInt(50)));
        // Two flow arrows (s+f per migration).
        let flows = evs
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(Json::Str(p)) if p == "s" || p == "f"))
            .count();
        assert_eq!(flows, 4);
        // Counter tracks exist (≥1 required by the acceptance bar).
        let counters: std::collections::BTreeSet<String> = evs
            .iter()
            .filter(|e| e.get("ph") == Some(&Json::Str("C".into())))
            .filter_map(|e| match e.get("name") {
                Some(Json::Str(n)) => Some(n.clone()),
                _ => None,
            })
            .collect();
        assert!(counters.contains("F"));
        assert!(counters.contains("residency (instr)"));
        assert!(counters.contains("miss density (per kinstr)"));
    }

    #[test]
    fn empty_inputs_render_minimal_trace() {
        let doc = render_machine_trace(&[], &[], 4, 0);
        let evs = events_of(&doc);
        // Metadata only: process + 4 thread names, no slices.
        assert_eq!(evs.len(), 5);
        assert!(json::parse(&doc.compact()).is_ok());
    }

    #[test]
    fn wall_trace_and_dual_clock_merge() {
        let spans = [
            RetainedSpan {
                id: (1 << 48) | 1,
                parent: 0,
                family: Family::Sweep,
                thread: 1,
                start_ns: 1_000,
                dur_ns: 2_000_000,
            },
            RetainedSpan {
                id: (2 << 48) | 1,
                parent: (1 << 48) | 1,
                family: Family::Task,
                thread: 0,
                start_ns: 5_000,
                dur_ns: 900, // sub-µs: renders with dur 0
            },
        ];
        let wall_doc = render_wall_trace(&spans, 2);
        let evs = events_of(&wall_doc);
        // Process + 2 thread names + 2 slices, all under WALL_PID.
        assert_eq!(evs.len(), 5);
        for e in evs {
            assert_eq!(e.get("pid"), Some(&Json::UInt(WALL_PID)));
        }
        let slices: Vec<&Json> = evs
            .iter()
            .filter(|e| e.get("ph") == Some(&Json::Str("X".into())))
            .collect();
        assert_eq!(slices[0].get("name"), Some(&Json::Str("sweep".into())));
        assert_eq!(slices[0].get("ts"), Some(&Json::UInt(1)));
        assert_eq!(slices[0].get("dur"), Some(&Json::UInt(2_000)));
        assert_eq!(slices[1].get("dur"), Some(&Json::UInt(0)));
        // Causality rides in args.
        let args = slices[1].get("args").expect("args");
        assert_eq!(args.get("parent"), Some(&Json::UInt((1 << 48) | 1)));
        // The last named track is the driver.
        let names: Vec<&Json> = evs
            .iter()
            .filter_map(|e| e.get("args")?.get("name"))
            .collect();
        assert!(names.contains(&&Json::Str("driver".into())));
        assert!(names.contains(&&Json::Str("worker 0".into())));

        // Dual-clock merge: machine events (pid 0) + wall events
        // (WALL_PID) in one valid document.
        let machine_doc = render_machine_trace(&[record(0, 100, 5, 0)], &[], 2, 100);
        let machine_len = events_of(&machine_doc).len();
        let merged = merge_traces(machine_doc, wall_doc);
        let merged_evs = events_of(&merged);
        assert_eq!(merged_evs.len(), machine_len + 5);
        let pids: std::collections::BTreeSet<u64> = merged_evs
            .iter()
            .filter_map(|e| match e.get("pid") {
                Some(Json::UInt(p)) => Some(*p),
                _ => None,
            })
            .collect();
        assert!(pids.contains(&PID) && pids.contains(&WALL_PID));
        assert!(json::parse(&merged.pretty()).is_ok());
    }

    #[test]
    fn dropped_head_starts_on_first_known_core() {
        // Ring dropped everything before t=500; first retained
        // migration leaves core 2, so [0,500) is attributed to core 2.
        let evs = [TraceEvent {
            at: 500,
            kind: EventKind::Migration { from: 2, to: 0 },
        }];
        let doc = render_machine_trace(&[], &evs, 4, 600);
        let slices: Vec<&Json> = events_of(&doc)
            .iter()
            .filter(|e| e.get("ph") == Some(&Json::Str("X".into())))
            .collect();
        assert_eq!(slices[0].get("tid"), Some(&Json::UInt(2)));
        assert_eq!(slices[1].get("tid"), Some(&Json::UInt(0)));
    }
}
