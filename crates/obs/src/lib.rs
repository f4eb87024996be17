//! Observability layer for the execution-migration workspace.
//!
//! Six pieces, all dependency-free:
//!
//! - [`ring`]: the fixed-capacity [`EventRing`] of typed events
//!   ([`EventKind`]) with monotonic instruction timestamps — migrations,
//!   transition-filter flips, affinity-cache misses, L2 misses, bus
//!   broadcasts.
//! - [`metrics`]: named counters/gauges/log-2 [`Histogram`]s in a
//!   [`Registry`].
//! - [`export`]: JSON, CSV, and Prometheus text exposition.
//! - [`profile`]: an interval [`Profiler`] attributing
//!   misses/migrations/`F` dynamics to fixed instruction windows
//!   ([`ProfileRecord`]), with pair-merge decimation so long runs stay
//!   O(capacity).
//! - [`chrome`]: Chrome Trace Event Format export of profiles and the
//!   [`EventRing`], loadable in `chrome://tracing`/Perfetto.
//! - [`wall`]: the wall-clock span recorder — causal spans
//!   ([`wall::span`]) of a closed [`Family`] set, kept per thread and
//!   handed over when the thread detaches, with per-family latency
//!   histograms (p50/p99/p999) and collapsed (flamegraph) stacks
//!   weighted by exact self time.
//!
//! "Off" means not attached. The event ring and the profiler attach to
//! a machine at run time (`Machine::attach_recorders`); a detached
//! machine holds `None` and pays one branch on its miss paths and one
//! per block. The wall records only at task, machine-run and stage
//! boundaries; off means no attached wall thread.
//!
//! Serialisation rides on the in-tree [`Json`]/[`ToJson`] model (the
//! workspace builds offline, with no external crates); structs derive
//! `ToJson` via [`impl_to_json!`].

pub mod chrome;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod ring;
pub mod wall;

pub use chrome::{merge_traces, render_wall_trace, ChromeTraceBuilder};
pub use event::{EventKind, TraceEvent};
pub use export::{escape_label_value, to_csv, to_prometheus, PromKind, PromWriter};
pub use json::{Json, JsonParseError, ToJson};
pub use metrics::{Histogram, MetricValue, Registry};
pub use profile::{ProfileConfig, ProfileRecord, Profiler};
pub use ring::EventRing;
pub use wall::{
    Family, FamilyStats, RetainedSpan, ScopedSpan, StackCount, Wall, WallOverhead, WallSnapshot,
};
