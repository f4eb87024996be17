//! Observability layer for the execution-migration workspace.
//!
//! Twelve pieces, all dependency-free:
//!
//! - [`ring`]: the fixed-capacity [`EventRing`] of typed events
//!   ([`EventKind`]) with monotonic instruction timestamps — migrations,
//!   transition-filter flips, affinity-cache misses, L2 misses, bus
//!   broadcasts.
//! - [`metrics`]: named counters/gauges/log-2 [`Histogram`]s in a
//!   [`Registry`] with snapshot/delta semantics.
//! - [`export`]: JSON, CSV, and Prometheus text exposition.
//! - [`manifest`]: a [`RunManifest`] JSON artefact per experiment run.
//! - [`profile`]: an interval [`Profiler`] attributing
//!   misses/migrations/`F` dynamics to fixed instruction windows
//!   ([`ProfileRecord`]), with pair-merge decimation so long runs stay
//!   O(capacity).
//! - [`chrome`]: Chrome Trace Event Format export of profiles and the
//!   [`EventRing`], loadable in `chrome://tracing`/Perfetto.
//! - [`spsc`]: the one lock-free SPSC [`spsc::Ring`] the hub and the wall
//!   record into, and the [`Budget`] that rates their self-billed cost.
//! - [`hub`]: the live-telemetry [`Hub`] — per-worker beat rings with an
//!   epoch'd snapshot merge and overhead self-accounting.
//! - [`http`]: a minimal, panic-free HTTP/1.1 request parser and
//!   response writer (no third-party deps).
//! - [`serve`]: the [`TelemetryServer`] serving `/metrics`,
//!   `/progress`, `/spans`, and `/healthz` over the in-tree HTTP stack.
//! - [`model`]: the concurrency shim — std `sync`/`thread` re-exports
//!   in real builds, the `execmig-model` interleaving checker under
//!   `--cfg execmig_model`. All thread/atomic use in the workspace
//!   goes through it (lint E012).
//! - [`wall`]: the wall-clock flight recorder — causal spans
//!   ([`wall::span`]) of a closed [`Family`] set in per-thread rings,
//!   per-family latency histograms with p50/p99/p999, and a live-stack
//!   sampler rendering collapsed (flamegraph) output.
//!
//! "Off" means not attached. The event ring and the profiler attach to
//! a machine at run time (`Machine::attach_recorders`); a detached
//! machine holds `None` and pays one branch on its miss paths and one
//! per block. The hub and the wall record only at task, beat-period and
//! stage boundaries; off means no hub and no attached wall thread.
//!
//! Serialisation rides on the in-tree [`Json`]/[`ToJson`] model (the
//! workspace builds offline, with no external crates); structs derive
//! `ToJson` via [`impl_to_json!`].

pub mod chrome;
pub mod event;
pub mod export;
pub mod http;
pub mod hub;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod model;
pub mod profile;
pub mod ring;
pub mod serve;
pub mod spsc;
pub mod wall;

pub use chrome::{merge_traces, render_wall_trace, ChromeTraceBuilder};
pub use event::{EventKind, TraceEvent};
pub use export::{escape_label_value, to_csv, to_prometheus, PromKind, PromWriter};
pub use http::{parse_request, response, HttpError, Request};
pub use hub::{
    Beat, HealthReport, Hub, HubConfig, HubOverhead, HubSnapshot, HubWorker, ObsCtx,
    WorkerProgress, WorkerState,
};
pub use json::{Json, JsonParseError, ToJson};
pub use manifest::{RunManifest, Stopwatch};
pub use metrics::{Histogram, MetricValue, Registry};
pub use profile::{ProfileConfig, ProfileCumulative, ProfileRecord, Profiler};
pub use ring::EventRing;
pub use serve::{MetricsProvider, TelemetryServer};
pub use spsc::{Budget, BudgetVerdict};
pub use wall::{
    Family, FamilyStats, RetainedSpan, ScopedSpan, StackCount, Wall, WallOverhead, WallSnapshot,
    WallThread,
};
