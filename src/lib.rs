//! Execution migration on a single-chip multi-core.
//!
//! This crate is the umbrella entry point for the reproduction of
//! Michaud, *"Exploiting the Cache Capacity of a Single-Chip Multi-Core
//! Processor with Execution Migration"* (HPCA 2004). It re-exports the
//! workspace crates:
//!
//! - [`trace`] — deterministic synthetic workloads (SPEC2000/Olden models)
//! - [`cache`] — cache simulation substrate (set/fully/skewed associative
//!   caches, Mattson LRU stacks)
//! - [`core`] — the paper's contribution: the affinity algorithm,
//!   transition filter, working-set sampling, and the migration controller
//! - [`machine`] — the 4-core machine model with migration-mode coherence
//! - [`check`] — differential checking: a naive reference machine, a
//!   lockstep differ, and a trace-shrinking fuzzer
//! - [`experiments`] — runners that regenerate every table and figure,
//!   each binary writing a run manifest
//! - [`obs`] — observability: an event ring and interval profiler
//!   attached to a machine at run time, metrics
//!   (counters/gauges/log-2 histograms), JSON/CSV/Prometheus exporters,
//!   Chrome traces, and wall-clock spans
//!
//! # Quickstart
//!
//! Split a circular working set in two with the affinity algorithm:
//!
//! ```
//! use execution_migration::core::{Splitter2, SplitterConfig};
//! use execution_migration::trace::gen::CircularWorkload;
//! use execution_migration::trace::Workload;
//!
//! let mut splitter = Splitter2::new(SplitterConfig {
//!     r_window: 100,
//!     ..SplitterConfig::default()
//! });
//! let mut w = CircularWorkload::new(4000);
//! for _ in 0..1_000_000 {
//!     let line = w.next_access().addr.raw() / 64;
//!     splitter.on_reference(line);
//! }
//! // The 4000-element working set is now split in two balanced halves.
//! let balance = splitter.positive_fraction(0..4000);
//! assert!((0.4..=0.6).contains(&balance));
//! ```

pub use execmig_cache as cache;
pub use execmig_check as check;
pub use execmig_core as core;
pub use execmig_experiments as experiments;
pub use execmig_machine as machine;
pub use execmig_obs as obs;
pub use execmig_trace as trace;
