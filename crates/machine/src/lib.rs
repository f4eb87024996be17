#![warn(missing_docs)]

//! The multi-core machine model of Michaud (HPCA 2004) §2.
//!
//! A four-core single-chip processor in *migration mode*: one active core
//! executes a sequential program; the others are powered but idle, their
//! architectural state kept current over a dedicated *update bus*. Each
//! core has private IL1/DL1 and L2 caches; an L3 behind them is shared.
//!
//! The model reproduces the paper's event-level semantics:
//!
//! - **L1 mirroring** (§2.3): every line brought into the active L1 is
//!   broadcast to all inactive L1s, so "the L1 miss frequency is the same
//!   as if execution had not migrated". The model exploits this by
//!   keeping a single (mirrored) L1 pair.
//! - **Migration-mode L2 coherence** (§2.1): the DL1 is write-through
//!   non-write-allocate, the L2 write-back write-allocate; stores set the
//!   *modified* bit on the active L2 and reset it on (still valid,
//!   update-bus-refreshed) inactive copies; at most one copy is modified.
//!   A modified line can be forwarded L2-to-L2 (simultaneously written
//!   back to L3, bit reset); a non-modified line must be re-fetched from
//!   L3. L2-to-L2 misses are *counted as L2 misses* — "we do not
//!   distinguish between L2-to-L2 misses and L3 hits".
//! - **The migration controller** drives migrations from the L1-miss
//!   request stream (`execmig-core`).
//! - **Pluggable L2 coherence** (`coherence`): the migration-mode scheme
//!   above is one backend of a [`CoherenceProtocol`] trait; MESI and
//!   Dragon backends let experiments compare the paper's design against
//!   conventional invalidate and update protocols on the same machine.
//! - **Update-bus accounting** (§2.3) and a **migration-protocol model**
//!   (§2.2) quantify the bandwidth and the penalty `P_mig`.
//!
//! [`Machine::run`] drives one machine; [`Machine::run_shared`]
//! replays one generated stream into several, the way Table 2 compares
//! the single-core baseline with the migration machine:
//!
//! ```
//! use execmig_machine::{Machine, MachineConfig};
//! use execmig_trace::suite;
//!
//! let mut pair = [
//!     Machine::new(MachineConfig::single_core()),
//!     Machine::new(MachineConfig::four_core_migration()),
//! ];
//! let mut w = suite::by_name("art").unwrap();
//! Machine::run_shared(&mut pair, &mut *w, 200_000, None);
//! let [baseline, migration] = pair.each_ref().map(Machine::stats);
//! assert!(baseline.l2_misses > 0);
//! assert!(migration.l2_miss_ratio(baseline).is_finite());
//! ```

pub mod branch;
pub mod bus;
pub mod coherence;
pub mod config;
pub mod invariants;
pub mod machine;
pub mod perf;
pub mod pipeline;
pub mod regcache;
pub mod stats;
pub mod thermal;

pub use bus::{UpdateBus, UpdateBusConfig};
pub use coherence::{CoherenceProtocol, Protocol};
pub use config::{CacheGeometry, MachineConfig, PrefetchConfig};
pub use machine::{Machine, MAX_CORES};
pub use perf::{PerfModel, PerfSummary};
pub use pipeline::{MigrationProtocol, PipelineConfig, ProtocolOutcome};
pub use regcache::{RegCacheConfig, RegCacheStats, RegUpdateCache};
pub use stats::MachineStats;
pub use thermal::{ThermalConfig, ThermalModel};
