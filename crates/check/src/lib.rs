//! Differential checking of the migration machine.
//!
//! The optimized simulator (`execmig_machine` over `execmig_cache` and
//! `execmig_core`) earns its speed with packed metadata, fused probes
//! and early exits — exactly the kind of code where a transcription
//! error produces plausible-looking wrong numbers (PR 3's
//! prefetch-coherence bug skewed a headline result silently). This
//! crate is the ground-truth cross-check:
//!
//! - [`refcache`]/[`refcore`]/[`refmachine`] — a deliberately naive
//!   reference model: `Vec`-backed fully-scanned caches, the literal §2
//!   coherence rules, literal Equation-1 affinity with the FIFO
//!   relaxation, literal §3.4–§3.6 filter/sampling/4-way logic. It
//!   shares only the configuration and trace types with the optimized
//!   path.
//! - [`differ`] — runs both implementations in lockstep on one access
//!   stream, compares the full observable surface after every step, and
//!   pretty-prints the first divergence.
//! - [`fuzz`] — seeded stream generation, a ddmin shrinker that
//!   reduces a diverging stream to a locally minimal repro, and `EMT1`
//!   round-tripping so repros are replayable artifacts.
//!
//! The `differ` binary (in `execmig-experiments`) and
//! `tests/differential.rs` drive all of this in CI.

#![warn(missing_docs)]

pub mod differ;
pub mod fuzz;
pub mod refcache;
pub mod refcore;
pub mod refmachine;

pub use differ::{capture, DivergenceReport, FieldDiff, Lockstep, TraceStep};
pub use fuzz::{
    ddmin, diverges, generate, read_repro, shrink, stress_configs, write_repro, FuzzConfig,
};
pub use refcache::RefCache;
pub use refcore::RefController;
pub use refmachine::RefMachine;
