#![warn(missing_docs)]
// Library code returns typed errors or validates with a message;
// `clippy.toml` exempts tests.
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Deterministic synthetic workload substrate for the execution-migration
//! study.
//!
//! The original evaluation in Michaud, *"Exploiting the Cache Capacity of a
//! Single-Chip Multi-Core Processor with Execution Migration"* (HPCA 2004)
//! is trace-driven: SPEC CPU2000 and Olden benchmarks are run through the
//! SimpleScalar/PISA functional simulator and the resulting memory-reference
//! streams feed the cache models and the affinity algorithm. Neither the
//! SPEC binaries nor SimpleScalar are redistributable here, so this crate
//! provides the closest synthetic equivalent: one deterministic generator
//! per paper benchmark, each modelling the *memory-reference structure* the
//! paper's analysis depends on — circular sweeps, pointer chasing over
//! linked data structures, random access within hot regions, instruction
//! footprints, and phase changes.
//!
//! Everything downstream (stack-distance profiles, affinity dynamics,
//! miss and migration counts) is a function of the reference stream alone,
//! so preserving the stream *structure* preserves the shape of the paper's
//! results even though absolute counts differ.
//!
//! # Quick example
//!
//! ```
//! use execmig_trace::{suite, Workload};
//!
//! // The paper's Table 1 benchmark suite.
//! let mut art = suite::by_name("art").expect("art is in the suite");
//! let access = art.next_access();
//! assert!(access.addr.raw() < 1 << 40);
//! assert!(art.instructions() >= 1);
//! ```

pub mod access;
pub mod addr;
pub mod gen;
pub mod io;
pub mod rng;
pub mod suite;
pub mod workload;

pub use access::{Access, AccessKind};
pub use addr::{Addr, LineAddr, LineSize};
pub use io::{TraceIoError, TraceIoResult, TraceReader, TraceWriter};
pub use rng::Rng;
pub use suite::{BenchmarkInfo, BenchmarkSuiteClass};
pub use workload::{BoxedWorkload, Workload, WorkloadEvent};
