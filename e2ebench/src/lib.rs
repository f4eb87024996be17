//! End-to-end benchmark of the execution-migration reproduction.
//!
//! The `benchmark` binary runs one workload — `table2`, `coherence`
//! or `l1_stream` (see [`e2e::Scenario`]) — from seeded suite streams
//! ([`seed`]) and prints its metrics ([`metrics`]), one JSON object
//! as the last line. Every run simulates its canonical budget (20 M
//! instructions for Table 2, 40 M for the others) in ten segments that
//! carry their state over. Untraced runs report the end-to-end
//! metrics; `--trace 1` runs report the per-layer cost ledger. At
//! seed 0 the full runs must reproduce `golden/seed0.txt`. README.md
//! lists every metric and the layer it belongs to.

pub mod cli;
pub mod e2e;
pub mod metrics;
pub mod seed;
