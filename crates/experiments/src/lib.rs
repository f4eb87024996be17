#![warn(missing_docs)]

//! Experiment harness regenerating every table and figure of Michaud
//! (HPCA 2004).
//!
//! Each module implements one experiment as a pure library function
//! returning structured, serialisable results, plus a binary (under
//! `src/bin/`) that prints the same rows/series the paper reports:
//!
//! | paper artefact | module | binary |
//! |---|---|---|
//! | Figure 3 (affinity snapshots on Circular / HalfRandom) | [`fig3`] | `fig3` |
//! | Table 1 (benchmarks, instruction counts, L1 misses) | [`table1`] | `table1` |
//! | Figures 4–5 (LRU stack profiles `p1` vs `p4`) | [`fig45`] | `fig45` |
//! | Table 2 (4-core, 512 KB L2s: misses and migrations) | [`table2`] | `table2` |
//! | §3.3 R-window claims | [`ablations::rwindow`] | `ablation_rwindow` |
//! | §3.4 filter-width arithmetic | [`ablations::filter`] | `ablation_filter` |
//! | §3.5 sampling ratio | [`ablations::sampling`] | `ablation_sampling` |
//! | §4.1 line-size note | [`ablations::linesize`] | `ablation_linesize` |
//! | Fig 2 register vs Definition-1 sign | [`ablations::signmode`] | `ablation_signmode` |
//! | §2.3–§2.4 bus bandwidth, penalty, break-even `P_mig` | [`perf_model`] | `perf_model` |
//! | §6 core-count scaling (2/4/8-way splitting) | [`ext_cores`] | `ext_cores` |
//! | §6 pointer-load filtering | [`ext_pointer`] | `ext_pointer_filter` |
//! | §6 prefetching × migration | [`ext_prefetch`] | `ext_prefetch` |
//! | §6 register-update cache | `execmig_machine::regcache` | `ext_regcache` |
//! | §6 activity migration (thermal) | `execmig_machine::thermal` | `ext_thermal` |
//! | §2.3/§6 branch-predictor broadcast | `execmig_machine::branch` | `ext_branch` |
//! | §5 related work: bus protocols vs migration | [`coherence_compare`] | `coherence_compare` |
//!
//! All binaries accept `--instr N` / `--refs N` style scaling flags so
//! the full suite can run in minutes instead of the paper's 10⁹
//! instructions per benchmark; the defaults are chosen so that every
//! reported effect is already stable.

pub mod ablations;
pub mod coherence_compare;
pub mod diff;
pub mod ext_cores;
pub mod ext_pointer;
pub mod ext_prefetch;
pub mod fig3;
pub mod fig45;
pub mod l1filter;
pub mod manifest;
pub mod perf_model;
pub mod report;
pub mod runner;
pub mod table1;
pub mod table2;

pub use report::TextTable;
