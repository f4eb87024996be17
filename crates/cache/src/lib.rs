#![warn(missing_docs)]
// Library code returns typed errors or validates with a message;
// `clippy.toml` exempts tests.
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Cache-simulation substrate for the execution-migration study.
//!
//! The paper's evaluation needs three cache mechanisms:
//!
//! - set-associative and **skewed-associative** caches ([`Cache`]) — the
//!   4-core experiment of §4.2 uses 4-way set-associative 16 KB L1s and
//!   512 KB 4-way *skewed*-associative L2s (after Bodin & Seznec), plus a
//!   skewed-associative affinity cache;
//! - an O(1) **fully-associative LRU** cache ([`FullyAssocLru`]: an
//!   arena recency ring with an intrusive chained hash index and an MRU
//!   fast path) — the LRU-stack experiment of §4.1 filters the reference
//!   stream through 16 KB fully-associative LRU L1 caches;
//! - **Mattson LRU stack-distance profiling** ([`LruStack`],
//!   [`StackProfile`]) — Figures 4 and 5 plot, for each benchmark, the
//!   fraction of L1-filtered references whose stack depth exceeds a given
//!   cache size, for a single stack (`p1`) and for four affinity-split
//!   stacks (`p4`).
//!
//! ```
//! use execmig_cache::{LruStack, StackProfile};
//!
//! let mut stack = LruStack::new();
//! let mut profile = StackProfile::new(1 << 20);
//! for line in [1u64, 2, 3, 1, 2, 3] {
//!     profile.record(stack.access(line));
//! }
//! assert_eq!(profile.total(), 6);
//! // The three re-references have stack depth 3; the three first
//! // touches count as infinitely deep.
//! assert_eq!(profile.frac_deeper_than(2), 1.0);
//! assert_eq!(profile.frac_deeper_than(3), 0.5);
//! ```

pub mod cache;
pub mod fenwick;
pub mod fully_assoc;
pub mod profile;
pub mod stack;

pub use cache::{AccessOutcome, Cache, CacheConfig, Evicted, Indexing, Probe};
pub use fully_assoc::FullyAssocLru;
pub use profile::StackProfile;
pub use stack::LruStack;
