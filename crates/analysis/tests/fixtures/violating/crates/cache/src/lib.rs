//! Fixture crate mirroring `execmig-cache`, seeded with violations.

pub mod cache;

/// Never serialised: E008.
pub struct ProbeConfig {
    pub depth: u64,
}
