//! Fixture crate mirroring `execmig-cache`, seeded with violations.

use execmig_machine::Machine; // E002: names a crate above its layer
use execmig_obs::Tracer; // fine: obs is a side layer

pub mod cache;
pub mod spin;

/// Never serialised: E008.
pub struct ProbeConfig {
    pub depth: u64,
}

pub fn drain(t: &Tracer) -> usize {
    t.events().len() // E006: ungated ring-buffer read
}

pub fn sample(p: &mut execmig_obs::Profiler, c: &execmig_obs::ProfileCumulative) -> usize {
    p.record_sample(c); // E006: ungated sampler write
    p.records().len() // E006: ungated sampler read
}

pub fn head(v: &[u64]) -> u64 {
    *v.first().unwrap() // E009: unwrap in library code
}

pub fn attach(_m: &Machine) {}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt_unwrap() {
        // Unwraps in test modules must NOT be flagged.
        assert_eq!(Some(5u64).unwrap(), 5);
    }
}
