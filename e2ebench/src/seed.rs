//! Seeded suite streams: the benchmark's only source of input.
//!
//! A seed selects where in each suite generator's (infinite,
//! deterministic) stream a run starts. Set-up draws [`skip_events`]
//! events and throws them away, and [`Seeded`] then rebases the
//! instruction counter so the run sees a stream that starts at
//! instruction 0 with empty caches, exactly like the `table2` binary.
//! Seed 0 skips nothing: its streams are the canonical Table 2
//! streams. Every seed runs the same adapter code.

use execmig_trace::{suite, Access, BoxedWorkload, Workload, WorkloadEvent};

/// Fast-forward distances are drawn below this bound (`2^20` events).
pub const MAX_SKIP: u64 = 1 << 20;

/// Events set-up draws per scratch chunk while fast-forwarding.
const SKIP_CHUNK: usize = 4096;

/// How many events stream `slot` of a workload's `slots` streams skips
/// under `seed`; 0 for seed 0.
///
/// The seed's hash rotates `slots` evenly spaced offsets in
/// `[0, 2^20)`. Each stream starts at a pseudo-random point, while the
/// total skipped — and with it set-up time — barely depends on the
/// seed; independent draws would make `setup_s` vary ±25 % between
/// seeds on the five-stream coherence workload.
pub fn skip_events(seed: u64, slot: usize, slots: usize) -> u64 {
    if seed == 0 {
        return 0;
    }
    // splitmix64's finaliser, so nearby seeds land far apart.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % MAX_SKIP + slot as u64 * MAX_SKIP / slots.max(1) as u64) % MAX_SKIP
}

/// A suite workload fast-forwarded by `skip` events, whose
/// [`instructions`](Workload::instructions) restart at 0.
pub struct Seeded {
    inner: BoxedWorkload,
    /// The inner generator's instruction count when the run started.
    base: u64,
}

impl Seeded {
    /// Instantiates `bench` and draws `skip` events from it. `None` if
    /// `bench` is not a suite benchmark.
    pub fn new(bench: &str, skip: u64) -> Option<Seeded> {
        let mut inner = suite::by_name(bench)?;
        let mut left = skip;
        let mut scratch = Vec::with_capacity(SKIP_CHUNK);
        while left > 0 {
            scratch.clear();
            let chunk = left.min(SKIP_CHUNK as u64) as usize;
            // The generator is infinite, so an unreachable `until`
            // makes it hand over exactly `chunk` events.
            left -= inner.fill_block(&mut scratch, u64::MAX, chunk) as u64;
        }
        let base = inner.instructions();
        Some(Seeded { inner, base })
    }
}

impl Workload for Seeded {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_access(&mut self) -> Access {
        self.inner.next_access()
    }

    fn instructions(&self) -> u64 {
        self.inner.instructions() - self.base
    }

    // Forwarded so the inner generator's monomorphized block filler
    // runs; only the appended events' counts are rebased.
    fn fill_block(&mut self, buf: &mut Vec<WorkloadEvent>, until: u64, max_events: usize) -> usize {
        let start = buf.len();
        let filled = self
            .inner
            .fill_block(buf, until.saturating_add(self.base), max_events);
        for e in &mut buf[start..] {
            e.instructions -= self.base;
        }
        filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_skip_is_the_canonical_stream() {
        let mut seeded = Seeded::new("mcf", skip_events(0, 3, 5)).expect("suite benchmark");
        let mut canonical = suite::by_name("mcf").expect("suite benchmark");
        for _ in 0..1000 {
            assert_eq!(seeded.next_access(), canonical.next_access());
            assert_eq!(seeded.instructions(), canonical.instructions());
        }
    }

    #[test]
    fn skips_restart_at_zero() {
        let skip = skip_events(7, 0, 1);
        assert!(skip > 0 && skip < MAX_SKIP);
        let mut seeded = Seeded::new("art", skip).expect("suite benchmark");
        assert_eq!(seeded.instructions(), 0);
        let mut canonical = suite::by_name("art").expect("suite benchmark");
        for _ in 0..skip {
            canonical.next_access();
        }
        let base = canonical.instructions();
        for _ in 0..1000 {
            assert_eq!(seeded.next_access(), canonical.next_access());
            assert_eq!(seeded.instructions(), canonical.instructions() - base);
        }
    }

    #[test]
    fn skips_rotate_evenly_spaced_offsets() {
        assert_ne!(skip_events(1, 0, 5), skip_events(2, 0, 5));
        let total = |seed| (0..4).map(|s| skip_events(seed, s, 4)).sum::<u64>();
        // Four offsets a quarter apart: the total moves by at most
        // the span of one wrap, whatever the seed.
        for seed in 1..50 {
            let t = total(seed);
            assert!(
                (MAX_SKIP * 3 / 2..=MAX_SKIP * 5 / 2).contains(&t),
                "{seed}: {t}"
            );
        }
    }

    #[test]
    fn unknown_bench_is_none() {
        assert!(Seeded::new("nonesuch", 1).is_none());
    }
}
