//! The §4.1 L1 filter: 16 KB fully-associative LRU IL1 and DL1 caches
//! in front of the stack-profiling machinery.
//!
//! "We work with a stream of references that is filtered by a 16-Kbyte
//! DL1 cache and a 16-Kbyte IL1 cache, both fully-associative with LRU
//! replacement. Each reference consists of a cache line address,
//! assuming 64-byte lines. … In this experiment, we do not distinguish
//! between loads and stores."

use execmig_cache::FullyAssocLru;
use execmig_trace::{Access, AccessKind, LineAddr, LineSize};

/// Counters of the filter stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct L1FilterStats {
    /// Accesses seen.
    pub accesses: u64,
    /// IL1 misses emitted.
    pub il1_misses: u64,
    /// DL1 misses emitted (loads and stores alike).
    pub dl1_misses: u64,
}

/// The two fully-associative L1s.
#[derive(Debug, Clone)]
pub struct L1Filter {
    il1: FullyAssocLru,
    dl1: FullyAssocLru,
    line: LineSize,
    stats: L1FilterStats,
}

impl L1Filter {
    /// The paper's filter: 16 KB IL1 + 16 KB DL1 at the given line size.
    ///
    /// # Panics
    ///
    /// Panics if `line` exceeds 16 KB (no lines would fit).
    pub fn paper(line: LineSize) -> Self {
        L1Filter::new(16 << 10, line)
    }

    /// A filter with custom L1 capacity.
    pub fn new(capacity_bytes: u64, line: LineSize) -> Self {
        let lines = (capacity_bytes / line.bytes()) as usize;
        assert!(lines > 0, "capacity below one line");
        L1Filter {
            il1: FullyAssocLru::new(lines),
            dl1: FullyAssocLru::new(lines),
            line,
            stats: L1FilterStats::default(),
        }
    }

    /// Feeds one access; returns the missing line address if the access
    /// missed its L1 (i.e. it survives into the filtered stream).
    pub fn filter(&mut self, access: Access) -> Option<LineAddr> {
        self.stats.accesses += 1;
        let line = self.line.line_of(access.addr);
        let hit = match access.kind {
            AccessKind::IFetch => self.il1.access(line.raw()),
            AccessKind::Load | AccessKind::Store => self.dl1.access(line.raw()),
        };
        if hit {
            None
        } else {
            match access.kind {
                AccessKind::IFetch => self.stats.il1_misses += 1,
                _ => self.stats.dl1_misses += 1,
            }
            Some(line)
        }
    }

    /// Filter counters.
    pub fn stats(&self) -> L1FilterStats {
        self.stats
    }

    /// The line size in use.
    pub fn line(&self) -> LineSize {
        self.line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use execmig_trace::Addr;

    #[test]
    fn filters_hits_and_passes_misses() {
        let mut f = L1Filter::paper(LineSize::DEFAULT);
        let a = Access::load(Addr::new(0x1000));
        assert!(f.filter(a).is_some(), "first touch must pass");
        assert!(f.filter(a).is_none(), "hit must be filtered");
        assert_eq!(f.stats().dl1_misses, 1);
        assert_eq!(f.stats().accesses, 2);
    }

    #[test]
    fn instruction_and_data_sides_are_independent() {
        let mut f = L1Filter::paper(LineSize::DEFAULT);
        let addr = Addr::new(0x2000);
        assert!(f.filter(Access::ifetch(addr)).is_some());
        // Same line on the data side still misses: separate caches.
        assert!(f.filter(Access::load(addr)).is_some());
        assert_eq!(f.stats().il1_misses, 1);
        assert_eq!(f.stats().dl1_misses, 1);
    }

    #[test]
    fn stores_and_loads_share_the_dl1() {
        let mut f = L1Filter::paper(LineSize::DEFAULT);
        let addr = Addr::new(0x3000);
        assert!(f.filter(Access::store(addr)).is_some());
        assert!(
            f.filter(Access::load(addr)).is_none(),
            "load after store hits"
        );
    }

    #[test]
    fn capacity_matches_paper() {
        let mut f = L1Filter::paper(LineSize::DEFAULT);
        // 256 lines: a 256-line circular data stream fits exactly.
        for round in 0..3 {
            for i in 0..256u64 {
                let out = f.filter(Access::load(Addr::new(i * 64)));
                if round == 0 {
                    assert!(out.is_some());
                } else {
                    assert!(out.is_none(), "round {round} line {i} missed");
                }
            }
        }
        // One more line overflows it.
        assert!(f.filter(Access::load(Addr::new(256 * 64))).is_some());
        assert!(f.filter(Access::load(Addr::new(0))).is_some());
    }

    #[test]
    fn agrees_with_lru_stack_on_every_suite_stream() {
        // Mattson's inclusion property on the real streams: each side's
        // 256-line fully-associative LRU hits exactly the references of
        // stack depth ≤ 256 in that side's LRU stack.
        use execmig_cache::LruStack;
        use execmig_trace::{suite, Workload};
        let line = LineSize::DEFAULT;
        let frames = (16 << 10) / line.bytes();
        for name in suite::names() {
            let mut w = suite::by_name(name).expect("suite benchmark");
            let mut f = L1Filter::paper(line);
            let (mut il1, mut dl1) = (LruStack::new(), LruStack::new());
            while w.instructions() < 200_000 {
                let a = w.next_access();
                let stack = match a.kind {
                    AccessKind::IFetch => &mut il1,
                    AccessKind::Load | AccessKind::Store => &mut dl1,
                };
                let deep = stack
                    .access(line.line_of(a.addr).raw())
                    .is_none_or(|depth| depth > frames);
                assert_eq!(
                    f.filter(a).is_some(),
                    deep,
                    "{name}: {:?} access {} at instruction {}",
                    a.kind,
                    f.stats().accesses,
                    w.instructions()
                );
            }
            let s = f.stats();
            assert!(
                s.il1_misses > 0 && s.dl1_misses > 0,
                "{name} exercises both sides"
            );
        }
    }

    #[test]
    fn larger_lines_mean_fewer_frames() {
        let line = LineSize::new(256).unwrap();
        let mut f = L1Filter::paper(line);
        // 16 KB / 256 B = 64 frames; a 65-line loop thrashes.
        for i in 0..65u64 {
            f.filter(Access::load(Addr::new(i * 256)));
        }
        assert!(f.filter(Access::load(Addr::new(0))).is_some());
    }
}
