//! Traversal of linked data structures in a (mostly) stable order.
//!
//! The Olden benchmarks and 181.mcf walk pointer-linked structures whose
//! traversal order is fixed by the links: at line granularity this is a
//! *Circular* stream over scattered addresses, which the paper identifies
//! as the splittable common case ("much of the splittability we observed
//! seems to come from circular working-set behaviors", §6). Noise, growth
//! and periodic re-linking knobs degrade the circularity to model mcf,
//! health and bisort respectively.

use crate::access::Access;
use crate::addr::Addr;
use crate::rng::Rng;
use crate::workload::{InstrBudget, Workload};

use super::{region_base, CodeFeed};

/// Parameters of [`PointerRingWorkload`].
#[derive(Debug, Clone)]
pub struct PointerRingParams {
    /// Number of nodes; each node occupies `node_lines` 64-byte lines.
    pub nodes: u64,
    /// Lines per node (≥ 1). All lines of a node are touched in order.
    pub node_lines: u64,
    /// Per-mille probability that a step is a *detour*: one access to a
    /// uniformly random live node, after which the traversal resumes
    /// where it left off. Detours add unsplittable references without
    /// fragmenting the ring order (fragments shorter than `|R|` would
    /// defeat the affinity mechanism entirely, per §3.3's observation
    /// that `|R|` must not exceed the synchronous-group size).
    pub noise_permille: u64,
    /// Per-mille fraction of accesses that are stores.
    pub store_permille: u64,
    /// Mean instructions per data access, in 1/256ths.
    pub instr_per_access_x256: u64,
    /// If set, the structure starts with `start` nodes live and gains
    /// `per_pass` nodes after each full traversal (models health).
    pub growth: Option<RingGrowth>,
    /// If set, the link order is re-shuffled every `n` passes (models
    /// bisort's bitonic phases destroying the traversal order).
    pub relink_every_passes: Option<u64>,
    /// If set to `(permille, window)`, a step revisits one of the
    /// `window` most recently traversed nodes with the given per-mille
    /// probability instead of advancing (models neighbour-list reuse in
    /// em3d/mcf: misses the small L1 but hits the L2).
    pub revisit: Option<(u64, u64)>,
}

/// Growth schedule for [`PointerRingParams::growth`].
#[derive(Debug, Clone, Copy)]
pub struct RingGrowth {
    /// Initial number of live nodes.
    pub start: u64,
    /// Nodes added after each full pass.
    pub per_pass: u64,
}

impl Default for PointerRingParams {
    fn default() -> Self {
        PointerRingParams {
            nodes: 16 << 10,
            node_lines: 1,
            noise_permille: 0,
            store_permille: 150,
            instr_per_access_x256: 4 * 256,
            growth: None,
            relink_every_passes: None,
            revisit: None,
        }
    }
}

/// A ring of scattered nodes traversed in link order.
#[derive(Debug, Clone)]
pub struct PointerRingWorkload {
    name: &'static str,
    params: PointerRingParams,
    /// Permutation: traversal position -> node id.
    order: Vec<u32>,
    pos: u64,
    line_in_node: u64,
    live: u64,
    pass: u64,
    /// Ring buffer of recently traversed nodes (for `revisit`).
    recent: Vec<u32>,
    recent_at: usize,
    rng: Rng,
    budget: InstrBudget,
    code: CodeFeed,
}

impl PointerRingWorkload {
    /// Builds the ring; node placement is a random permutation of the
    /// region so that consecutive traversal steps touch scattered lines.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`, `node_lines == 0`, or a growth schedule
    /// starts above `nodes` or adds 0 nodes per pass.
    pub fn new(name: &'static str, params: PointerRingParams, seed: u64) -> Self {
        assert!(params.nodes > 0, "need at least one node");
        assert!(params.node_lines > 0, "nodes must hold at least one line");
        assert!(
            params.nodes <= u32::MAX as u64,
            "node count must fit in u32"
        );
        if let Some(g) = params.growth {
            assert!(g.start > 0 && g.start <= params.nodes, "bad growth start");
            assert!(g.per_pass > 0, "growth must add nodes");
        }
        if let Some((pm, window)) = params.revisit {
            assert!(pm <= 1000, "revisit probability above 1000 per mille");
            assert!(window > 0, "revisit window must be > 0");
        }
        let mut rng = Rng::seed_from(seed);
        let mut order: Vec<u32> = (0..params.nodes as u32).collect();
        rng.shuffle(&mut order);
        let live = params.growth.map_or(params.nodes, |g| g.start);
        let budget = InstrBudget::new(params.instr_per_access_x256);
        PointerRingWorkload {
            name,
            params,
            order,
            pos: 0,
            line_in_node: 0,
            live,
            pass: 0,
            recent: Vec::new(),
            recent_at: 0,
            rng,
            budget,
            code: CodeFeed::tiny_loop(40),
        }
    }

    /// Current working-set size in bytes (grows under a growth schedule).
    pub fn working_set_bytes(&self) -> u64 {
        self.live * self.params.node_lines * 64
    }

    #[inline]
    fn node_addr(&self, node: u32) -> u64 {
        region_base(0) + node as u64 * self.params.node_lines * 64
    }

    /// Wraps the traversal to the next pass: grows the live set and
    /// relinks on schedule. Runs once per pass, off the per-node path.
    #[cold]
    #[inline(never)]
    fn end_of_pass(&mut self) {
        self.pass += 1;
        if let Some(g) = self.params.growth {
            self.live = (self.live + g.per_pass).min(self.params.nodes);
        }
        if let Some(every) = self.params.relink_every_passes {
            if self.pass.is_multiple_of(every) {
                // Re-link: shuffle the live prefix of the traversal order.
                let live = self.live as usize;
                self.rng.shuffle(&mut self.order[..live]);
            }
        }
    }

    #[inline]
    fn remember(&mut self, node: u32) {
        let window = match self.params.revisit {
            Some((_, w)) => w as usize,
            None => return,
        };
        if self.recent.len() < window {
            self.recent.push(node);
        } else {
            self.recent[self.recent_at] = node;
            // `recent_at < window` always, so a compare replaces the
            // modulo: this runs once per node step.
            self.recent_at += 1;
            if self.recent_at == window {
                self.recent_at = 0;
            }
        }
    }

    #[inline]
    fn next_data_addr(&mut self) -> u64 {
        if self.line_in_node == 0 {
            if let Some((pm, _)) = self.params.revisit {
                if !self.recent.is_empty() && self.rng.chance(pm, 1000) {
                    let idx = self.rng.below(self.recent.len() as u64) as usize;
                    return self.node_addr(self.recent[idx]);
                }
            }
        }
        if self.line_in_node == 0
            && self.params.noise_permille > 0
            && self.rng.chance(self.params.noise_permille, 1000)
        {
            let idx = self.rng.below(self.live) as usize;
            return self.node_addr(self.order[idx]);
        }
        let node = self.order[self.pos as usize];
        let addr = self.node_addr(node) + self.line_in_node * 64;
        self.line_in_node += 1;
        if self.line_in_node == self.params.node_lines {
            self.line_in_node = 0;
            self.remember(node);
            self.pos += 1;
            if self.pos >= self.live {
                self.pos = 0;
                self.end_of_pass();
            }
        }
        addr
    }
}

impl Workload for PointerRingWorkload {
    fn name(&self) -> &str {
        self.name
    }

    #[inline]
    fn next_access(&mut self) -> Access {
        if let Some(f) = self.code.next_ifetch() {
            return f;
        }
        let addr = Addr::new(self.next_data_addr());
        let instrs = self.budget.step();
        self.code.charge(instrs);
        if self.params.store_permille > 0 && self.rng.chance(self.params.store_permille, 1000) {
            Access::store(addr)
        } else {
            // Traversal loads chase links: tag them as pointer loads.
            Access::pointer_load(addr)
        }
    }

    #[inline]
    fn instructions(&self) -> u64 {
        self.budget.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn data_lines(w: &mut PointerRingWorkload, n: usize) -> Vec<u64> {
        let mut out = Vec::new();
        while out.len() < n {
            let a = w.next_access();
            if a.kind.is_data() {
                out.push(a.addr.raw() / 64);
            }
        }
        out
    }

    #[test]
    fn traversal_repeats_identically_without_noise() {
        let p = PointerRingParams {
            nodes: 128,
            noise_permille: 0,
            store_permille: 0,
            ..PointerRingParams::default()
        };
        let mut w = PointerRingWorkload::new("t", p, 3);
        let lines = data_lines(&mut w, 256);
        assert_eq!(&lines[..128], &lines[128..], "second pass differs");
        let distinct: HashSet<u64> = lines.iter().copied().collect();
        assert_eq!(distinct.len(), 128);
    }

    #[test]
    fn order_is_scattered_not_sequential() {
        let p = PointerRingParams {
            nodes: 1024,
            store_permille: 0,
            ..PointerRingParams::default()
        };
        let mut w = PointerRingWorkload::new("t", p, 4);
        let lines = data_lines(&mut w, 1024);
        let adjacent = lines.windows(2).filter(|c| c[1] == c[0] + 1).count();
        assert!(adjacent < 32, "{adjacent} adjacent pairs — too sequential");
    }

    #[test]
    fn multi_line_nodes_touch_consecutive_lines() {
        let p = PointerRingParams {
            nodes: 16,
            node_lines: 3,
            store_permille: 0,
            ..PointerRingParams::default()
        };
        let mut w = PointerRingWorkload::new("t", p, 5);
        let lines = data_lines(&mut w, 48);
        for chunk in lines.chunks(3) {
            assert_eq!(chunk[1], chunk[0] + 1);
            assert_eq!(chunk[2], chunk[0] + 2);
        }
    }

    #[test]
    fn growth_expands_working_set() {
        let p = PointerRingParams {
            nodes: 1000,
            growth: Some(RingGrowth {
                start: 100,
                per_pass: 50,
            }),
            store_permille: 0,
            ..PointerRingParams::default()
        };
        let mut w = PointerRingWorkload::new("t", p, 6);
        assert_eq!(w.working_set_bytes(), 100 * 64);
        let _ = data_lines(&mut w, 2000);
        assert!(w.working_set_bytes() > 100 * 64);
        let mut w2 = w.clone();
        let _ = data_lines(&mut w2, 200_000);
        assert_eq!(w2.working_set_bytes(), 1000 * 64, "growth must saturate");
    }

    #[test]
    fn relink_changes_traversal_order() {
        let p = PointerRingParams {
            nodes: 256,
            relink_every_passes: Some(1),
            store_permille: 0,
            ..PointerRingParams::default()
        };
        let mut w = PointerRingWorkload::new("t", p, 7);
        let lines = data_lines(&mut w, 512);
        assert_ne!(&lines[..256], &lines[256..], "relink had no effect");
        // Same set of lines either way.
        let a: HashSet<u64> = lines[..256].iter().copied().collect();
        let b: HashSet<u64> = lines[256..].iter().copied().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn noise_breaks_strict_repetition() {
        let p = PointerRingParams {
            nodes: 256,
            noise_permille: 300,
            store_permille: 0,
            ..PointerRingParams::default()
        };
        let mut w = PointerRingWorkload::new("t", p, 8);
        let lines = data_lines(&mut w, 512);
        assert_ne!(&lines[..256], &lines[256..]);
    }

    #[test]
    fn revisit_reuses_recent_nodes() {
        let p = PointerRingParams {
            nodes: 4096,
            revisit: Some((400, 64)),
            store_permille: 0,
            ..PointerRingParams::default()
        };
        let mut w = PointerRingWorkload::new("t", p, 9);
        let lines = data_lines(&mut w, 4096);
        // With 40% revisits into a 64-node window, many lines repeat well
        // before a full pass completes.
        let distinct: HashSet<u64> = lines.iter().copied().collect();
        assert!(
            distinct.len() < 3500,
            "{} distinct lines — revisits not happening",
            distinct.len()
        );
    }

    #[test]
    #[should_panic(expected = "revisit window")]
    fn rejects_zero_revisit_window() {
        PointerRingWorkload::new(
            "t",
            PointerRingParams {
                revisit: Some((100, 0)),
                ..PointerRingParams::default()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "bad growth start")]
    fn rejects_bad_growth() {
        PointerRingWorkload::new(
            "t",
            PointerRingParams {
                nodes: 10,
                growth: Some(RingGrowth {
                    start: 20,
                    per_pass: 1,
                }),
                ..PointerRingParams::default()
            },
            1,
        );
    }
}
