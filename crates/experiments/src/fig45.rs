//! Figures 4 and 5: LRU stack profiles `p1(x)` vs `p4(x)` and the
//! transition frequency, per benchmark.
//!
//! The L1-filtered reference stream feeds (a) a single LRU stack, giving
//! `p1(x)` — the fraction of references with stack depth greater than a
//! cache of `x` bytes — and (b) the 4-way affinity splitter of §3.6
//! (`|R_X|`=128, `|R_Y|`=64, 20-bit filters, unlimited affinity cache,
//! no L2 filtering), which routes each reference to one of four stacks,
//! giving the merged `p4(x)`. "Splittability" shows as `p4` dropping
//! well before `p1`.

use crate::l1filter::L1Filter;
use execmig_cache::{LruStack, StackProfile};
use execmig_core::{Splitter4, Splitter4Config};
use execmig_trace::{suite, LineSize, Workload};

/// Maximum stack depth tracked exactly (lines). 512k lines = 32 MB,
/// twice the largest plotted size.
const MAX_DEPTH: usize = 512 << 10;

/// Configuration of the stack-profile experiment.
#[derive(Debug, Clone)]
pub struct Fig45Config {
    /// Instruction budget per benchmark.
    pub instructions: u64,
    /// Cache line size (the §4.1 line-size study varies this).
    pub line_bytes: u64,
    /// Plotted cache sizes in bytes (x axis; paper: 16 KB…16 MB).
    pub points_bytes: Vec<u64>,
}

execmig_obs::impl_to_json!(Fig45Config {
    instructions,
    line_bytes,
    points_bytes
});

impl Fig45Config {
    /// The paper's setting at a given instruction budget: 64-byte
    /// lines, x from 16 KB to 16 MB doubling.
    pub fn paper(instructions: u64) -> Self {
        let points_bytes = (0..=10).map(|i| (16 << 10) << i).collect();
        Fig45Config {
            instructions,
            line_bytes: 64,
            points_bytes,
        }
    }
}

/// The profile curves of one benchmark.
#[derive(Debug, Clone)]
pub struct Fig45Row {
    /// Benchmark name.
    pub name: String,
    /// L1-filtered references profiled.
    pub references: u64,
    /// `(x_bytes, p1(x), p4(x))` triples.
    pub points: Vec<(u64, f64, f64)>,
    /// Transitions per stack access (the horizontal line in the paper's
    /// graphs).
    pub transition_rate: f64,
    /// Area-style splittability score: mean of `p1(x) − p4(x)` over the
    /// plotted points (positive = splittable).
    pub split_gain: f64,
    /// Peak splittability: the largest `p1(x) − p4(x)` gap over the
    /// plotted points. The paper's visual judgement ("the curves are
    /// quite distinct") corresponds to this peak, which can be large at
    /// one cache size (e.g. health at 512 KB) while the mean is diluted
    /// by sizes where both curves sit at 0 or 1.
    pub split_gain_max: f64,
}

execmig_obs::impl_to_json!(Fig45Row {
    name,
    references,
    points,
    transition_rate,
    split_gain,
    split_gain_max
});

/// Runs one benchmark.
///
/// # Panics
///
/// Panics if `name` is not a suite benchmark or the line size is
/// invalid.
pub fn run_benchmark(name: &str, config: &Fig45Config) -> Fig45Row {
    let mut w = suite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    run_workload(name, &mut *w, config)
}

/// Runs any workload through the profile machinery.
pub fn run_workload(name: &str, w: &mut (dyn Workload + Send), config: &Fig45Config) -> Fig45Row {
    let line = LineSize::new(config.line_bytes).expect("valid line size");
    let mut filter = L1Filter::paper(line);
    // p1: one stack. p4: four stacks fed by the 4-way splitter.
    let mut stack1 = LruStack::new();
    let mut profile1 = StackProfile::new(MAX_DEPTH);
    let mut stacks4: Vec<LruStack> = (0..4).map(|_| LruStack::new()).collect();
    let mut profile4 = StackProfile::new(MAX_DEPTH);
    let mut splitter = Splitter4::new(Splitter4Config::default());
    let mut references = 0u64;
    while w.instructions() < config.instructions {
        let access = w.next_access();
        let Some(miss_line) = filter.filter(access) else {
            continue;
        };
        references += 1;
        profile1.record(stack1.access(miss_line.raw()));
        // §4.1: "The address of each cache line missing the L1 is sent
        // to only one of the four LRU stacks" — the quadrant designated
        // *after* processing the reference.
        let q = splitter.on_reference(miss_line.raw());
        profile4.record(stacks4[q.index()].access(miss_line.raw()));
    }
    let points: Vec<(u64, f64, f64)> = config
        .points_bytes
        .iter()
        .map(|&bytes| {
            let lines = bytes / line.bytes();
            (
                bytes,
                profile1.frac_deeper_than(lines),
                profile4.frac_deeper_than(lines),
            )
        })
        .collect();
    let split_gain = if points.is_empty() {
        0.0
    } else {
        points.iter().map(|(_, p1, p4)| p1 - p4).sum::<f64>() / points.len() as f64
    };
    let split_gain_max = points
        .iter()
        .map(|(_, p1, p4)| p1 - p4)
        .fold(0.0f64, f64::max);
    Fig45Row {
        name: name.to_string(),
        references,
        points,
        transition_rate: splitter.stats().transition_rate(),
        split_gain,
        split_gain_max,
    }
}

/// Runs the whole suite on `threads` workers, with per-task live
/// observability into `obs` (when given; [`Obs::none`] for neither):
/// the runner's claim/done beats show which benchmark each worker is
/// on, and wall-clock spans time each task.
///
/// [`Obs::none`]: crate::runner::Obs::none
pub fn run_all(config: &Fig45Config, threads: usize, obs: crate::runner::Obs<'_>) -> Vec<Fig45Row> {
    crate::runner::parallel_map_observed(suite::names(), threads, obs, |name, _ctx| {
        run_benchmark(name, config)
    })
    .0
}

/// Renders the curves as a table: one row per benchmark and size.
pub fn render(rows: &[Fig45Row]) -> String {
    let mut t =
        crate::report::TextTable::new(&["benchmark", "size", "p1", "p4", "trans-rate", "gain"]);
    for r in rows {
        for &(bytes, p1, p4) in &r.points {
            t.row(&[
                r.name.clone(),
                crate::report::fmt_bytes(bytes),
                format!("{p1:.3}"),
                format!("{p4:.3}"),
                crate::report::fmt_frac(r.transition_rate),
                format!("{:+.3}", r.split_gain),
            ]);
        }
    }
    t.render()
}

/// Renders a compact per-benchmark summary (one row each), in the
/// spirit of eyeballing the paper's 18 graphs.
pub fn render_summary(rows: &[Fig45Row]) -> String {
    let mut t = crate::report::TextTable::new(&[
        "benchmark",
        "p1@512k",
        "p4@512k",
        "p1@2M",
        "p4@2M",
        "trans-rate",
        "splittable",
    ]);
    for r in rows {
        let at = |bytes: u64| {
            r.points
                .iter()
                .find(|(b, _, _)| *b == bytes)
                .map(|&(_, p1, p4)| (p1, p4))
                .unwrap_or((f64::NAN, f64::NAN))
        };
        let (p1_512k, p4_512k) = at(512 << 10);
        let (p1_2m, p4_2m) = at(2 << 20);
        t.row(&[
            r.name.clone(),
            format!("{p1_512k:.3}"),
            format!("{p4_512k:.3}"),
            format!("{p1_2m:.3}"),
            format!("{p4_2m:.3}"),
            crate::report::fmt_frac(r.transition_rate),
            if r.split_gain_max > 0.10 { "yes" } else { "no" }.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(name: &str) -> Fig45Row {
        run_benchmark(name, &Fig45Config::paper(3_000_000))
    }

    #[test]
    fn p_curves_are_monotone_nonincreasing() {
        let r = quick("ammp");
        for w in r.points.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "p1 rose: {w:?}");
            assert!(w[1].2 <= w[0].2 + 1e-12, "p4 rose: {w:?}");
        }
    }

    #[test]
    fn art_is_splittable() {
        // Figure 4: art's split curve drops far before the normal one.
        // The settled split needs a longer run than the other checks so
        // the warm-up transient stops dominating the profile.
        let r = run_benchmark("art", &Fig45Config::paper(10_000_000));
        assert!(r.split_gain > 0.1, "art gain {}", r.split_gain);
        // p4 must beat p1 at 512 KB (the per-core L2 size).
        let (_, p1, p4) = r.points[5];
        assert!(p4 < p1 - 0.2, "p1 {p1} p4 {p4}");
    }

    #[test]
    fn vpr_is_not_splittable() {
        // Figure 4: "on 164.gzip, 175.vpr … p1(x) and p4(x) are very
        // close whatever value of x".
        let r = quick("vpr");
        assert!(
            r.split_gain.abs() < 0.08,
            "vpr should not split: gain {}",
            r.split_gain
        );
    }

    #[test]
    fn transition_rates_stay_low() {
        // §4.1: "in all cases, the transition frequency remains low" —
        // the worst benchmark (175.vpr) is 1.34% per stack access.
        for name in ["art", "vpr", "gzip", "em3d"] {
            let r = quick(name);
            assert!(
                r.transition_rate < 0.05,
                "{name} transition rate {}",
                r.transition_rate
            );
        }
    }

    #[test]
    fn curves_bounded_by_unit_interval() {
        let r = quick("health");
        for &(_, p1, p4) in &r.points {
            assert!((0.0..=1.0).contains(&p1));
            assert!((0.0..=1.0).contains(&p4));
        }
    }
}
