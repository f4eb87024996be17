//! Hot paths of the affinity algorithm: the Figure 2 datapath per
//! reference, with unbounded and finite affinity caches, and the
//! splitter tree at 4 and 8 ways. These bound the simulated migration
//! controller's per-L1-miss cost.

use execmig_bench::harness::Runner;
use execmig_bench::LineStream;
use execmig_core::{
    Mechanism, MechanismConfig, Sampler, SkewedAffinityCache, Splitter2, SplitterConfig,
    SplitterTree, SplitterTreeConfig, UnboundedAffinityTable,
};
use std::hint::black_box;

fn bench_mechanism(c: &mut Runner) {
    let mut g = c.benchmark_group("mechanism");
    g.throughput(1);

    g.bench_function("on_reference/unbounded_table", |b| {
        let mut m = Mechanism::new(MechanismConfig::default());
        let mut t = UnboundedAffinityTable::new();
        let mut lines = LineStream::new(1, 15);
        // Warm the table so steady-state cost is measured.
        for _ in 0..50_000 {
            m.on_reference(lines.next_line(), &mut t);
        }
        b.iter(|| black_box(m.on_reference(lines.next_line(), &mut t)));
    });

    g.bench_function("on_reference/skewed_8k_table", |b| {
        let mut m = Mechanism::new(MechanismConfig::default());
        let mut t = SkewedAffinityCache::new(8 << 10, 4);
        let mut lines = LineStream::new(2, 15);
        for _ in 0..50_000 {
            m.on_reference(lines.next_line(), &mut t);
        }
        b.iter(|| black_box(m.on_reference(lines.next_line(), &mut t)));
    });
    g.finish();
}

fn bench_splitters(c: &mut Runner) {
    let mut g = c.benchmark_group("splitter");
    g.throughput(1);

    g.bench_function("splitter2/circular", |b| {
        let mut s = Splitter2::new(SplitterConfig {
            r_window: 100,
            filter_bits: Some(20),
            ..SplitterConfig::default()
        });
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(s.on_reference(t % 4000))
        });
    });

    for depth in [2, 3] {
        for (name, sampler, seed) in [
            ("full", Sampler::full(), 3),
            ("quarter", Sampler::quarter(), 4),
        ] {
            g.bench_function(format!("tree{depth}/{name}_sampling"), |b| {
                let mut s = SplitterTree::new(SplitterTreeConfig {
                    depth,
                    sampler,
                    ..SplitterTreeConfig::default()
                });
                let mut lines = LineStream::new(seed, 14);
                b.iter(|| black_box(s.on_reference(lines.next_line())));
            });
        }
    }
    g.finish();
}

fn bench_controller(c: &mut Runner) {
    use execmig_core::{ControllerConfig, MigrationController};
    let mut g = c.benchmark_group("controller");
    g.throughput(1);

    g.bench_function("paper_4core/per_request", |b| {
        b.iter_batched_ref(
            || {
                (
                    MigrationController::new(ControllerConfig::paper_4core()),
                    LineStream::new(5, 15),
                )
            },
            |(mc, lines)| {
                for _ in 0..1000 {
                    black_box(mc.on_request(lines.next_line(), true));
                }
            },
        );
    });
    g.finish();
}

fn main() {
    let mut c = Runner::from_env();
    bench_mechanism(&mut c);
    bench_splitters(&mut c);
    bench_controller(&mut c);
    c.finish();
}
