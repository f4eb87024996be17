//! The combined perf-trajectory suite: caches + gen + table1 +
//! l1_replay + machine + controller + table2 kernels in one run,
//! exported as `BENCH_<n>.json` by the CI bench job (`cargo bench -p
//! execmig-bench --bench suite -- --quick --json-out BENCH_<n>.json`).

use execmig_bench::harness::Runner;
use execmig_bench::kernels;

fn main() {
    let mut c = Runner::from_env();
    kernels::bench_set_assoc(&mut c);
    kernels::bench_fully_assoc(&mut c);
    kernels::bench_stack(&mut c);
    kernels::bench_gen(&mut c);
    kernels::bench_table1(&mut c);
    kernels::bench_l1_replay(&mut c);
    kernels::bench_machine(&mut c);
    kernels::bench_controller(&mut c);
    kernels::bench_table2(&mut c);
    c.finish();
}
