//! Table 1 kernel: workload generation plus the 16 KB fully-associative
//! L1 filter, per benchmark class, and the filter alone over a
//! pre-generated buffer. Kernel bodies live in `execmig_bench::kernels`.

use execmig_bench::harness::Runner;
use execmig_bench::kernels;

fn main() {
    let mut c = Runner::from_env();
    kernels::bench_table1(&mut c);
    kernels::bench_l1_replay(&mut c);
    c.finish();
}
