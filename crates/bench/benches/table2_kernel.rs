//! Table 2 kernels: the full machine (caches + coherence + controller)
//! per simulated instruction, baseline vs migration mode, and the
//! machine alone over a pre-generated event buffer under every
//! configuration. Kernel bodies live in `execmig_bench::kernels`.

use execmig_bench::harness::Runner;
use execmig_bench::kernels;

fn main() {
    let mut c = Runner::from_env();
    kernels::bench_machine(&mut c);
    kernels::bench_table2(&mut c);
    c.finish();
}
