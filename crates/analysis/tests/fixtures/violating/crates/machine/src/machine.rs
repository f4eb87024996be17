use execmig_obs::{Profiler, Tracer};

use crate::stats::MachineStats;

pub fn metrics(s: &MachineStats) -> Vec<(&'static str, u64)> {
    vec![("instructions", s.instructions)]
}

pub fn gated_drain(t: &Tracer) -> usize {
    if Tracer::ACTIVE {
        t.events().len() // gated: must NOT be flagged
    } else {
        0
    }
}

pub fn gated_sample(p: &Profiler) -> usize {
    if Profiler::ACTIVE {
        p.records().len() // gated: must NOT be flagged
    } else {
        0
    }
}
