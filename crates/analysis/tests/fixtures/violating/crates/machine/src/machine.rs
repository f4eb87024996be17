use crate::stats::MachineStats;

pub fn metrics(s: &MachineStats) -> Vec<(&'static str, u64)> {
    vec![("instructions", s.instructions)]
}
