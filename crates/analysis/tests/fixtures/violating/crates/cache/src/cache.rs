//! Hot-path fixture file: every construct below must be flagged.

pub fn miss_rate(misses: u64, total: u64) -> f64 {
    // E005 ×3: f64 in the signature and both casts
    misses as f64 / total as f64
}

pub fn lookup(v: &[u64]) -> u64 {
    let head = v.first().unwrap(); // E004
    if *head == 0 {
        panic!("empty fixture cache"); // E004
    }
    *head * 2
}
