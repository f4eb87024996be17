//! Fixture: raw concurrency paths.

use std::sync::atomic::{AtomicU64, Ordering}; // E012: raw atomic path
use std::thread; // E012: raw thread path

pub static COUNT: AtomicU64 = AtomicU64::new(0);

pub fn bump() -> u64 {
    COUNT.fetch_add(1, Ordering::Relaxed)
}

pub fn park() {
    thread::yield_now();
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    #[test]
    fn exempt_in_tests() {
        // Raw atomics and threads in test modules are exempt from E012.
        let a = AtomicU64::new(1);
        thread::yield_now();
        assert_eq!(a.load(Ordering::SeqCst), 1);
    }
}
