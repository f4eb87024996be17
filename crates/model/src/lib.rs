//! `execmig-model` — a dependency-free, loom-style interleaving model
//! checker for the repo's concurrent code.
//!
//! The repo's sweep runner shares a task queue and a panic slot
//! between worker threads (its claim/complete protocol). This crate
//! makes that protocol *checkable*: code written
//! against [`sync`] and [`thread`] compiles to plain std primitives in
//! real builds, but inside [`explore`] every atomic operation, mutex
//! acquisition, and thread spawn/join becomes a decision point for a
//! virtual scheduler that exhaustively enumerates bounded thread
//! interleavings — *and* every stale value a weak load could legally
//! return under the C++11/Rust memory model (per-location modification
//! orders plus happens-before vector clocks; see `exec.rs` for the
//! exact rules).
//!
//! ```
//! use execmig_model::{explore, sync::{AtomicU64, Arc, Ordering}};
//!
//! // Message passing: the Release/Acquire pair makes the payload
//! // visible; explore() proves it for every bounded interleaving.
//! explore(|| {
//!     let flag = Arc::new(AtomicU64::new(0));
//!     let data = Arc::new(AtomicU64::new(0));
//!     let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
//!     let t = execmig_model::thread::spawn(move || {
//!         d2.store(42, Ordering::Relaxed);   // ord: published by the Release below
//!         f2.store(1, Ordering::Release);    // ord: pairs with the Acquire load
//!     });
//!     if flag.load(Ordering::Acquire) == 1 {
//!         assert_eq!(data.load(Ordering::Relaxed), 42);
//!     }
//!     t.join().expect("writer");
//! });
//! ```
//!
//! Ground rules for model tests (enforced by panics where possible):
//! construct all shared state inside the closure, keep every loop
//! bounded (no polling), never branch on wall-clock time, at most 8
//! threads. Violations are reported with the failing execution's
//! shared-memory event trace, replayed deterministically from the
//! recorded decision trail.

mod clock;
mod exec;
pub mod sync;
pub mod thread;

pub use exec::{explore, explore_with, try_explore, Config, Report, Violation};

#[cfg(test)]
mod litmus {
    use super::sync::{fence, Arc, AtomicU64, Mutex, Ordering};
    use super::{explore, explore_with, try_explore, Config};

    fn pair() -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)))
    }

    /// Message passing with Release/Acquire never loses the payload.
    #[test]
    fn message_passing_release_acquire_is_clean() {
        let report = explore(|| {
            let (flag, data) = pair();
            let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
            let t = crate::thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                f2.store(1, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 42, "payload lost");
            }
            t.join().expect("writer thread");
        });
        // Schedule choices plus the two weak loads give > 1 execution.
        assert!(report.executions > 1, "explored {}", report.executions);
    }

    /// Weakening the flag store to Relaxed must surface the stale read:
    /// the checker's raison d'être.
    #[test]
    fn message_passing_relaxed_flag_is_caught() {
        let violation = try_explore(Config::default(), || {
            let (flag, data) = pair();
            let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
            let t = crate::thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                f2.store(1, Ordering::Relaxed); // deliberately broken
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 42, "payload lost");
            }
            t.join().expect("writer thread");
        })
        .expect_err("relaxed flag publication must be detected");
        assert!(
            violation.message.contains("payload lost"),
            "unexpected violation: {violation}"
        );
        assert!(!violation.trace.is_empty(), "violation carries a trace");
    }

    /// Release *fence* before a Relaxed flag store also publishes.
    #[test]
    fn release_fence_publishes() {
        explore(|| {
            let (flag, data) = pair();
            let (f2, d2) = (Arc::clone(&flag), Arc::clone(&data));
            let t = crate::thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                fence(Ordering::Release);
                f2.store(1, Ordering::Relaxed);
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 42, "fence did not publish");
            }
            t.join().expect("writer thread");
        });
    }

    /// Store buffering: with SeqCst both-threads-read-zero is
    /// impossible; the sc_view approximation must enforce that.
    #[test]
    fn store_buffering_seqcst_forbids_both_zero() {
        explore(|| {
            let (x, y) = pair();
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t = crate::thread::spawn(move || {
                x2.store(1, Ordering::SeqCst);
                y2.load(Ordering::SeqCst)
            });
            y.store(1, Ordering::SeqCst);
            let r0 = x.load(Ordering::SeqCst);
            let r1 = t.join().expect("other side");
            assert!(r0 == 1 || r1 == 1, "SC forbids r0 == r1 == 0");
        });
    }

    /// The same shape under Relaxed must exhibit both-zero — if the
    /// checker can't produce it, it isn't weak-memory-faithful.
    #[test]
    fn store_buffering_relaxed_exhibits_both_zero() {
        let violation = try_explore(Config::default(), || {
            let (x, y) = pair();
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t = crate::thread::spawn(move || {
                x2.store(1, Ordering::Relaxed);
                y2.load(Ordering::Relaxed)
            });
            y.store(1, Ordering::Relaxed);
            let r0 = x.load(Ordering::Relaxed);
            let r1 = t.join().expect("other side");
            assert!(r0 == 1 || r1 == 1, "relaxed SB: both zero observed");
        })
        .expect_err("relaxed store buffering must reach r0 == r1 == 0");
        assert!(violation.message.contains("both zero"));
    }

    /// Per-location coherence: a thread never reads backwards in the
    /// modification order, even fully Relaxed.
    #[test]
    fn coherence_no_backward_reads() {
        explore(|| {
            let x = Arc::new(AtomicU64::new(0));
            let x2 = Arc::clone(&x);
            let t = crate::thread::spawn(move || {
                x2.store(1, Ordering::Relaxed);
                x2.store(2, Ordering::Relaxed);
            });
            let a = x.load(Ordering::Relaxed);
            let b = x.load(Ordering::Relaxed);
            assert!(b >= a, "coherence violated: read {b} after {a}");
            t.join().expect("writer thread");
        });
    }

    /// RMWs always hit the newest value: concurrent increments never
    /// lose updates.
    #[test]
    fn fetch_add_never_loses_updates() {
        explore(|| {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = crate::thread::spawn(move || {
                c2.fetch_add(1, Ordering::Relaxed);
                c2.fetch_add(1, Ordering::Relaxed);
            });
            c.fetch_add(1, Ordering::Relaxed);
            t.join().expect("incrementer");
            assert_eq!(c.load(Ordering::Relaxed), 3);
        });
    }

    /// Mutexes are acquire/release pairs: the protected counter is
    /// race-free and the final value exact.
    #[test]
    fn mutex_counter_is_exact() {
        explore(|| {
            let m = Arc::new(Mutex::new(0u64));
            let m2 = Arc::clone(&m);
            let t = crate::thread::spawn(move || {
                for _ in 0..2 {
                    *m2.lock().expect("lock") += 1;
                }
            });
            *m.lock().expect("lock") += 1;
            t.join().expect("adder");
            assert_eq!(*m.lock().expect("lock"), 3);
        });
    }

    /// A classic lock-order inversion deadlocks in some interleaving;
    /// the checker must find and report it.
    #[test]
    fn deadlock_is_detected() {
        let violation = try_explore(Config::default(), || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = crate::thread::spawn(move || {
                let _ga = a2.lock().expect("a");
                let _gb = b2.lock().expect("b");
            });
            {
                let _gb = b.lock().expect("b");
                let _ga = a.lock().expect("a");
            }
            t.join().expect("other side");
        })
        .expect_err("AB/BA locking must deadlock in some interleaving");
        assert!(
            violation.message.contains("deadlock"),
            "unexpected violation: {violation}"
        );
    }

    /// Scoped threads may borrow; results come back typed.
    #[test]
    fn scoped_threads_borrow_and_join() {
        explore(|| {
            let data = [1u64, 2, 3];
            let total = crate::thread::scope(|s| {
                let h1 = s.spawn(|| data[0] + data[1]);
                let h2 = s.spawn(|| data[2]);
                h1.join().expect("h1") + h2.join().expect("h2")
            });
            assert_eq!(total, 6);
        });
    }

    /// Outside explore() the shim is plain std: no execution, no
    /// scheduler, full thread-parallelism.
    #[test]
    fn fallback_mode_is_plain_std() {
        let x = Arc::new(AtomicU64::new(7));
        assert_eq!(x.load(Ordering::SeqCst), 7);
        x.store(9, Ordering::SeqCst);
        assert_eq!(x.fetch_add(1, Ordering::AcqRel), 9);
        let m = Mutex::new(5u32);
        *m.lock().expect("lock") += 1;
        assert_eq!(m.into_inner().expect("into_inner"), 6);
        let h = crate::thread::spawn(|| 11u8);
        assert_eq!(h.join().expect("join"), 11);
        let s = crate::thread::scope(|s| s.spawn(|| 13u8).join().expect("scoped"));
        assert_eq!(s, 13);
    }

    /// A panic inside a spawned model thread propagates through join
    /// and is reported as the violation.
    #[test]
    fn child_panic_becomes_violation() {
        let violation = try_explore(Config::default(), || {
            let t = crate::thread::spawn(|| panic!("child blew up"));
            let _ = t.join();
        })
        .expect_err("child panic is a violation");
        assert!(violation.message.contains("child blew up"));
    }

    /// Unbounded polling loops are rejected as livelock, not spun on
    /// forever.
    #[test]
    fn polling_loop_is_reported_as_livelock() {
        let violation = try_explore(
            Config {
                preemption_bound: Some(1),
                max_steps: 200,
                ..Config::default()
            },
            || {
                let flag = Arc::new(AtomicU64::new(0));
                let f2 = Arc::clone(&flag);
                let t = crate::thread::spawn(move || {
                    f2.store(1, Ordering::Release);
                });
                // Deliberately unbounded: the checker must cut it off.
                while flag.load(Ordering::Acquire) == 0 {}
                t.join().expect("setter");
            },
        )
        .expect_err("unbounded polling must trip the step budget");
        assert!(
            violation.message.contains("step budget"),
            "unexpected violation: {violation}"
        );
    }

    /// explore_with honors the preemption bound: bound 0 runs each
    /// thread to completion once scheduled, shrinking the space.
    #[test]
    fn preemption_bound_shrinks_the_space() {
        let tight = explore_with(
            Config {
                preemption_bound: Some(0),
                ..Config::default()
            },
            sb_seqcst_body,
        );
        let loose = explore_with(
            Config {
                preemption_bound: Some(2),
                ..Config::default()
            },
            sb_seqcst_body,
        );
        assert!(
            tight.executions < loose.executions,
            "bound 0 explored {} vs bound 2 {}",
            tight.executions,
            loose.executions
        );
    }

    fn sb_seqcst_body() {
        let (x, y) = pair();
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = crate::thread::spawn(move || {
            x2.store(1, Ordering::SeqCst);
            y2.load(Ordering::SeqCst)
        });
        y.store(1, Ordering::SeqCst);
        let r0 = x.load(Ordering::SeqCst);
        let r1 = t.join().expect("other side");
        assert!(r0 == 1 || r1 == 1);
    }
}
