//! Thread-parallel experiment execution, with per-task timings and
//! optional wall-clock spans.

use std::any::Any;
use std::iter::Enumerate;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use execmig_obs::wall::{self, Family};
use execmig_obs::Wall;

/// Wall-clock timings of one [`parallel_map_observed`] run: which
/// worker ran which task, when, and for how long.
#[derive(Debug)]
pub struct RunnerReport {
    /// Per worker thread, the `(task, start_us, duration_us)` of every
    /// task it completed, in claim order. Times are µs since runner
    /// entry.
    pub timings: Vec<Vec<(usize, u64, u64)>>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock µs from runner entry until every worker has joined.
    pub wall_us: u64,
}

impl RunnerReport {
    /// Tasks completed.
    pub fn tasks(&self) -> usize {
        self.timings.iter().map(Vec::len).sum()
    }

    /// Busy µs per worker thread.
    pub fn thread_busy_micros(&self) -> Vec<u64> {
        self.timings
            .iter()
            .map(|worker| worker.iter().map(|&(_, _, duration_us)| duration_us).sum())
            .collect()
    }

    /// Aggregate utilisation: total busy time / (threads × wall); 0
    /// when nothing ran.
    pub fn utilisation(&self) -> f64 {
        if self.threads == 0 || self.wall_us == 0 {
            return 0.0;
        }
        let busy: u64 = self.thread_busy_micros().iter().sum();
        busy as f64 / (self.threads as f64 * self.wall_us as f64)
    }

    /// One line per the report, for stderr diagnostics.
    pub fn summary(&self) -> String {
        format!(
            "{} tasks on {} threads in {:.1} ms, {:.0}% utilisation",
            self.tasks(),
            self.threads,
            self.wall_us as f64 / 1000.0,
            self.utilisation() * 100.0
        )
    }
}

/// Applies `f` to every item on up to `threads` worker threads,
/// preserving input order in the output.
///
/// ```
/// use execmig_experiments::runner::parallel_map;
/// let out = parallel_map(vec![1, 2, 3, 4], 2, |x| x * 10);
/// assert_eq!(out, vec![10, 20, 30, 40]);
/// ```
///
/// # Panics
///
/// As [`parallel_map_observed`]: `threads == 0` or a panicking task.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_observed(items, threads, Obs::none(), |item, _| f(item)).0
}

/// Where one observed run records: the wall-clock [`Wall`] span
/// recorder, or nowhere ([`Obs::none`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Obs<'a> {
    /// The wall workers record task/claim/run spans into.
    pub wall: Option<&'a Wall>,
}

impl<'a> Obs<'a> {
    /// Observe nothing (plain [`parallel_map`] behaviour).
    pub fn none() -> Obs<'static> {
        Obs { wall: None }
    }

    /// Record wall-clock spans into `wall`.
    pub fn with_wall(wall: &'a Wall) -> Obs<'a> {
        Obs { wall: Some(wall) }
    }
}

/// Applies `f` to every item on up to `threads` worker threads,
/// preserving input order, and returns a [`RunnerReport`] of per-task
/// timings. `f` receives each item with its index in `items`.
///
/// Workers pull `(index, item)` pairs off one shared queue and buffer
/// results and timings locally, so the per-task path takes a single
/// short lock (the claim); the only allocation is the growth of those
/// two buffers.
///
/// With a wall in `obs`, each worker claims wall slot `w` as its thread
/// context ([`wall::attach`]) and records one `runner/task` span per
/// task — with `runner/claim` and `runner/run` children — parented to
/// whatever span the *calling* thread had open (e.g. `obs_flame`'s
/// `sweep` root), so the folded stacks and the wall trace see the full
/// causal tree. Task closures open further spans (e.g.
/// `machine/block`) with no extra plumbing. Each worker detaches before
/// it is joined, which hands its spans to the wall.
///
/// With `obs` as [`Obs::none`] nothing is recorded, and the results
/// are the same either way.
///
/// # Panics
///
/// Panics if `threads == 0`. If `f` panics on a worker thread, no task
/// starts after the panic is recorded and the *original* panic payload
/// is re-raised on the caller's thread, after the failing task index is
/// printed to stderr. The first panic wins.
pub fn parallel_map_observed<T, R, F>(
    items: Vec<T>,
    threads: usize,
    obs: Obs<'_>,
    f: F,
) -> (Vec<R>, RunnerReport)
where
    T: Send,
    R: Send,
    F: Fn(T, usize) -> R + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let origin = Instant::now();
    let micros = || origin.elapsed().as_micros() as u64;
    // The caller's innermost open span (its sweep root, if any)
    // parents every task span across the worker threads.
    let sweep_root = wall::current_id();
    let n = items.len();
    if n == 0 {
        return (
            Vec::new(),
            RunnerReport {
                timings: Vec::new(),
                threads,
                wall_us: 0,
            },
        );
    }
    let threads = threads.min(n);
    let queue = Mutex::new(Queue {
        items: items.into_iter().enumerate(),
        panicked: None,
    });
    // Per-worker (task, result) and (task, start_us, duration_us)
    // buffers, in worker order.
    type Timings = Vec<(usize, u64, u64)>;
    let mut per_worker: Vec<(Vec<(usize, R)>, Timings)> = Vec::with_capacity(threads);
    thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let queue = &queue;
                let micros = &micros;
                let f = &f;
                scope.spawn(move || {
                    // Claim wall slot w as this thread's span context:
                    // task spans nest machine-block spans with no handle
                    // threading.
                    let wall_attached = obs.wall.is_some_and(|wl| wall::attach(wl, w));
                    let mut results = Vec::new();
                    let mut timings = Vec::new();
                    loop {
                        let task_span = wall::span_with_parent(Family::Task, sweep_root);
                        let claim_span = wall::span(Family::Claim);
                        let claimed = queue.lock().expect("task queue").claim();
                        let Some((i, item)) = claimed else {
                            // Nothing was claimed (queue drained or a
                            // task panicked): these spans cover no
                            // task, so discard rather than record them.
                            claim_span.cancel();
                            task_span.cancel();
                            break;
                        };
                        drop(claim_span);
                        let start_us = micros();
                        let outcome = {
                            let _run_span = wall::span(Family::Run);
                            catch_unwind(AssertUnwindSafe(|| f(item, i)))
                        };
                        match outcome {
                            Ok(result) => {
                                let duration_us = micros().saturating_sub(start_us);
                                results.push((i, result));
                                timings.push((i, start_us, duration_us));
                            }
                            Err(payload) => {
                                let mut queue = queue.lock().expect("task queue");
                                if queue.panicked.is_none() {
                                    queue.panicked = Some((i, payload));
                                }
                                break;
                            }
                        }
                    }
                    // Hand this thread's spans to the wall before the
                    // join.
                    if wall_attached {
                        wall::detach();
                    }
                    (results, timings)
                })
            })
            .collect();
        for handle in workers {
            // Workers catch `f`'s panics themselves; join only fails on
            // a runner-internal bug, which the panic slot cannot carry.
            match handle.join() {
                Ok(buffers) => per_worker.push(buffers),
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    if let Some((i, payload)) = queue.into_inner().expect("task queue").panicked {
        eprintln!("parallel_map: task {i} panicked, re-raising");
        resume_unwind(payload);
    }
    let wall_us = micros();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut timings = Vec::with_capacity(threads);
    for (worker_results, worker_timings) in per_worker {
        for (i, result) in worker_results {
            results[i] = Some(result);
        }
        timings.push(worker_timings);
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every task produced a result"))
        .collect();
    (
        results,
        RunnerReport {
            timings,
            threads,
            wall_us,
        },
    )
}

/// The runner's one piece of shared state, behind one `Mutex`: the
/// unclaimed `(index, item)` pairs and the first panic, if any.
struct Queue<T> {
    items: Enumerate<std::vec::IntoIter<T>>,
    /// First panic wins: (task index, original payload).
    panicked: Option<(usize, Box<dyn Any + Send>)>,
}

impl<T> Queue<T> {
    /// The next task, or `None` once the queue is drained or a task
    /// has panicked.
    fn claim(&mut self) -> Option<(usize, T)> {
        if self.panicked.is_some() {
            return None;
        }
        self.items.next()
    }
}

/// A sensible worker count: the machine's parallelism, at most `cap`.
pub fn default_threads(cap: usize) -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cap)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), 8, |x: i32| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as i32);
        }
    }

    #[test]
    fn single_thread_works() {
        let out = parallel_map(vec!["a", "b"], 1, |s| s.to_uppercase());
        assert_eq!(out, vec!["A", "B"]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(vec![1], 16, |x| x + 1);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn timed_map_reports_spans() {
        let (out, report) =
            parallel_map_observed((0..20).collect(), 4, Obs::none(), |x: u64, _| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                x + 1
            });
        assert_eq!(out.len(), 20);
        assert_eq!(out[7], 8);
        assert_eq!(report.tasks(), 20, "one timing per task");
        assert_eq!(report.threads, 4);
        assert_eq!(report.timings.len(), 4, "thread indices are 0..threads");
        assert!(report.wall_us > 0);
        let u = report.utilisation();
        assert!(u > 0.0 && u <= 1.0, "utilisation {u}");
        assert!(report.summary().contains("20 tasks"));
    }

    #[test]
    fn panicking_task_reraises_the_original_payload() {
        for threads in [1, 4] {
            let started = Mutex::new(Vec::new());
            let caught = std::panic::catch_unwind(|| {
                parallel_map_observed((0..32).collect(), threads, Obs::none(), |x: i32, i| {
                    started.lock().expect("started").push(i);
                    if x == 5 {
                        panic!("boom at {x}");
                    }
                    x
                })
            });
            let payload = caught.expect_err("a worker panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .expect("original String payload");
            assert_eq!(msg, "boom at 5", "{threads} threads");
            if threads == 1 {
                let started = started.into_inner().expect("started");
                assert_eq!(started, (0..=5).collect::<Vec<_>>(), "nothing starts after");
            }
        }
    }

    #[test]
    fn spans_carry_task_labels() {
        for threads in [1, 2, 8] {
            let items: Vec<u64> = (0..20).collect();
            let (out, report) =
                parallel_map_observed(items, threads, Obs::none(), |x, i| x * 10 + i as u64);
            let expected: Vec<u64> = (0..20).map(|x| x * 11).collect();
            assert_eq!(out, expected, "{threads} threads: input order, own index");
            let mut tasks: Vec<usize> = report.timings.iter().flatten().map(|t| t.0).collect();
            tasks.sort_unstable();
            assert_eq!(tasks, (0..20).collect::<Vec<_>>(), "each task timed once");
            assert_eq!(
                report.timings.len(),
                threads,
                "thread indices are 0..threads"
            );
            assert_eq!(report.thread_busy_micros().len(), threads);
        }
    }

    #[test]
    fn default_threads_bounded() {
        assert!(default_threads(4) >= 1);
        assert!(default_threads(4) <= 4);
    }
}
