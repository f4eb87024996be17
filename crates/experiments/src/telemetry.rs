//! `--serve-telemetry <addr>` wiring shared by the experiment binaries.
//!
//! One call turns a plain sweep into an observable one:
//!
//! ```no_run
//! # let args: Vec<String> = std::env::args().collect();
//! use execmig_experiments::runner::parallel_map_observed;
//! use execmig_experiments::telemetry::Telemetry;
//!
//! let telemetry = Telemetry::from_args(&args, 4);
//! let (rows, report) = parallel_map_observed(vec![1u64, 2, 3], 4, telemetry.obs(), |x, _w| x);
//! telemetry.finish();
//! ```
//!
//! While the run is in flight, `curl http://<addr>/progress` shows
//! per-worker state, `/spans` the wall-clock span latencies, `/healthz`
//! the stall watchdog, and `/metrics` the Prometheus series. Without
//! `--serve-telemetry` everything here is inert and allocates no hub
//! or wall.

use execmig_obs::model::sync::{Arc, Mutex};
use execmig_obs::serve::DEFAULT_MAX_CONNECTIONS;
use execmig_obs::{wall, Hub, MetricsProvider, Registry, TelemetryServer, Wall};

use crate::report::arg_value;
use crate::runner::Obs;

/// Retired-instruction interval between mid-task beats: the
/// [`ObsCtx::beat_period`](crate::runner::ObsCtx::beat_period) the
/// runner hands every observed task (`Machine::run_shared` and the
/// Table 1 loop beat on it). Frequent enough that `/progress` moves
/// visibly, rare enough that publishing stays deep under the
/// [`execmig_obs::Budget`] (a publish is ~100 ns; at one per million
/// instructions the hub costs well below 0.1 %).
pub const BEAT_PERIOD_INSTR: u64 = 1_000_000;

/// A metrics [`Registry`] shareable with the `/metrics` endpoint:
/// the experiment replaces the snapshot as it goes, scrapes read it.
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry {
    inner: Arc<Mutex<Registry>>,
}

impl SharedRegistry {
    /// An empty shared registry.
    pub fn new() -> SharedRegistry {
        SharedRegistry::default()
    }

    /// Replaces the published snapshot.
    pub fn update(&self, registry: Registry) {
        *self.inner.lock().expect("shared registry") = registry;
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> Registry {
        self.inner.lock().expect("shared registry").clone()
    }

    /// A provider closure for [`TelemetryServer::start`].
    pub fn provider(&self) -> MetricsProvider {
        let inner = Arc::clone(&self.inner);
        Arc::new(move || inner.lock().expect("shared registry").clone())
    }
}

/// The live-telemetry wiring of one experiment run: a
/// [`SharedRegistry`] for `/metrics` and, when
/// `--serve-telemetry <addr>` was given and bound, the HTTP server with
/// its [`Hub`] and [`Wall`] flight recorder.
#[derive(Debug)]
pub struct Telemetry {
    metrics: SharedRegistry,
    live: Option<Live>,
}

/// The parts that exist only while serving.
#[derive(Debug)]
struct Live {
    hub: Hub,
    wall: Wall,
    server: TelemetryServer,
}

impl Telemetry {
    /// Reads `--serve-telemetry <addr>` from `args` and, if present,
    /// binds the server. `workers` sizes the hub (one slot per worker
    /// thread the sweep will use).
    pub fn from_args(args: &[String], workers: usize) -> Telemetry {
        Telemetry::new(arg_value(args, "--serve-telemetry").as_deref(), workers)
    }

    /// As [`from_args`](Self::from_args), with the address given
    /// directly (`None` = telemetry off).
    pub fn new(addr: Option<&str>, workers: usize) -> Telemetry {
        let metrics = SharedRegistry::new();
        let live = addr.and_then(|addr| {
            let hub = Hub::with_workers(workers);
            // One wall slot per worker plus a last slot for the driver
            // thread, so the binaries' `sweep` root span has somewhere
            // to record.
            let wall = Wall::with_threads(workers + 1);
            match TelemetryServer::start_with_wall(
                addr,
                hub.clone(),
                wall.clone(),
                metrics.provider(),
                DEFAULT_MAX_CONNECTIONS,
            ) {
                Ok(server) => {
                    eprintln!(
                        "telemetry: serving /metrics /progress /spans /healthz on http://{}",
                        server.local_addr()
                    );
                    // Attach the calling (driver) thread to the spare
                    // wall slot: the binaries' sweep root span and any
                    // other driver-side spans record there. Workers
                    // claim 0..workers inside the runner.
                    wall::attach(&wall, workers);
                    Some(Live { hub, wall, server })
                }
                Err(e) => {
                    eprintln!("telemetry: cannot bind {addr}: {e} — continuing without");
                    None
                }
            }
        });
        Telemetry { metrics, live }
    }

    /// The hub to hand to
    /// [`parallel_map_observed`](crate::runner::parallel_map_observed);
    /// `None` when no server is up, so unobserved runs skip publishing
    /// entirely.
    pub fn hub(&self) -> Option<&Hub> {
        self.live.as_ref().map(|l| &l.hub)
    }

    /// The wall-clock flight recorder; `None` when no server is up
    /// (symmetric with [`hub`](Self::hub)).
    pub fn wall(&self) -> Option<&Wall> {
        self.live.as_ref().map(|l| &l.wall)
    }

    /// Both observability sinks bundled for
    /// [`parallel_map_observed`](crate::runner::parallel_map_observed).
    pub fn obs(&self) -> Obs<'_> {
        Obs::new(self.hub(), self.wall())
    }

    /// The shared registry backing `/metrics`.
    pub fn metrics(&self) -> &SharedRegistry {
        &self.metrics
    }

    /// Whether a server is actually listening.
    pub fn serving(&self) -> bool {
        self.live.is_some()
    }

    /// The server's bound address, when serving.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.live.as_ref().map(|l| l.server.local_addr())
    }

    /// Prints the hub's and wall's overhead self-accounting (when
    /// serving) and shuts the server down. Call once the sweep is
    /// finished — on the thread that created the telemetry, so the
    /// driver's wall context is detached with it.
    pub fn finish(self) {
        let Some(Live { hub, wall, server }) = self.live else {
            return;
        };
        let overhead = hub.overhead();
        eprintln!(
            "telemetry: {} beats ({} dropped), {} bytes, {} ns publish + {} ns merge",
            overhead.beats,
            overhead.dropped,
            overhead.bytes,
            overhead.publish_ns,
            overhead.merge_ns
        );
        let wall_overhead = wall.overhead();
        let verdict = wall.budget_verdict();
        eprintln!(
            "telemetry: wall {} spans ({} dropped), {} ns record + {} ns merge \
             + {} ns sample = {:.4}% of uptime ({})",
            wall_overhead.spans,
            wall_overhead.dropped,
            wall_overhead.record_ns,
            wall_overhead.merge_ns,
            wall_overhead.sample_ns,
            verdict.fraction * 100.0,
            if verdict.within {
                "within budget"
            } else {
                "OVER BUDGET"
            }
        );
        wall::detach();
        server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_without_the_flag() {
        let args: Vec<String> = vec!["--instr".into(), "1000".into()];
        let t = Telemetry::from_args(&args, 4);
        assert!(!t.serving());
        assert!(t.hub().is_none());
        assert!(t.wall().is_none());
        assert!(t.local_addr().is_none());
        t.finish();
    }

    #[test]
    fn serves_on_an_ephemeral_port() {
        let t = Telemetry::new(Some("127.0.0.1:0"), 2);
        assert!(t.serving());
        assert!(t.hub().is_some());
        assert_eq!(t.wall().map(Wall::threads), Some(3), "workers + driver");
        let addr = t.local_addr().expect("bound");
        assert_ne!(addr.port(), 0);
        t.finish();
    }

    #[test]
    fn bad_address_degrades_gracefully() {
        let t = Telemetry::new(Some("256.256.256.256:99999"), 2);
        assert!(!t.serving());
        assert!(t.hub().is_none() && t.wall().is_none());
        t.finish();
    }

    #[test]
    fn shared_registry_round_trips() {
        let shared = SharedRegistry::new();
        let mut r = Registry::new();
        r.counter("rows_done", 3);
        shared.update(r);
        let provider = shared.provider();
        let got = provider();
        assert_eq!(got, shared.snapshot());
        assert!(execmig_obs::to_prometheus(&got, "x_").contains("x_rows_done 3"));
    }
}
