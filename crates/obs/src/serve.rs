//! The telemetry serving edge: a dependency-free HTTP/1.1 server
//! exposing a running experiment's live state.
//!
//! Four endpoints, all read-only:
//!
//! - `/metrics` — the metrics [`Registry`] from the caller's provider
//!   in Prometheus text exposition, plus the hub's own per-worker
//!   progress series and overhead self-accounting (and, when a
//!   [`Wall`] is attached, per-span-family latency summaries);
//! - `/progress` — the merged [`HubSnapshot`](crate::hub::HubSnapshot)
//!   as JSON: per-worker rows, aggregate totals, hub config, and the
//!   stall watchdog's view;
//! - `/spans` — the wall-clock flight recorder's
//!   [`WallSnapshot`](crate::wall::WallSnapshot) as JSON: per-family
//!   p50/p99/p999 latencies, sampled collapsed stacks, and the
//!   [`Budget`](crate::Budget) overhead verdict;
//! - `/healthz` — `200 {"status":"ok"}` while every running worker is
//!   beating, `503 {"status":"stalled", …}` once a worker has missed
//!   its beat budget ([`HubConfig::stall_beats`](crate::hub::HubConfig)).
//!
//! The server owns one accept thread; each connection gets a short
//! read-timeout handler thread that speaks enough HTTP/1.1 (keep-alive,
//! pipelining, `Content-Length` framing) for curl, Prometheus scrapers,
//! and browsers. Serving never touches the workers' publish hot path —
//! request handling drives the hub's cold-side snapshot merge only.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::model::sync::{Arc, AtomicBool, AtomicUsize, Ordering};
use crate::model::thread;

use crate::export::{to_prometheus, PromKind, PromWriter};
use crate::http::{parse_request, response, HttpError};
use crate::hub::Hub;
use crate::json::{Json, ToJson};
use crate::metrics::Registry;
use crate::wall::Wall;

/// Supplies the current metrics registry on each `/metrics` scrape.
pub type MetricsProvider = Arc<dyn Fn() -> Registry + Send + Sync>;

/// How long a connection may sit idle mid-request before being closed.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Ceiling on concurrently served connections for [`start`]
/// (`TelemetryServer::start`); connections over the cap get an
/// immediate `503` and a close instead of a handler thread.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// How long a keep-alive connection may sit idle *between* requests
/// before the handler closes it. Keeps idle scrapers from pinning
/// connection-cap slots forever.
const KEEPALIVE_IDLE: Duration = Duration::from_secs(10);

/// A running telemetry server. Dropping it (or calling
/// [`shutdown`](TelemetryServer::shutdown)) stops the accept loop.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

/// One live connection's slot under the server's connection cap;
/// dropping it releases the slot on every handler exit path.
struct ConnPermit {
    active: Arc<AtomicUsize>,
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        // ord: AcqRel pairs with the accept loop's AcqRel fetch_add so
        // cap checks never double-count a freed slot.
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:9163`, port 0 for ephemeral) and
    /// starts serving `hub` and `metrics` in the background, capped at
    /// [`DEFAULT_MAX_CONNECTIONS`] concurrent connections.
    pub fn start(
        addr: impl ToSocketAddrs,
        hub: Hub,
        metrics: MetricsProvider,
    ) -> std::io::Result<TelemetryServer> {
        TelemetryServer::start_with_limit(addr, hub, metrics, DEFAULT_MAX_CONNECTIONS)
    }

    /// [`start`](TelemetryServer::start) with an explicit connection
    /// cap: at most `max_connections` handler threads live at once, and
    /// connections past the cap are answered `503` and closed without
    /// spawning anything.
    pub fn start_with_limit(
        addr: impl ToSocketAddrs,
        hub: Hub,
        metrics: MetricsProvider,
        max_connections: usize,
    ) -> std::io::Result<TelemetryServer> {
        // Spans from a zero-slot wall are impossible, so `/spans`
        // serves an honest all-empty snapshot.
        TelemetryServer::start_with_wall(addr, hub, Wall::with_threads(0), metrics, max_connections)
    }

    /// [`start_with_limit`](TelemetryServer::start_with_limit) with a
    /// wall-clock flight recorder attached: `/spans` serves its live
    /// per-family latency quantiles and `/metrics` carries its summary
    /// series.
    pub fn start_with_wall(
        addr: impl ToSocketAddrs,
        hub: Hub,
        wall: Wall,
        metrics: MetricsProvider,
        max_connections: usize,
    ) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let active = Arc::new(AtomicUsize::new(0));
        let accept_thread = thread::Builder::new()
            .name("telemetry-accept".to_string())
            .spawn(move || {
                // ord: Relaxed — stop is a standalone flag; the join in
                // shutdown() is the synchronisation point.
                while !accept_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((mut stream, _peer)) => {
                            // ord: AcqRel pairs the cap check with
                            // ConnPermit's AcqRel release.
                            if active.fetch_add(1, Ordering::AcqRel) >= max_connections {
                                active.fetch_sub(1, Ordering::AcqRel); // ord: undo, same pairing
                                let body = Json::object()
                                    .field("error", "connection capacity reached".to_string())
                                    .compact();
                                let _ = stream.write_all(&response(
                                    503,
                                    "application/json",
                                    &body,
                                    false,
                                ));
                                continue;
                            }
                            let permit = ConnPermit {
                                active: Arc::clone(&active),
                            };
                            let hub = hub.clone();
                            let wall = wall.clone();
                            let metrics = Arc::clone(&metrics);
                            let conn_stop = Arc::clone(&accept_stop);
                            // Detached: bounded by read timeouts, the
                            // idle deadline, and the stop flag, not by
                            // join. A failed spawn drops the closure —
                            // and with it the permit.
                            let _ = thread::Builder::new()
                                .name("telemetry-conn".to_string())
                                .spawn(move || {
                                    let _permit = permit;
                                    handle_connection(stream, &hub, &wall, &metrics, &conn_stop)
                                });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => thread::sleep(ACCEPT_POLL),
                    }
                }
            })?;
        Ok(TelemetryServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://addr/path` for log lines and tests.
    pub fn url(&self, path: &str) -> String {
        format!("http://{}{path}", self.addr)
    }

    /// Stops the accept loop and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // ord: Relaxed — flag only; the join below synchronises.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn handle_connection(
    mut stream: TcpStream,
    hub: &Hub,
    wall: &Wall,
    metrics: &MetricsProvider,
    stop: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_request = Instant::now();
    loop {
        match parse_request(&buf) {
            Ok(Some((request, consumed))) => {
                last_request = Instant::now();
                // ord: Relaxed — best-effort shutdown check; the accept
                // thread join is the synchronisation point.
                let keep_alive = !request.wants_close() && !stop.load(Ordering::Relaxed);
                let bytes = route(
                    &request.method,
                    request.path(),
                    hub,
                    wall,
                    metrics,
                    keep_alive,
                );
                if stream.write_all(&bytes).is_err() {
                    return;
                }
                buf.drain(..consumed);
                if !keep_alive {
                    return;
                }
                // Pipelined requests already buffered are served before
                // the next read.
                continue;
            }
            Ok(None) => {
                // ord: Relaxed — best-effort shutdown check.
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                match stream.read(&mut chunk) {
                    // EOF: a clean close, or a connection dropped
                    // mid-request — either way, stop quietly.
                    Ok(0) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        // Idle past the timeout with a partial request
                        // buffered means the peer stalled; drop it.
                        if !buf.is_empty() {
                            return;
                        }
                        // An idle keep-alive connection holds a cap
                        // slot; evict it once it overstays the idle
                        // allowance.
                        if last_request.elapsed() >= KEEPALIVE_IDLE {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
            Err(e) => {
                let _ = stream.write_all(&error_response(&e));
                return;
            }
        }
    }
}

fn error_response(e: &HttpError) -> Vec<u8> {
    let body = Json::object().field("error", format!("{e}")).compact();
    response(e.status(), "application/json", &body, false)
}

fn route(
    method: &str,
    path: &str,
    hub: &Hub,
    wall: &Wall,
    metrics: &MetricsProvider,
    keep_alive: bool,
) -> Vec<u8> {
    if method != "GET" && method != "HEAD" {
        let body = Json::object()
            .field("error", "only GET is supported".to_string())
            .compact();
        return response(405, "application/json", &body, keep_alive);
    }
    match path {
        "/metrics" => {
            let mut text = to_prometheus(&metrics(), "execmig_");
            text.push_str(&hub_prometheus(hub));
            text.push_str(&wall_prometheus(wall));
            response(200, "text/plain; version=0.0.4", &text, keep_alive)
        }
        "/progress" => {
            let snapshot = hub.snapshot();
            let stalled = snapshot.stalled_workers(hub.config().stall_after_us());
            let body = snapshot
                .to_json()
                .field("config", hub.config())
                .field("stalled", &stalled)
                .pretty();
            response(200, "application/json", &body, keep_alive)
        }
        "/spans" => {
            // The snapshot merges every span ring (cold side only) and
            // the budget verdict rates the wall's own cost against its
            // uptime — "is tracing still cheap" in one scrape.
            let body = wall
                .snapshot()
                .to_json()
                .field("budget", wall.budget_verdict())
                .pretty();
            response(200, "application/json", &body, keep_alive)
        }
        "/healthz" => {
            let health = hub.health();
            let status = if health.ok { 200 } else { 503 };
            response(
                status,
                "application/json",
                &health.to_json().pretty(),
                keep_alive,
            )
        }
        "/" => {
            let body = Json::object()
                .field(
                    "endpoints",
                    vec![
                        "/metrics".to_string(),
                        "/progress".to_string(),
                        "/spans".to_string(),
                        "/healthz".to_string(),
                    ],
                )
                .pretty();
            response(200, "application/json", &body, keep_alive)
        }
        _ => {
            let body = Json::object()
                .field("error", format!("no such endpoint {path}"))
                .compact();
            response(404, "application/json", &body, keep_alive)
        }
    }
}

/// The hub's live state as Prometheus series: per-worker progress
/// gauges (labelled `{worker="i",state="running"}`) and the overhead
/// self-accounting counters.
pub fn hub_prometheus(hub: &Hub) -> String {
    let snapshot = hub.snapshot();
    let mut w = PromWriter::new();
    // Family-major: the exposition format requires all samples of a
    // family in one contiguous group under its TYPE line.
    type RowValue = fn(&crate::hub::WorkerProgress) -> u64;
    let families: [(&str, &str, RowValue); 6] = [
        (
            "execmig_worker_instructions",
            "Instructions retired by this worker, from its newest beat",
            |r| r.instructions,
        ),
        (
            "execmig_worker_l2_misses",
            "L2 misses by this worker",
            |r| r.l2_misses,
        ),
        (
            "execmig_worker_migrations",
            "Migrations by this worker",
            |r| r.migrations,
        ),
        (
            "execmig_worker_tasks_done",
            "Tasks completed by this worker",
            |r| r.tasks_done,
        ),
        (
            "execmig_worker_beats",
            "Beats merged from this worker",
            |r| r.beats,
        ),
        (
            "execmig_worker_beat_age_us",
            "Microseconds since this worker's newest beat",
            |r| r.age_us,
        ),
    ];
    for (name, help, value_of) in families {
        w.family(name, PromKind::Gauge, Some(help));
        for row in &snapshot.workers {
            let worker = row.worker.to_string();
            let labels: &[(&str, &str)] = &[("worker", &worker), ("state", row.state.as_str())];
            w.sample(name, labels, value_of(row) as f64);
        }
    }
    let o = snapshot.overhead;
    for (name, help, value) in [
        (
            "execmig_hub_beats_total",
            "Beats accepted into hub rings",
            o.beats,
        ),
        (
            "execmig_hub_beats_dropped_total",
            "Beats dropped on full hub rings",
            o.dropped,
        ),
        (
            "execmig_hub_bytes_total",
            "Payload bytes moved through hub rings",
            o.bytes,
        ),
        (
            "execmig_hub_publish_ns_total",
            "Nanoseconds spent inside hub publish calls",
            o.publish_ns,
        ),
        (
            "execmig_hub_merge_ns_total",
            "Nanoseconds spent inside hub snapshot merges",
            o.merge_ns,
        ),
        (
            "execmig_hub_merges_total",
            "Hub snapshot merges performed",
            o.merges,
        ),
    ] {
        w.family(name, PromKind::Counter, Some(help));
        w.sample(name, &[], value as f64);
    }
    w.family(
        "execmig_hub_epoch",
        PromKind::Gauge,
        Some("Snapshot merge epoch"),
    );
    w.sample("execmig_hub_epoch", &[], snapshot.epoch as f64);
    w.finish()
}

/// The wall-clock flight recorder's state as Prometheus series:
/// summary-style per-family latency quantiles (quantile-labelled
/// gauges plus `_count`/`_sum`, the exposition shape scrapers expect
/// from a summary) and the wall's overhead self-accounting.
pub fn wall_prometheus(wall: &Wall) -> String {
    let snapshot = wall.snapshot();
    let mut w = PromWriter::new();
    w.family(
        "execmig_span_latency_ns",
        PromKind::Gauge,
        Some("Wall-clock span latency quantiles per span family"),
    );
    for f in &snapshot.families {
        for (q, v) in [("0.5", f.p50_ns), ("0.99", f.p99_ns), ("0.999", f.p999_ns)] {
            let labels: &[(&str, &str)] = &[("family", f.family.name()), ("quantile", q)];
            w.sample("execmig_span_latency_ns", labels, v as f64);
        }
    }
    w.family(
        "execmig_span_latency_ns_count",
        PromKind::Counter,
        Some("Closed spans per span family"),
    );
    for f in &snapshot.families {
        let labels: &[(&str, &str)] = &[("family", f.family.name())];
        w.sample("execmig_span_latency_ns_count", labels, f.count as f64);
    }
    w.family(
        "execmig_span_latency_ns_sum",
        PromKind::Counter,
        Some("Summed span duration per span family, ns"),
    );
    for f in &snapshot.families {
        let labels: &[(&str, &str)] = &[("family", f.family.name())];
        w.sample("execmig_span_latency_ns_sum", labels, f.total_ns as f64);
    }
    let o = snapshot.overhead;
    for (name, help, value) in [
        (
            "execmig_wall_spans_total",
            "Spans accepted into wall rings",
            o.spans,
        ),
        (
            "execmig_wall_spans_dropped_total",
            "Spans dropped on full wall rings",
            o.dropped,
        ),
        (
            "execmig_wall_record_ns_total",
            "Nanoseconds spent inside span enter/exit",
            o.record_ns,
        ),
        (
            "execmig_wall_merge_ns_total",
            "Nanoseconds spent inside wall snapshot merges",
            o.merge_ns,
        ),
        (
            "execmig_wall_samples_total",
            "Flight-recorder sampling passes",
            o.samples,
        ),
        (
            "execmig_wall_sample_ns_total",
            "Nanoseconds spent inside flight-recorder sampling",
            o.sample_ns,
        ),
    ] {
        w.family(name, PromKind::Counter, Some(help));
        w.sample(name, &[], value as f64);
    }
    w.family(
        "execmig_wall_overhead_fraction",
        PromKind::Gauge,
        Some("Wall self-overhead as a fraction of wall uptime"),
    );
    w.sample(
        "execmig_wall_overhead_fraction",
        &[],
        wall.budget_verdict().fraction,
    );
    w.finish()
}
