//! Acceptance tests for the live-telemetry subsystem: a 4-worker sweep
//! served over real TCP must report per-worker progress while running,
//! the hub's self-accounted overhead must stay inside the [`Budget`]
//! (2 % of run time), the wall-clock flight recorder must serve live
//! per-family span latencies on `/spans` within the same budget, and —
//! the hard promise — `MachineStats` must be bit-identical with
//! telemetry on and off.
//!
//! The HTTP client here is hand-rolled on `TcpStream`, matching the
//! repo's dependency-free discipline (and exercising the server with a
//! client that is *not* its own parser's sibling).

mod common;

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use execution_migration::experiments::runner::parallel_map_observed;
use execution_migration::experiments::telemetry::{Telemetry, BEAT_PERIOD_INSTR};
use execution_migration::machine::{Machine, MachineConfig};
use execution_migration::obs::wall;
use execution_migration::obs::{json, Budget, Family, Hub, HubConfig, Json};
use execution_migration::trace::suite;

/// One blocking `GET path` against the telemetry server; returns
/// `(status, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The workers array of a parsed `/progress` document.
fn workers_of(doc: &Json) -> &[Json] {
    match doc.get("workers") {
        Some(Json::Arr(rows)) => rows,
        other => panic!("/progress carries a workers array, got {other:?}"),
    }
}

fn uint_field(row: &Json, name: &str) -> u64 {
    match row.get(name) {
        Some(Json::UInt(v)) => *v,
        other => panic!("field {name} is a uint, got {other:?}"),
    }
}

/// Telemetry must observe, never perturb: a machine run with mid-run
/// beats publishes the same counters — every registered metric, bit
/// for bit — as the same run without them. Uses the migration config
/// (the richest datapath: filter, A_R, coherence, bus) and two
/// workloads with very different migration behaviour.
#[test]
fn machine_stats_bit_identical_with_telemetry_on() {
    let budget = common::instr_budget(2_000_000);
    for name in ["art", "mcf"] {
        let mut plain = Machine::new(MachineConfig::four_core_migration());
        let mut w = suite::by_name(name).expect("suite workload");
        plain.run(&mut *w, budget);

        let hub = Hub::new(HubConfig::with_workers(1));
        let worker = hub.worker(0).expect("slot 0");
        let mut observed = Machine::new(MachineConfig::four_core_migration());
        let mut w = suite::by_name(name).expect("suite workload");
        observed.run_observed(&mut *w, budget, &worker, 0, 0, BEAT_PERIOD_INSTR);

        // Registry equality covers every counter Machine registers,
        // which is every `MachineStats::counters()` entry.
        assert_eq!(
            plain.metrics(),
            observed.metrics(),
            "telemetry perturbed the {name} run"
        );
        let snap = hub.snapshot();
        assert_eq!(snap.workers.len(), 1);
        assert_eq!(snap.workers[0].instructions, budget);
    }
}

/// The acceptance sweep: four workers, telemetry served on an
/// ephemeral port, `/progress` polled over real TCP while the sweep
/// runs. Asserts live per-worker progress and span quantiles mid-run,
/// well-formed responses, and the 2 % overhead budget.
#[test]
fn four_worker_sweep_serves_live_progress() {
    let threads = 4;
    let telemetry = Telemetry::new(Some("127.0.0.1:0"), threads);
    assert!(telemetry.serving(), "ephemeral bind succeeds");
    let addr = telemetry.local_addr().expect("bound address");
    let budget = common::instr_budget(3_000_000);
    let names = ["art", "mcf", "gzip", "gcc", "bzip2", "art", "mcf", "gzip"];

    let started = Instant::now();
    let done = AtomicBool::new(false);
    let (rows, live_polls, live_span_polls) = std::thread::scope(|scope| {
        // Scrape /progress and /spans concurrently with the sweep and
        // count the polls that caught a worker (or a span family)
        // mid-flight.
        let scraper = scope.spawn(|| {
            let mut live_polls = 0u64;
            let mut live_span_polls = 0u64;
            while !done.load(Ordering::Acquire) {
                let (status, body) = http_get(addr, "/progress");
                assert_eq!(status, 200, "/progress answers while running");
                let doc = json::parse(&body).expect("/progress is valid JSON");
                let rows = workers_of(&doc);
                assert_eq!(rows.len(), threads, "one row per worker slot");
                let running = rows
                    .iter()
                    .filter(|r| {
                        r.get("state") == Some(&Json::Str("running".into()))
                            && uint_field(r, "instructions") > 0
                    })
                    .count();
                if running > 0 {
                    live_polls += 1;
                }
                let (status, body) = http_get(addr, "/spans");
                assert_eq!(status, 200, "/spans answers while running");
                let doc = json::parse(&body).expect("/spans is valid JSON");
                if uint_field(&doc, "total_spans") > 0 {
                    // Mid-run the recorder already serves per-family
                    // quantiles for completed spans.
                    let fams = match doc.get("families") {
                        Some(Json::Arr(rows)) => rows,
                        other => panic!("/spans carries a families array, got {other:?}"),
                    };
                    assert_eq!(fams.len(), Family::ALL.len());
                    if fams.iter().any(|f| {
                        uint_field(f, "count") > 0
                            && uint_field(f, "p999_ns") >= uint_field(f, "p50_ns")
                    }) {
                        live_span_polls += 1;
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            (live_polls, live_span_polls)
        });

        let (rows, _report) = {
            // The sweep root span: worker task spans parent to it.
            let _sweep = wall::span(Family::Sweep);
            parallel_map_observed(names.to_vec(), threads, telemetry.obs(), |name, ctx| {
                let mut m = Machine::new(MachineConfig::four_core_migration());
                let mut w = suite::by_name(name).expect("suite workload");
                match &ctx {
                    Some(c) => m.run_observed(
                        &mut *w,
                        budget,
                        c.worker,
                        c.task,
                        c.tasks_done,
                        BEAT_PERIOD_INSTR,
                    ),
                    None => m.run(&mut *w, budget),
                }
                m.stats().l2_misses
            })
        };
        done.store(true, Ordering::Release);
        let (live_polls, live_span_polls) = scraper.join().expect("scraper thread");
        (rows, live_polls, live_span_polls)
    });
    let run_ns = started.elapsed().as_nanos() as u64;

    assert_eq!(rows.len(), names.len());
    assert!(rows.iter().all(|&misses| misses > 0));

    let hub = telemetry.hub().expect("serving implies a hub");
    assert!(
        live_polls > 0,
        "no /progress poll caught a running worker mid-task"
    );
    let snap = hub.snapshot();
    assert!(snap.all_done(), "every worker reported Done: {snap:?}");
    assert_eq!(snap.total_tasks_done(), names.len() as u64);
    assert_eq!(
        snap.total_instructions(),
        0,
        "Done beats reset per-task counters"
    );
    let overhead = hub.overhead();
    assert!(overhead.beats > 0, "the sweep published beats");
    let verdict = Budget::default().verdict(overhead.total_ns(), run_ns);
    assert!(
        verdict.within,
        "telemetry overhead {:.4} % exceeds the {:.0} % budget",
        verdict.fraction * 100.0,
        verdict.max_fraction * 100.0
    );

    assert!(
        live_span_polls > 0,
        "no /spans poll caught a span family with live quantiles"
    );
    let recorder = telemetry.wall().expect("serving implies a wall");
    let snap = recorder.snapshot();
    for family in [Family::Sweep, Family::Task, Family::Run] {
        let stats = snap.family(family).expect("every family has a row");
        assert!(stats.count > 0, "{} recorded no spans", family.name());
        assert!(stats.p50_ns <= stats.p99_ns && stats.p99_ns <= stats.p999_ns);
    }
    assert_eq!(
        snap.family(Family::Task).map(|f| f.count),
        Some(names.len() as u64),
        "one task span per sweep item"
    );
    let wall_verdict = Budget::default().verdict(recorder.overhead().total_ns(), run_ns);
    assert!(
        wall_verdict.within,
        "wall overhead {:.4} % exceeds the {:.0} % budget",
        wall_verdict.fraction * 100.0,
        wall_verdict.max_fraction * 100.0
    );

    // The other endpoints answer well-formed.
    let (status, health) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "no worker is stalled after the sweep");
    assert!(health.contains("\"status\""));
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("# TYPE execmig_hub_beats_total counter"));
    assert!(metrics.contains("# TYPE execmig_wall_spans_total counter"));
    let (status, spans) = http_get(addr, "/spans");
    assert_eq!(status, 200);
    assert!(spans.contains("\"families\"") && spans.contains("\"budget\""));
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);

    telemetry.finish();
}
