//! Turns segments into named metrics, and metrics into the result line.

use std::time::Duration;

use crate::e2e::{Cfg, Item, Outcome, Pass, Replay, Run, Sim, Traced};

// Per-layer metrics that only some workloads exercise (the L1 filter,
// one machine configuration, the controller) read 0 elsewhere: no time
// went there.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples the value summarises.
    pub samples: usize,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        samples,
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// The median of `xs` (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank `q`-quantile of sorted `xs` (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The successful outcomes of `runs`.
fn outcomes(runs: &[Run]) -> impl Iterator<Item = (&Item, &Outcome)> {
    runs.iter()
        .filter_map(|r| r.result.as_ref().ok().map(|o| (&r.item, o)))
}

/// The end-to-end metrics of an untraced run, from its segments. Host
/// noise only slows a segment down, so the timings take the fastest
/// segments: `sim_mips` is the fastest segment's throughput,
/// `run_ns_per_instr_p50` the median over runs of each run's fastest
/// segment. `setup_s` is the median set-up.
///
/// # Panics
///
/// Panics if `passes` is empty or their run lists differ in length.
pub fn end_to_end(setups: &[Duration], passes: &[Pass], peak_rss_mb: f64) -> Vec<Metric> {
    let setup: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let mips = passes
        .iter()
        .map(|p| {
            let instr: u64 = p.runs.iter().map(|r| r.retired).sum();
            per(instr as f64, p.wall.as_secs_f64()) / 1e6
        })
        .fold(0.0, f64::max);
    let runs = passes[0].runs.len();
    let per_run: Vec<f64> = (0..runs)
        .filter_map(|i| {
            passes
                .iter()
                .map(|p| &p.runs[i])
                .filter(|r| r.result.is_ok() && r.retired > 0)
                .map(|r| ns(r.host) / r.retired as f64)
                .reduce(f64::min)
        })
        .collect();
    vec![
        metric("setup_s", "s", median(&setup), setup.len()),
        metric("sim_mips", "Minstr/s", mips, passes.len()),
        metric(
            "run_ns_per_instr_p50",
            "ns",
            if per_run.is_empty() {
                0.0
            } else {
                median(&per_run)
            },
            runs * passes.len(),
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb, 1),
    ]
}

/// Simulated counters summed over the runs of one configuration.
#[derive(Default)]
struct CfgTotals {
    runs: usize,
    instructions: u64,
    il1_misses: u64,
    dl1_misses: u64,
    l2_misses: u64,
    l2_forwards: u64,
    invalidations: u64,
    updates: u64,
    update_bus_bytes: u64,
    coherence_bus_bytes: u64,
    migrations: u64,
    l1_requests: u64,
    affinity_hits: u64,
    affinity_misses: u64,
}

/// The per-layer metrics of a traced run: the untraced segments for
/// the runner and the overhead baseline, the traced sweep for the
/// layers, and the controller replays.
///
/// # Panics
///
/// Panics if `untraced` is empty or its length differs from the
/// traced sweep's segment count.
pub fn per_layer(untraced: &[Pass], traced: &Traced, replays: &[Replay]) -> Vec<Metric> {
    assert_eq!(untraced.len(), traced.segments.len(), "segments pair up");
    let wall = ns(traced.wall());
    let runs = traced.runs.len();
    let kinstr = |n: u64, instr: u64| per(n as f64, instr as f64) * 1000.0;

    let (mut l1_runs, mut l1_instr, mut accesses, mut il1, mut dl1) = (0, 0, 0, 0, 0);
    let mut cfgs: [CfgTotals; 4] = Default::default();
    for (item, o) in outcomes(&traced.runs) {
        match (item.sim, o) {
            (
                Sim::L1Filter,
                Outcome::L1 {
                    instructions,
                    accesses: a,
                    il1_misses,
                    dl1_misses,
                },
            ) => {
                l1_runs += 1;
                l1_instr += instructions;
                accesses += a;
                il1 += il1_misses;
                dl1 += dl1_misses;
            }
            (
                Sim::Machine(cfg),
                Outcome::Machine {
                    stats: s, affinity, ..
                },
            ) => {
                let t = &mut cfgs[cfg as usize];
                t.runs += 1;
                t.instructions += s.instructions;
                t.il1_misses += s.il1_misses;
                t.dl1_misses += s.dl1_misses;
                t.l2_misses += s.l2_misses;
                t.l2_forwards += s.l2_to_l2_forwards;
                t.invalidations += s.invalidations;
                t.updates += s.coherence_updates;
                t.update_bus_bytes += s.bus.update_bus_bytes();
                t.coherence_bus_bytes += s.coherence_bus_bytes;
                t.migrations += s.migrations;
                t.l1_requests += s.l1_requests;
                t.affinity_hits += affinity.hits;
                t.affinity_misses += affinity.misses;
            }
            _ => unreachable!("a run's outcome matches its item"),
        }
    }

    let task: Duration = untraced.iter().flat_map(|p| &p.runs).map(|r| r.host).sum();
    let untraced_wall: f64 = untraced.iter().map(|p| ns(p.wall)).sum();
    let instr: u64 = outcomes(&traced.runs).map(|(_, o)| o.instructions()).sum();
    let (fill, events) = (ns(traced.fill), traced.events as f64);
    let filter = ns(traced.filter);
    let machine = ns(traced.machine());
    let machine_runs: usize = cfgs.iter().map(|t| t.runs).sum();
    let mut blocks = traced.block_ns.clone();
    blocks.sort_unstable();
    let mut m: Vec<Metric> = [
        (
            "runner.overhead_pct",
            "%",
            per(untraced_wall - ns(task), untraced_wall) * 100.0,
            untraced.len(),
        ),
        ("trace.fill_block_s", "s", fill / 1e9, runs),
        ("trace.ns_per_event", "ns", per(fill, events), runs),
        ("trace.share_pct", "%", per(fill, wall) * 100.0, runs),
        (
            "trace.events_per_kinstr",
            "count",
            per(events, instr as f64) * 1000.0,
            runs,
        ),
        ("l1filter.filter_s", "s", filter / 1e9, l1_runs),
        (
            "l1filter.ns_per_access",
            "ns",
            per(filter, accesses as f64),
            l1_runs,
        ),
        (
            "l1filter.share_pct",
            "%",
            per(filter, wall) * 100.0,
            l1_runs,
        ),
        (
            "l1filter.il1_mpki",
            "1/kinstr",
            kinstr(il1, l1_instr),
            l1_runs,
        ),
        (
            "l1filter.dl1_mpki",
            "1/kinstr",
            kinstr(dl1, l1_instr),
            l1_runs,
        ),
        ("machine.run_block_s", "s", machine / 1e9, machine_runs),
        (
            "machine.share_pct",
            "%",
            per(machine, wall) * 100.0,
            machine_runs,
        ),
        (
            "machine.block_us_p50",
            "us",
            quantile(&blocks, 0.50) / 1e3,
            blocks.len(),
        ),
        (
            "machine.block_us_p99",
            "us",
            quantile(&blocks, 0.99) / 1e3,
            blocks.len(),
        ),
    ]
    .into_iter()
    .map(|(name, unit, value, n)| metric(name, unit, value, n))
    .collect();

    for cfg in Cfg::ALL {
        let t = &cfgs[cfg as usize];
        let pki = |n: u64| kinstr(n, t.instructions);
        let per_instr = |n: u64| per(n as f64, t.instructions as f64);
        for (what, unit, value) in [
            (
                "ns_per_instr",
                "ns",
                per(ns(traced.run_block[cfg as usize]), t.instructions as f64),
            ),
            ("il1_mpki", "1/kinstr", pki(t.il1_misses)),
            ("dl1_mpki", "1/kinstr", pki(t.dl1_misses)),
            ("l2_mpki", "1/kinstr", pki(t.l2_misses)),
            ("l2_forwards_pki", "1/kinstr", pki(t.l2_forwards)),
            ("invalidations_pki", "1/kinstr", pki(t.invalidations)),
            ("updates_pki", "1/kinstr", pki(t.updates)),
            (
                "update_bus_bytes_per_instr",
                "B/instr",
                per_instr(t.update_bus_bytes),
            ),
            (
                "coherence_bus_bytes_per_instr",
                "B/instr",
                per_instr(t.coherence_bus_bytes),
            ),
            (
                "migrations_per_minstr",
                "1/Minstr",
                per_instr(t.migrations) * 1e6,
            ),
        ] {
            m.push(metric(
                format!("machine.{}.{what}", cfg.name()),
                unit,
                value,
                t.runs,
            ));
        }
    }

    // The controller layer: four-core configurations only.
    let four = || Cfg::ALL.into_iter().filter(|c| c.four_core());
    let sum = |f: fn(&CfgTotals) -> u64| four().map(|c| f(&cfgs[c as usize])).sum::<u64>();
    let requests = sum(|t| t.l1_requests);
    let (hits, misses) = (sum(|t| t.affinity_hits), sum(|t| t.affinity_misses));
    let four_block: Duration = four().map(|c| traced.run_block[c as usize]).sum();
    let replayed: u64 = replays.iter().map(|r| r.requests).sum();
    let replay_ns: f64 = replays.iter().map(|r| ns(r.replay)).sum();
    let ns_per_request = per(replay_ns, replayed as f64);
    let mismatches: u64 = replays.iter().map(|r| r.mismatches).sum();
    // Like for like: each traced segment against the untraced segment
    // that covered the same instructions; the median resists a burst
    // of host load on either side.
    let overhead: Vec<f64> = untraced
        .iter()
        .zip(&traced.segments)
        .map(|(u, &t)| per(ns(t) - ns(u.wall), ns(u.wall)))
        .collect();
    let n = replays.len();
    m.extend(
        [
            (
                "core.requests_per_kinstr",
                "count",
                kinstr(requests, sum(|t| t.instructions)),
                n,
            ),
            ("core.ns_per_request", "ns", ns_per_request, n),
            (
                "core.affinity_miss_rate",
                "fraction",
                per(misses as f64, (hits + misses) as f64),
                n,
            ),
            (
                "core.share_pct",
                "%",
                per(ns_per_request * requests as f64, ns(four_block)) * 100.0,
                n,
            ),
            ("core.replay_mismatches", "count", mismatches as f64, n),
            (
                "ledger.residual_pct",
                "%",
                per((wall - ns(traced.accounted())).abs(), wall) * 100.0,
                runs,
            ),
            (
                "ledger.trace_overhead_pct",
                "%",
                median(&overhead) * 100.0,
                overhead.len(),
            ),
        ]
        .into_iter()
        .map(|(name, unit, value, n)| metric(name, unit, value, n)),
    );
    m
}

/// The benchmark's last output line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[metric("setup_s", "s", 0.25, 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
