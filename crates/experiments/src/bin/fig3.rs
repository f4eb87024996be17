//! Regenerates Figure 3: affinity snapshots on Circular and
//! HalfRandom(300), N = 4000, |R| = 100, at t = 20k/100k/1000k.
//!
//! Usage: `fig3 [--buckets N] [--protocol migration|mesi|dragon]
//!               [--csv] [--json] [--no-manifest]
//!               [--manifest-dir DIR] [--serve-telemetry ADDR]`
//!
//! Figure 3 models the affinity algorithm alone (no Machine is built),
//! so `--protocol` does not change any number; it is validated and
//! recorded in the manifest for uniform sweep drivers.

use execmig_experiments::fig3::{bucket_means, run, Fig3Config};
use execmig_experiments::manifest::ManifestEmitter;
use execmig_experiments::report::{arg_flag, arg_protocol, arg_u64};
use execmig_experiments::runner::parallel_map_observed;
use execmig_experiments::telemetry::Telemetry;
use execmig_obs::{Json, ToJson};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let buckets = arg_u64(&args, "--buckets", 40) as usize;
    let csv = arg_flag(&args, "--csv");
    let json = arg_flag(&args, "--json");
    let telemetry = Telemetry::from_args(&args, 2);
    let mut em = ManifestEmitter::start("fig3", &args);
    let mut stream_stats = Vec::new();

    let configs = vec![Fig3Config::circular(), Fig3Config::half_random()];
    let (results, _report) = {
        // The sweep root span: runner tasks parent to it across threads.
        let _sweep = execmig_obs::wall::span(execmig_obs::Family::Sweep);
        parallel_map_observed(configs.clone(), 2, telemetry.obs(), |config, _ctx| {
            run(config)
        })
    };
    telemetry.finish();

    for (config, result) in configs.into_iter().zip(results) {
        let label = match config.stream {
            execmig_experiments::fig3::Fig3Stream::Circular => "Circular".to_string(),
            execmig_experiments::fig3::Fig3Stream::HalfRandom { m } => {
                format!("HalfRandom({m})")
            }
        };
        if let Some(last) = result.snapshots.last() {
            stream_stats.push(
                Json::object()
                    .field("stream", &label)
                    .field("t", last.t)
                    .field("positive_fraction", last.positive_fraction)
                    .field("transition_rate", last.transition_rate),
            );
        }
        if json {
            println!("{}", result.to_json().compact());
            continue;
        }
        println!("== Figure 3 — {label}, N=4000, |R|=100 ==");
        for snap in &result.snapshots {
            println!(
                "t={:<8} positive fraction {:.3}, transitions/ref {:.5} (paper: optimal 1/2000 circular, 1/300 half-random)",
                snap.t, snap.positive_fraction, snap.transition_rate
            );
            if csv {
                for (e, a) in snap.affinities.iter().enumerate() {
                    if let Some(a) = a {
                        println!("{label},{},{},{}", snap.t, e, a);
                    }
                }
            } else {
                // Terminal rendition: mean affinity per element bucket.
                let means = bucket_means(snap, buckets);
                let max = means.iter().map(|m| m.abs()).fold(1.0f64, f64::max);
                let bar: String = means
                    .iter()
                    .map(|&m| {
                        let v = m / max;
                        if v > 0.66 {
                            '#'
                        } else if v > 0.15 {
                            '+'
                        } else if v >= -0.15 {
                            '.'
                        } else if v >= -0.66 {
                            '-'
                        } else {
                            '='
                        }
                    })
                    .collect();
                println!("  affinity sign by element bucket: [{bar}]");
            }
        }
        println!();
    }
    em.config(
        &Json::object()
            .field("buckets", buckets)
            .field("streams", ["Circular", "HalfRandom(300)"])
            .field("protocol", arg_protocol(&args)),
    );
    em.stats(Json::object().field("final_snapshots", stream_stats));
    em.write();
}
