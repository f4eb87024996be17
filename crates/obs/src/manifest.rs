//! Run manifests: one JSON artefact per experiment run recording
//! everything needed to reproduce it — the binary, its arguments, the
//! full configuration, workload seed, instruction budget, wall-clock,
//! crate version, and the run's headline statistics.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::{Json, ToJson};

/// A started wall clock, stamped into a manifest by
/// [`RunManifest::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed.
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// A reproducibility record for one experiment run.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Binary (or experiment) name.
    pub binary: String,
    /// Workspace crate version.
    pub crate_version: String,
    /// Command-line arguments (without argv\[0\]).
    pub args: Vec<String>,
    /// Full experiment configuration.
    pub config: Json,
    /// Workload seed, when the experiment draws randomness.
    pub workload_seed: Option<u64>,
    /// Instruction budget, when the experiment simulates a machine.
    pub instruction_budget: Option<u64>,
    /// Wall-clock duration of the run, seconds.
    pub wall_seconds: f64,
    /// Headline statistics of the run (tier-1 stats, row counts, …).
    pub stats: Json,
    /// Unix time (ms) when the manifest was finalised.
    pub finished_unix_ms: u64,
}

impl RunManifest {
    /// Starts a manifest for `binary`, capturing the process arguments
    /// and crate version.
    pub fn new(binary: &str) -> Self {
        RunManifest {
            binary: binary.to_string(),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            args: std::env::args().skip(1).collect(),
            config: Json::Null,
            workload_seed: None,
            instruction_budget: None,
            wall_seconds: 0.0,
            stats: Json::Null,
            finished_unix_ms: 0,
        }
    }

    /// Stamps wall-clock and completion time from `started`.
    pub fn finish(&mut self, started: &Stopwatch) {
        self.wall_seconds = started.elapsed_seconds();
        self.finished_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
    }

    /// Writes the manifest as pretty JSON to `dir/<binary>.json`,
    /// creating `dir` if needed. Returns the path written.
    pub fn write_under(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.binary));
        std::fs::write(&path, self.to_json().pretty() + "\n")?;
        Ok(path)
    }
}

impl ToJson for RunManifest {
    fn to_json(&self) -> Json {
        Json::object()
            .field("binary", &self.binary)
            .field("crate_version", &self.crate_version)
            .field("args", &self.args)
            .field("config", &self.config)
            .field("workload_seed", self.workload_seed)
            .field("instruction_budget", self.instruction_budget)
            .field("wall_seconds", self.wall_seconds)
            .field("stats", &self.stats)
            .field("finished_unix_ms", self.finished_unix_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trip_fields() {
        let mut m = RunManifest::new("table2");
        m.config = Json::object().field("cores", 4u64);
        m.workload_seed = Some(7);
        m.instruction_budget = Some(1_000_000);
        m.stats = Json::object().field("rows", 12u64);
        let sw = Stopwatch::start();
        m.finish(&sw);
        let j = m.to_json();
        assert_eq!(j.get("binary"), Some(&Json::Str("table2".into())));
        assert_eq!(j.get("workload_seed"), Some(&Json::UInt(7)));
        assert_eq!(j.get("instruction_budget"), Some(&Json::UInt(1_000_000)));
        assert_eq!(
            j.get("config").and_then(|c| c.get("cores")),
            Some(&Json::UInt(4))
        );
        assert!(m.finished_unix_ms > 0);
        assert_eq!(m.crate_version, env!("CARGO_PKG_VERSION"));
    }

    #[test]
    fn writes_a_file() {
        let dir = std::env::temp_dir().join("execmig-obs-manifest-test");
        let m = RunManifest::new("unit_test_run");
        let path = m.write_under(&dir).expect("write manifest");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains("\"binary\": \"unit_test_run\""));
        std::fs::remove_file(path).ok();
    }
}
