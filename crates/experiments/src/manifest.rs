//! Run-manifest emission shared by every experiment binary.
//!
//! Each binary records *what ran* — config, workload scaling flags,
//! wall clock, crate version, and headline stats — as
//! `manifests/<binary>.json`, so a result directory is reproducible on
//! its own. Opt out with `--no-manifest`; redirect with
//! `--manifest-dir DIR`.

use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use execmig_obs::{Json, ToJson};

use crate::report::{arg_flag, arg_value};

/// Collects a binary's manifest fields over its run and writes them as
/// JSON on [`ManifestEmitter::write`].
#[derive(Debug)]
pub struct ManifestEmitter {
    binary: String,
    /// Command-line arguments (without argv\[0\]).
    args: Vec<String>,
    /// Full experiment configuration.
    config: Json,
    /// Workload seed, when the experiment draws randomness.
    workload_seed: Option<u64>,
    /// Instruction budget, when the experiment simulates a machine.
    instruction_budget: Option<u64>,
    /// Headline statistics of the run (tier-1 stats, row counts, …).
    stats: Json,
    started: Instant,
    dir: Option<PathBuf>,
}

impl ManifestEmitter {
    /// Starts the wall clock, honouring `--no-manifest` and
    /// `--manifest-dir DIR` in `args`, which the manifest records.
    pub fn start(binary: &str, args: &[String]) -> ManifestEmitter {
        let dir = if arg_flag(args, "--no-manifest") {
            None
        } else {
            Some(PathBuf::from(
                arg_value(args, "--manifest-dir").unwrap_or_else(|| "manifests".to_string()),
            ))
        };
        ManifestEmitter {
            binary: binary.to_string(),
            args: args.to_vec(),
            config: Json::Null,
            workload_seed: None,
            instruction_budget: None,
            stats: Json::Null,
            started: Instant::now(),
            dir,
        }
    }

    /// Records the full experiment configuration.
    pub fn config(&mut self, config: &impl ToJson) {
        self.config = config.to_json();
    }

    /// Records the workload seed.
    pub fn seed(&mut self, seed: u64) {
        self.workload_seed = Some(seed);
    }

    /// Records the instruction (or reference) budget.
    pub fn budget(&mut self, budget: u64) {
        self.instruction_budget = Some(budget);
    }

    /// Records headline statistics.
    pub fn stats(&mut self, stats: Json) {
        self.stats = stats;
    }

    /// The manifest as of now: the binary, crate version, arguments,
    /// configuration, workload seed, instruction budget, wall-clock
    /// seconds since [`start`](Self::start), headline statistics and
    /// the Unix time in ms, in that key order (`obs_diff` skips the
    /// volatile ones by name).
    fn to_json(&self) -> Json {
        let finished_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Json::object()
            .field("binary", &self.binary)
            .field("crate_version", env!("CARGO_PKG_VERSION"))
            .field("args", &self.args)
            .field("config", &self.config)
            .field("workload_seed", self.workload_seed)
            .field("instruction_budget", self.instruction_budget)
            .field("wall_seconds", self.started.elapsed().as_secs_f64())
            .field("stats", &self.stats)
            .field("finished_unix_ms", finished_unix_ms)
    }

    /// Stamps the wall clock and writes `dir/<binary>.json` as pretty
    /// JSON, creating `dir` if needed (unless suppressed), reporting the
    /// path — or the failure — on stderr.
    pub fn write(self) {
        let Some(dir) = &self.dir else {
            return;
        };
        let path = dir.join(format!("{}.json", self.binary));
        let body = self.to_json().pretty() + "\n";
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => eprintln!("manifest: {}", path.display()),
            Err(e) => eprintln!("manifest: write failed under {}: {e}", dir.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_manifest_flag_suppresses_output() {
        let em = ManifestEmitter::start("unit", &strings(&["--no-manifest"]));
        assert!(em.dir.is_none());
        em.write(); // must not create anything
        assert!(!std::path::Path::new("manifests/unit.json").exists());
    }

    #[test]
    fn manifest_dir_is_honoured() {
        let dir = std::env::temp_dir().join("execmig-manifest-emitter-test");
        let args = strings(&["--manifest-dir", dir.to_str().unwrap()]);
        let mut em = ManifestEmitter::start("emitter_unit", &args);
        em.config(&Json::object().field("cores", 4u64));
        em.seed(7);
        em.budget(1000);
        em.stats(Json::object().field("rows", 3u64));
        em.write();
        let path = dir.join("emitter_unit.json");
        let body = std::fs::read_to_string(&path).expect("manifest written");
        assert!(body.contains("\"binary\": \"emitter_unit\""));
        assert!(body.contains("\"workload_seed\": 7"));
        assert!(body.contains("\"instruction_budget\": 1000"));
        std::fs::remove_file(path).ok();
    }

    /// `obs_diff` skips `wall_seconds`, `finished_unix_ms`,
    /// `crate_version` and `args` by name, and readers see the keys in
    /// this order.
    #[test]
    fn manifest_keys_keep_their_order() {
        let args = strings(&["--no-manifest", "--instr", "5"]);
        let em = ManifestEmitter::start("unit", &args);
        let Json::Obj(fields) = em.to_json() else {
            panic!("a manifest renders as a JSON object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "binary",
                "crate_version",
                "args",
                "config",
                "workload_seed",
                "instruction_budget",
                "wall_seconds",
                "stats",
                "finished_unix_ms"
            ]
        );
        assert_eq!(fields[1].1, Json::Str(env!("CARGO_PKG_VERSION").into()));
        assert_eq!(fields[2].1, args.to_json());
    }
}
