//! The benchmark's command line. Every flag is declared here; an
//! unknown flag, a repeated flag, a missing value, an unknown workload
//! or a malformed number is an error the binary reports with usage
//! and exit code 2.

use crate::e2e::Scenario;

/// Usage text printed with every command-line error.
pub const USAGE: &str = "usage: benchmark --workload <table2|coherence|l1_stream> \
[--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]";

/// The seconds a run measures when `--seconds` is absent: the length
/// at which every workload runs its canonical per-run budget.
pub const DEFAULT_SECONDS: u64 = 15;

/// A checked command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub scenario: Scenario,
    /// Input seed (0 = the canonical streams).
    pub seed: u64,
    /// Target length of the measured pass.
    pub seconds: u64,
    /// Drive the layers one by one and report per-layer metrics.
    pub trace: bool,
}

/// Parses the arguments after the program name.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Args, String> {
    let mut scenario = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let v = value()?;
                let s = Scenario::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?;
                set_once(&mut scenario, flag, s)?;
            }
            "--seed" => set_once(&mut seed, flag, number(flag, value()?)?)?,
            "--seconds" => {
                let n = number(flag, value()?)?;
                if !(1..=600).contains(&n) {
                    return Err(format!("--seconds must be in 1..=600, got {n}"));
                }
                set_once(&mut seconds, flag, n)?;
            }
            "--trace" => {
                let t = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
                set_once(&mut trace, flag, t)?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        scenario: scenario.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

fn number(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} takes a non-negative integer, got {v:?}"))
}

fn set_once<T>(slot: &mut Option<T>, flag: &str, v: T) -> Result<(), String> {
    if slot.replace(v).is_some() {
        return Err(format!("flag {flag} given twice"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_command_line() {
        let a = parse(&[
            "--workload",
            "coherence",
            "--seed",
            "42",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            a,
            Args {
                scenario: Scenario::Coherence,
                seed: 42,
                seconds: 3,
                trace: true,
            }
        );
    }

    #[test]
    fn defaults() {
        let a = parse(&["--workload", "table2"]).expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (0, DEFAULT_SECONDS, false));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            &["--workload", "tabel2"][..],
            &["--workload", "table2", "--sed", "1"],
            &["--workload", "table2", "--seed", "1e3"],
            &["--workload", "table2", "--seed", "-1"],
            &["--workload", "table2", "--seconds", "0"],
            &["--workload", "table2", "--trace", "yes"],
            &["--workload", "table2", "--seed"],
            &["--workload", "table2", "--workload", "table2"],
            &["--seed", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
