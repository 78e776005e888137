//! The repo benchmark (`BENCHMARK.json`): four saturating workloads, the
//! end-to-end metrics a user of bcrdb would see, a per-layer budget and a
//! traced run. See `README.md` beside this file.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1|FILE   one run, one JSON result line
//! benchmark [--seed N] [--seconds S] [--trace DIR]               all workloads, untraced + traced
//! benchmark --repeat K [--seed N] [--seconds S]                  K same-commit sets: A/A spreads and bounds
//! ```

mod check;
mod faults;
mod host;
mod json;
mod load;
mod names;
mod probes;
mod run;
mod stats;
mod suite;
mod sut;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`: the measured seconds of one run.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// The seed a run uses when none is given (recorded in `README.md`).
pub const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
#[derive(Clone, Debug, Default)]
pub struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<String>,
    repeat: Option<usize>,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => args.trace = Some(value()?),
            "--repeat" => {
                args.repeat = Some(value()?.parse().map_err(|_| "--repeat takes a count")?)
            }
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The commit-path mode switches are not the benchmark's to set: whatever
/// the caller's shell exports, every run measures the defaults.
fn clear_mode_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BCRDB_") {
            std::env::remove_var(key);
        }
    }
}

/// Durable state and default trace files live beside the running binary,
/// i.e. inside the build directory of whichever checkout built it.
pub fn scratch_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("benchmark-data")
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The header every result is read against.
pub fn header(seed: u64, seconds: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# bcrdb benchmark: nproc={nproc} rustc=\"{}\" commit={} seed={seed} seconds={seconds}",
        command_output("rustc", &["-V"]),
        command_output("git", &["rev-parse", "--short", "HEAD"]),
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    clear_mode_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1|FILE] \
                 [--repeat K] [--quick]\nworkloads:"
            );
            for spec in &workload::SPECS {
                eprintln!("  {:<18} {}", spec.name, spec.why);
            }
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = match (args.seconds, args.quick) {
        (Some(s), _) => s,
        (None, true) => suite::QUICK_SECONDS,
        (None, false) => DEFAULT_SECONDS,
    };

    let Some(name) = &args.workload else {
        return suite::run(&args, seed, seconds);
    };
    let Some(spec) = workload::spec(name) else {
        eprintln!("error: unknown workload {name}");
        return ExitCode::from(2);
    };
    let (traced, spans_path) = match args.trace.as_deref() {
        None | Some("0") => (false, None),
        Some("1") => (true, None),
        Some(file) => (true, Some(PathBuf::from(file))),
    };
    eprintln!("{}", header(seed, seconds));
    let opts = run::Options {
        spec,
        seed,
        seconds,
        traced,
        spans_path,
        data_dir: scratch_dir().join(format!("{}-{}", spec.name, std::process::id())),
    };
    match run::run(&opts, process_start) {
        Ok(report) => {
            for note in &report.notes {
                eprintln!("# {note}");
            }
            println!("{}", suite::result_line(&report, traced));
            ExitCode::SUCCESS
        }
        Err(broken) => {
            let _ = std::fs::remove_dir_all(&opts.data_dir);
            eprintln!(
                "CORRECTNESS FAILURE workload={} seed={seed}: {broken}",
                spec.name
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn command_line_of_the_driver_parses() {
        let a = args(&[
            "--workload",
            "eo-simple-tcp",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("eo-simple-tcp"));
        assert_eq!(a.seed, Some(42));
        assert_eq!(a.seconds, Some(20.0));
        assert_eq!(a.trace.as_deref(), Some("1"));
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(workload::spec("eo-simple-tcp").is_some());
        assert!(workload::spec("nope").is_none());
    }

    #[test]
    fn result_line_is_one_json_object_with_every_listed_metric() {
        let mut report = run::Report {
            attempted: 10,
            failed: 1,
            ..Default::default()
        };
        report.set("setup_s", 1.25);
        for traced in [false, true] {
            let line = suite::result_line(&report, traced);
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).expect("result line is JSON");
            let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = doc.get("metrics").and_then(json::Json::as_object).unwrap();
            let list = if traced {
                names::PER_LAYER
            } else {
                names::END_TO_END
            };
            assert_eq!(metrics.len(), list.len());
            for (name, unit, _) in list {
                let m = &metrics[*name];
                assert!(m.get("value").and_then(json::Json::as_f64).is_some());
                assert_eq!(m.get("unit").and_then(json::Json::as_str), Some(*unit));
            }
        }
    }

    /// `--quick`: all four workloads plus the correctness gate end to end,
    /// and one traced run with its span file. An unoptimised build is
    /// several times slower than the frozen rates assume, so there the
    /// phases shrink to a third and `eo-mixed-paged` is left to
    /// `cargo test --release` (its 100,000-row seeding alone outlasts the
    /// 30 s operation timeout): the gate is what this test is for, the
    /// numbers are not for use either way.
    #[test]
    fn quick_mode_drives_every_workload_end_to_end() {
        let started = Instant::now();
        let seconds = if cfg!(debug_assertions) {
            suite::QUICK_SECONDS / 3.0
        } else {
            suite::QUICK_SECONDS
        };
        let dir = scratch_dir().join(format!("quick-test-{}", std::process::id()));
        let options = |spec: &'static workload::Spec, traced: bool| run::Options {
            spec,
            seed: 7,
            seconds,
            traced,
            spans_path: traced.then(|| dir.join("spans.json")),
            data_dir: dir.join(spec.name),
        };
        for spec in &workload::SPECS {
            if cfg!(debug_assertions) && spec.mix == workload::Mix::Mixed {
                continue;
            }
            let report = run::run(&options(spec, false), Instant::now())
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(report.attempted > 0, "{}", spec.name);
            for (name, _, _) in names::END_TO_END {
                let value = report.metrics.get(*name);
                assert!(
                    value.is_some_and(|v| *v > 0.0),
                    "{} {name}: {value:?}",
                    spec.name
                );
            }
        }
        let spec = &workload::SPECS[1];
        let report = run::run(&options(spec, true), Instant::now())
            .unwrap_or_else(|e| panic!("{} traced: {e}", spec.name));
        for name in [
            "node.replay_tps",
            "ordering.order_wait_p50_ms",
            "network.frame_rtt_us",
        ] {
            assert!(report.get(name) > 0.0, "{name}");
        }
        let spans = std::fs::read_to_string(dir.join("spans.json")).expect("span file");
        let doc = json::parse(&spans).expect("span file is JSON");
        assert!(!doc
            .get("spans")
            .and_then(json::Json::as_array)
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
        // About 40 s on the quiet reference host; no assertion, because a
        // wall-clock limit on a shared host fails for the host's reasons.
        eprintln!("--quick end to end took {:?}", started.elapsed());
    }
}
