//! The whole-suite modes: every workload in a child process of its own
//! (so `peak_rss_mb` is per workload), untraced then traced; and the
//! `--repeat K` A/A tool that derives the regression bounds.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Json};
use crate::names::{END_TO_END, PER_LAYER};
use crate::run::Report;
use crate::stats::{proposed_bound, spread, MAX_BOUND};
use crate::workload::SPECS;
use crate::Args;

/// `--quick`: measured seconds per run (numbers not for use).
pub const QUICK_SECONDS: f64 = 3.0;

/// The one-line JSON result of a run: every end-to-end metric of an
/// untraced run, every per-layer metric of a traced one. Values keep all
/// their digits.
pub fn result_line(report: &Report, traced: bool) -> String {
    let list = if traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit, _)| {
            let value = report.get(name);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// One child run; `Ok` carries its parsed result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", trace])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {workload} run exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {workload} run printed no result"))?;
    json::parse(last).map_err(|e| format!("the {workload} result line: {e}"))
}

fn metric_values(doc: &Json) -> BTreeMap<String, f64> {
    doc.get("metrics")
        .and_then(Json::as_object)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

fn print_metrics(list: &[(&str, &str, &str)], values: &BTreeMap<String, f64>) {
    for (name, unit, _) in list {
        if let Some(v) = values.get(*name) {
            println!("  {name:<34} {v:>16.4} {unit}");
        }
    }
}

/// Run the suite (or, with `--repeat`, the A/A sets).
pub fn run(args: &Args, seed: u64, seconds: f64) -> ExitCode {
    println!("{}", crate::header(seed, seconds));
    if args.quick {
        println!("# --quick: short phases, numbers not for use");
    }
    if let Some(k) = args.repeat {
        return repeat(k.max(2), seed, seconds);
    }
    let spans_dir = args.trace.as_ref().map(PathBuf::from);
    let mut failed = false;
    for spec in &SPECS {
        println!("\n== {} ==", spec.name);
        match child(spec.name, seed, seconds, "0") {
            Ok(doc) => {
                println!(
                    "  attempted {} failed {}",
                    doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
                    doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0)
                );
                print_metrics(END_TO_END, &metric_values(&doc));
            }
            Err(e) => {
                println!("  FAILED (untraced): {e}");
                failed = true;
                continue;
            }
        }
        let trace_arg = spans_dir.as_ref().map_or("1".to_string(), |d| {
            d.join(format!("{}.spans.json", spec.name))
                .to_string_lossy()
                .into_owned()
        });
        match child(spec.name, seed, seconds, &trace_arg) {
            Ok(doc) => print_metrics(PER_LAYER, &metric_values(&doc)),
            Err(e) => {
                println!("  FAILED (traced): {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// What the worst workload's spread means for the metric's bound in
/// `BENCHMARK.json`.
fn verdict(worst_iqr: f64, worst_bound: f64) -> String {
    if worst_iqr > MAX_BOUND {
        format!("IQR/median {worst_iqr:.2} cannot be held within 25 %: demote to per-layer")
    } else if worst_bound > MAX_BOUND {
        format!("{MAX_BOUND:.2}  (the cap; 3 x IQR would be {worst_bound:.2}, so less than 3 x head room)")
    } else {
        format!("{worst_bound:.2}  (3 x the worst workload's IQR/median, floor 0.10)")
    }
}

/// K same-commit sets back to back, each set with a seed of its own; per
/// metric × workload the median, quartiles, `(max − min)/median` and the
/// bound that spread implies.
fn repeat(k: usize, seed: u64, seconds: f64) -> ExitCode {
    let mut values: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for set in 0..k {
        for (w, spec) in SPECS.iter().enumerate() {
            match child(spec.name, seed + set as u64, seconds, "0") {
                Ok(doc) => {
                    let m = metric_values(&doc);
                    for (i, (name, _, _)) in END_TO_END.iter().enumerate() {
                        if let Some(v) = m.get(*name) {
                            values.entry((i, w)).or_default().push(*v);
                        }
                    }
                    eprintln!("# set {} of {k}: {} done", set + 1, spec.name);
                }
                Err(e) => {
                    println!("FAILED set {} {}: {e}", set + 1, spec.name);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "\n# A/A over {k} sets (seeds {seed}..{}), {seconds} s per run",
        seed + k as u64 - 1
    );
    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>12} {:>9} {:>9} {:>7}",
        "metric", "workload", "median", "q1", "q3", "iqr/med", "range/med", "bound"
    );
    for (i, (name, _, _)) in END_TO_END.iter().enumerate() {
        let (mut worst_iqr, mut worst_bound): (f64, f64) = (0.0, 0.0);
        for (w, spec) in SPECS.iter().enumerate() {
            let Some(s) = values.get(&(i, w)).and_then(|v| spread(v)) else {
                continue;
            };
            let bound = proposed_bound(&s);
            worst_iqr = worst_iqr.max(s.iqr_share);
            worst_bound = worst_bound.max(bound);
            println!(
                "{:<20} {:<18} {:>12.4} {:>12.4} {:>12.4} {:>9.4} {:>9.4} {:>7.2}",
                name, spec.name, s.median, s.q1, s.q3, s.iqr_share, s.range_share, bound
            );
        }
        println!("{name:<20} => {}", verdict(worst_iqr, worst_bound));
    }
    ExitCode::SUCCESS
}
