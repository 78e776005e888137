//! CI bench-regression gate: compare a fresh `BENCH_smoke.json` against
//! the committed `BENCH_baseline.json` and fail the build (exit 1) when
//! a tracked metric regressed beyond the tolerance.
//!
//! Usage: `bench_compare [baseline.json] [current.json]`
//! (defaults: `BENCH_baseline.json`, `BENCH_smoke.json`).
//!
//! Tracked metrics and directions:
//!
//! * `pipeline.speedup` — pipelined vs serial-baseline blocks/s; must
//!   not drop more than the tolerance;
//! * `pipeline.pipelined_commit_p95_ms` — p95 of the serial commit
//!   stage of the pipelined run; must not grow more than
//!   the tolerance plus a fixed 1 ms grace (the usual 250 ms duration
//!   slack would swamp a sub-millisecond percentile);
//! * `catch_up.duration_ms` — must not grow more than the tolerance;
//! * `failover.resume_ms` — must not grow more than the tolerance;
//! * `storage.cold_rows_per_s` — full-scan throughput with every heap
//!   segment faulted from its slotted-page file through the buffer
//!   pool; must not drop more than the tolerance;
//! * `storage.hot_rows_per_s` — the same scan once the segments are
//!   resident again; must not drop more than the tolerance;
//! * `analytics.seq_rows_per_s` / `analytics.join_rows_per_s` —
//!   sequential-aggregate and sort-merge-join throughput of the
//!   cost-based planner's engine-level analytics phase; must not drop
//!   more than the tolerance;
//! * `analytics.union_speedup` — index-union point lookups vs the
//!   forced full-scan shape the old heuristic produced for every `OR`
//!   predicate; carries an absolute floor of 2.0 on top of the
//!   baseline-relative check, so the planner must beat the old plan by
//!   at least 2x regardless of baseline drift;
//! * `analytics.covering_speedup` — covering-index aggregate vs the
//!   heap-faulting index scan the old planner always produced; floor
//!   1.05 — covering must never be slower than faulting the heap;
//! * `analytics.ssi_abort_rate` — abort rate of a contention workload
//!   whose transaction pairs are serializable exactly when predicate
//!   locks are index-narrow (§4.3 read-set shrinkage); 0.0 by design,
//!   so it gets a fixed 0.05 absolute grace instead of a relative
//!   tolerance (which is meaningless on a zero baseline).
//!
//! The tolerance defaults to ±20% (`BENCH_TOLERANCE`, a fraction).
//! Millisecond metrics additionally get a small absolute slack
//! (`BENCH_SLACK_MS`, default 250 ms) so scheduler jitter on loaded CI
//! runners cannot fail the gate on a sub-second measurement; rates and
//! ratios get no slack. Improvements never fail the gate — they print a
//! hint to refresh the baseline.
//!
//! The JSON is the fixed shape `bench_smoke` emits, so parsing is a
//! dependency-free scan: find the section object, then the key's number.
//! Because the parse is positional rather than schema-validated, the
//! gate first checks the report's `schema` tag against the version this
//! binary was written for — a `bench_smoke` shape change that lands
//! without a matching `bench_compare` update fails the build instead of
//! silently mis-reading (or skipping) metrics.

use std::process::ExitCode;

/// The `bench_smoke` report schema this gate understands. Bump in the
/// same commit as the `"schema"` tag in `bench_smoke.rs` — CI fails on
/// any mismatch.
const EXPECTED_SCHEMA: &str = "bcrdb-bench-smoke-v8";

/// Extract the top-level `"schema": "<tag>"` string from `json`.
fn extract_schema(json: &str) -> Option<&str> {
    let key_at = json.find("\"schema\"")?;
    let tail = &json[key_at + "\"schema\"".len()..];
    let colon = tail.find(':')?;
    let rest = tail[colon + 1..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extract `"section": { ... "key": <number> ... }` from `json`.
fn extract(json: &str, section: &str, key: &str) -> Option<f64> {
    let sec_pat = format!("\"{section}\"");
    let sec_at = json.find(&sec_pat)?;
    let body = &json[sec_at + sec_pat.len()..];
    // The section's value must itself be an object: a skipped phase
    // (`"section": null` under BENCH_PHASES) must not fall through to
    // the next section's braces.
    if body
        .trim_start_matches([':', ' ', '\n'])
        .starts_with("null")
    {
        return None;
    }
    let open = body.find('{')?;
    let close = body[open..].find('}')? + open;
    let obj = &body[open..=close];
    let key_pat = format!("\"{key}\"");
    let key_at = obj.find(&key_pat)?;
    let tail = &obj[key_at + key_pat.len()..];
    let colon = tail.find(':')?;
    let num: String = tail[colon + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One gated metric. `higher_is_better` decides the regression direction;
/// `slack` is an absolute grace added on top of the relative tolerance;
/// `floor` is an absolute minimum (higher-is-better gates only) that
/// applies regardless of the baseline — a relative tolerance alone
/// would let a requirement like "union_speedup ≥ 2" erode one baseline
/// refresh at a time.
struct Gate {
    section: &'static str,
    key: &'static str,
    higher_is_better: bool,
    slack: f64,
    floor: Option<f64>,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args.next().unwrap_or_else(|| "BENCH_baseline.json".into());
    let current_path = args.next().unwrap_or_else(|| "BENCH_smoke.json".into());
    let tolerance = env_f64("BENCH_TOLERANCE", 0.20);
    let slack_ms = env_f64("BENCH_SLACK_MS", 250.0);

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_compare: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let current = match std::fs::read_to_string(&current_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_compare: cannot read current run {current_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Schema handshake before any metric parse (see module docs).
    for (label, path, json) in [
        ("baseline", &baseline_path, &baseline),
        ("current run", &current_path, &current),
    ] {
        match extract_schema(json) {
            Some(s) if s == EXPECTED_SCHEMA => {}
            Some(s) => {
                eprintln!(
                    "bench_compare: {label} {path} has schema \"{s}\", this gate expects \
                     \"{EXPECTED_SCHEMA}\" — update bench_compare (and refresh the baseline) \
                     in the same commit as the bench_smoke schema bump"
                );
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("bench_compare: {label} {path} has no \"schema\" tag");
                return ExitCode::FAILURE;
            }
        }
    }

    let gates = [
        Gate {
            section: "pipeline",
            key: "speedup",
            higher_is_better: true,
            slack: 0.0,
            floor: None,
        },
        Gate {
            section: "pipeline",
            key: "pipelined_commit_p95_ms",
            higher_is_better: false,
            // Sub-millisecond percentile: the 250 ms scheduler slack
            // would swamp it, so it gets a fixed 1 ms grace instead.
            // The gate exists to catch the commit stage regressing to
            // multi-millisecond, not to police scheduler noise.
            slack: 1.0,
            floor: None,
        },
        Gate {
            section: "catch_up",
            key: "duration_ms",
            higher_is_better: false,
            slack: slack_ms,
            floor: None,
        },
        Gate {
            section: "failover",
            key: "resume_ms",
            higher_is_better: false,
            slack: slack_ms,
            floor: None,
        },
        Gate {
            section: "storage",
            key: "cold_rows_per_s",
            higher_is_better: true,
            slack: 0.0,
            floor: None,
        },
        Gate {
            section: "storage",
            key: "hot_rows_per_s",
            higher_is_better: true,
            slack: 0.0,
            floor: None,
        },
        Gate {
            section: "analytics",
            key: "seq_rows_per_s",
            higher_is_better: true,
            slack: 0.0,
            floor: None,
        },
        Gate {
            section: "analytics",
            key: "union_speedup",
            higher_is_better: true,
            slack: 0.0,
            floor: Some(2.0),
        },
        Gate {
            section: "analytics",
            key: "covering_speedup",
            higher_is_better: true,
            slack: 0.0,
            floor: Some(1.05),
        },
        Gate {
            section: "analytics",
            key: "join_rows_per_s",
            higher_is_better: true,
            slack: 0.0,
            floor: None,
        },
        Gate {
            section: "analytics",
            key: "ssi_abort_rate",
            higher_is_better: false,
            // The baseline is 0.0, so the relative tolerance is inert;
            // the absolute grace is the whole gate. A planner
            // regression to scan-wide predicate locks aborts one
            // transaction per contention round (rate 0.5) and trips it.
            slack: 0.05,
            floor: None,
        },
    ];

    println!(
        "bench_compare: {current_path} vs {baseline_path} (tolerance ±{:.0}%, slack {slack_ms} ms)",
        tolerance * 100.0
    );
    let mut regressions = 0;
    let mut improvements = 0;
    for g in &gates {
        let name = format!("{}.{}", g.section, g.key);
        let Some(base) = extract(&baseline, g.section, g.key) else {
            // A baseline missing a metric (e.g. recorded before the
            // metric existed) skips that gate instead of failing —
            // refresh the baseline to arm it.
            println!("  {name:<24} SKIP (not in baseline)");
            continue;
        };
        let Some(new) = extract(&current, g.section, g.key) else {
            eprintln!("  {name:<24} FAIL (missing from current run)");
            regressions += 1;
            continue;
        };
        let (bound, ok, better) = if g.higher_is_better {
            let mut bound = base * (1.0 - tolerance) - g.slack;
            if let Some(floor) = g.floor {
                bound = bound.max(floor);
            }
            (bound, new >= bound, new > base)
        } else {
            let bound = base * (1.0 + tolerance) + g.slack;
            (bound, new <= bound, new < base)
        };
        let verdict = if ok { "ok" } else { "REGRESSION" };
        println!("  {name:<24} base {base:>9.1}  new {new:>9.1}  bound {bound:>9.1}  {verdict}");
        if !ok {
            regressions += 1;
        } else if better && (new - base).abs() > base * tolerance {
            improvements += 1;
        }
    }

    if improvements > 0 {
        println!(
            "note: {improvements} metric(s) improved beyond the tolerance — consider \
             refreshing BENCH_baseline.json"
        );
    }
    if regressions > 0 {
        eprintln!(
            "bench_compare: {regressions} regression(s) beyond the ±{:.0}% tolerance",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("bench_compare: all gates passed");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "bcrdb-bench-smoke-v8",
  "pipeline": { "serial_bps": 45.0, "pipelined_bps": 150.0, "speedup": 3.3, "pipelined_commit_p95_ms": 0.41 },
  "catch_up": { "blocks_fetched": 4, "committed": 13, "duration_ms": 423.55, "fast_sync": false },
  "failover": { "committed": 20, "resume_ms": 512.01, "view_changes": 1 },
  "storage": { "rows": 8193, "spilled_segments": 8, "cold_rows_per_s": 510000.5, "hot_rows_per_s": 2400000.0, "pages_written": 280, "pages_read": 280, "pages_evicted": 216, "pool_hit_rate": 0.4321 },
  "analytics": { "fact_rows": 20000, "seq_rows_per_s": 9100000.0, "union_lookups_per_s": 81000.0, "fullscan_or_lookups_per_s": 420.0, "union_speedup": 192.86, "covering_lookups_per_s": 30000.0, "heap_lookups_per_s": 21000.0, "covering_speedup": 1.429, "join_rows_per_s": 2100000.0, "contention_txns": 400, "ssi_abort_rate": 0.0 }
}"#;

    #[test]
    fn schema_tag_roundtrips() {
        // The sample report is the schema this binary expects; if this
        // assertion fails, the SAMPLE fixture missed a schema bump.
        assert_eq!(extract_schema(SAMPLE), Some(EXPECTED_SCHEMA));
        assert_eq!(extract_schema("{}"), None);
        assert_eq!(
            extract_schema(r#"{ "schema": "bcrdb-bench-smoke-v4" }"#),
            Some("bcrdb-bench-smoke-v4")
        );
    }

    #[test]
    fn smoke_binary_source_emits_the_expected_schema() {
        // Satellite guard: a schema bump in bench_smoke.rs without a
        // matching bench_compare update must fail before CI does.
        let smoke_src = include_str!("bench_smoke.rs");
        assert!(
            smoke_src.contains(&format!("\\\"schema\\\": \\\"{EXPECTED_SCHEMA}\\\"")),
            "bench_smoke.rs no longer emits \"{EXPECTED_SCHEMA}\" — bump EXPECTED_SCHEMA \
             in bench_compare.rs and refresh BENCH_baseline.json in the same commit"
        );
    }

    #[test]
    fn extracts_nested_numbers() {
        assert_eq!(extract(SAMPLE, "pipeline", "speedup"), Some(3.3));
        assert_eq!(
            extract(SAMPLE, "pipeline", "pipelined_commit_p95_ms"),
            Some(0.41)
        );
        assert_eq!(extract(SAMPLE, "catch_up", "duration_ms"), Some(423.55));
        assert_eq!(extract(SAMPLE, "failover", "resume_ms"), Some(512.01));
        assert_eq!(extract(SAMPLE, "failover", "view_changes"), Some(1.0));
        assert_eq!(
            extract(SAMPLE, "storage", "cold_rows_per_s"),
            Some(510000.5)
        );
        assert_eq!(
            extract(SAMPLE, "storage", "hot_rows_per_s"),
            Some(2400000.0)
        );
        assert_eq!(extract(SAMPLE, "storage", "pool_hit_rate"), Some(0.4321));
        assert_eq!(extract(SAMPLE, "analytics", "union_speedup"), Some(192.86));
        assert_eq!(
            extract(SAMPLE, "analytics", "covering_speedup"),
            Some(1.429)
        );
        assert_eq!(
            extract(SAMPLE, "analytics", "join_rows_per_s"),
            Some(2100000.0)
        );
        assert_eq!(extract(SAMPLE, "analytics", "ssi_abort_rate"), Some(0.0));
        assert_eq!(extract(SAMPLE, "nope", "speedup"), None);
        assert_eq!(extract(SAMPLE, "pipeline", "nope"), None);
    }

    #[test]
    fn skipped_null_section_is_missing_not_misread() {
        // A BENCH_PHASES run writes `"pipeline": null`; the lookup must
        // not fall through into the next section's object.
        let json = r#"{
  "schema": "bcrdb-bench-smoke-v4",
  "pipeline": null,
  "catch_up": { "duration_ms": 423.55, "speedup": 99.0 }
}"#;
        assert_eq!(extract(json, "pipeline", "speedup"), None);
        assert_eq!(extract(json, "catch_up", "duration_ms"), Some(423.55));
    }

    #[test]
    fn key_lookup_stays_inside_the_section() {
        // "committed" appears in two sections; each lookup must resolve
        // within its own object.
        assert_eq!(extract(SAMPLE, "catch_up", "committed"), Some(13.0));
        assert_eq!(extract(SAMPLE, "failover", "committed"), Some(20.0));
    }
}
