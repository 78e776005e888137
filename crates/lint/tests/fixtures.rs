//! Fixture-tree tests: each directory under `fixtures/` is a miniature
//! workspace; the analyzer must produce exactly the expected findings.

use bcrdb_lint::{analyze_root, Finding};
use std::path::PathBuf;

fn run(fixture: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    analyze_root(&root).expect("fixture scan").findings
}

#[test]
fn clean_fixture_has_no_findings() {
    let out = run("clean");
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn hash_iter_fixture_is_flagged() {
    let out = run("hash_iter");
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "hash-iter");
    assert!(out[0].detail.contains("votes.iter()"), "{out:?}");
}

#[test]
fn wall_clock_fixture_is_flagged() {
    let out = run("wall_clock");
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "wall-clock");
}

#[test]
fn suppressed_fixture_is_clean() {
    let out = run("suppressed");
    assert!(out.is_empty(), "annotated findings must not fire: {out:?}");
}

#[test]
fn lock_cycle_fixture_is_flagged() {
    let out = run("lock_cycle");
    assert!(
        out.iter().any(|f| f.rule == "lock-cycle"),
        "ABBA must be a cycle: {out:?}"
    );
    let cycle = out.iter().find(|f| f.rule == "lock-cycle").unwrap();
    assert!(cycle.detail.contains("ordering::alpha"), "{cycle:?}");
    assert!(cycle.detail.contains("ordering::beta"), "{cycle:?}");
}
