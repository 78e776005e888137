//! Workspace snapshot tests: the committed artifacts must match a
//! fresh scan, so they can never drift from the code.

use bcrdb_lint::{analyze_root, baseline};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn committed_baseline_matches_fresh_scan() {
    let root = workspace_root();
    let analysis = analyze_root(&root).expect("workspace scan");
    let committed = std::fs::read_to_string(root.join("LINT_BASELINE.txt"))
        .expect("LINT_BASELINE.txt is committed at the workspace root");
    assert_eq!(
        baseline::parse(&baseline::render(&analysis.findings)),
        baseline::parse(&committed),
        "LINT_BASELINE.txt is stale; regenerate with `cargo run -p bcrdb-lint -- --write-baseline`"
    );
}

#[test]
fn workspace_scan_is_clean() {
    // Stronger than the baseline match: the workspace itself carries
    // zero findings — every determinism exception is annotated and the
    // lock graph is acyclic.
    let analysis = analyze_root(&workspace_root()).expect("workspace scan");
    assert!(
        analysis.findings.is_empty(),
        "unannotated findings:\n{}",
        analysis
            .findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn committed_lock_graph_matches_fresh_scan() {
    let root = workspace_root();
    let analysis = analyze_root(&root).expect("workspace scan");
    let committed = std::fs::read_to_string(root.join("LOCK_ORDER.dot"))
        .expect("LOCK_ORDER.dot is committed at the workspace root");
    assert_eq!(
        analysis.lock_dot, committed,
        "LOCK_ORDER.dot is stale; regenerate with `cargo run -p bcrdb-lint -- --dot LOCK_ORDER.dot`"
    );
}
