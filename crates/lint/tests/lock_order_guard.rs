//! Lock-order guards beyond the global acyclicity check: lock sites
//! pinned to a position in the workspace lock graph because a nested
//! acquisition there is one refactor away from a deadlock.

use bcrdb_lint::{load_workspace, locks};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn lock_graph_is_acyclic() {
    let files = load_workspace(&workspace_root()).expect("workspace scan");
    let graph = locks::build_graph(&files);
    let mut findings = Vec::new();
    locks::check(&graph, &mut findings);
    assert!(
        findings.is_empty(),
        "lock-order cycle:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The buffer pool's innermost lock sites. `storage::latch` guards the
/// frame table and clock hand; `storage::disk` guards one page file's
/// fd + journal. Faults and write-back take them *last* — a heap
/// `slots` lock is routinely held around both (`fault`, `spill`), so
/// acquiring any further lock while holding them would couple the
/// commit path to the eviction path and is one refactor away from an
/// ABBA deadlock against a concurrent fault.
const POOL_LOCKS: &[&str] = &["storage::latch", "storage::disk"];

#[test]
fn buffer_pool_locks_never_wrap_another_lock() {
    let files = load_workspace(&workspace_root()).expect("workspace scan");
    let graph = locks::build_graph(&files);
    // The pool locks exist under their pinned names (guards against a
    // rename silently retiring this test)...
    let pager_src = files
        .iter()
        .find(|f| f.rel == "crates/storage/src/pager.rs")
        .expect("pager.rs is part of the workspace");
    for key in POOL_LOCKS {
        let field = key.split("::").nth(1).unwrap();
        assert!(
            pager_src.raw.contains(&format!("{field}.lock()")),
            "pager.rs no longer takes `{field}.lock()`; update POOL_LOCKS"
        );
    }
    // ...and are strictly leaf acquisitions: incoming edges are fine
    // (the `files` directory and heap locks wrap them), outgoing edges
    // are not — nothing may be acquired while a pool lock is held.
    let offending: Vec<String> = graph
        .edges
        .iter()
        .filter(|((a, _), _)| POOL_LOCKS.contains(&a.as_str()))
        .map(|((a, b), (file, line))| format!("{a} -> {b} at {file}:{line}"))
        .collect();
    assert!(
        offending.is_empty(),
        "a lock is acquired while a buffer-pool lock is held:\n  {}",
        offending.join("\n  ")
    );
}
