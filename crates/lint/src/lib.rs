//! `bcrdb-lint` — workspace static analysis for determinism and lock
//! ordering.
//!
//! The core safety claim of the system is that every node produces a
//! byte-identical chain, checkpoint hashes, and ledger. That property
//! is enforced dynamically by `tests/pipeline_determinism.rs`, but it
//! is one unordered `HashMap` iteration away from silent divergence.
//! This crate is the static standing guard: a hand-rolled token
//! scanner (no external deps, consistent with the offline
//! `crates/compat` policy) that walks every `crates/*/src/**.rs` file
//! and enforces two rule families:
//!
//! 1. **Determinism** ([`determinism`]) — order-sensitive iteration
//!    over `HashMap`/`HashSet` and wall-clock reads inside the
//!    consensus/commit-path scope, suppressible only via
//!    `// bcrdb-lint: allow(<rule>, reason = "…")`.
//! 2. **Lock order** ([`locks`]) — per-function nested
//!    `lock()`/`read()`/`write()` acquisition sequences, combined into
//!    a cross-crate lock-order graph; any cycle is a finding. The
//!    graph is emitted as a DOT artifact.

#![warn(missing_docs)]

pub mod baseline;
pub mod determinism;
pub mod locks;
pub mod scanner;
pub mod textutil;

use scanner::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file, `/`-separated.
    pub file: String,
    /// 1-based line number (0 for file-level findings such as cycles).
    pub line: usize,
    /// Rule name, e.g. `hash-iter`.
    pub rule: &'static str,
    /// Short human-readable detail; stable across unrelated edits (no
    /// line numbers inside) so it can key the baseline.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.detail
        )
    }
}

/// Full result of a workspace scan.
pub struct Analysis {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// The lock-order graph in DOT form (deterministic ordering).
    pub lock_dot: String,
}

/// Crates whose whole `src/` is in the determinism scope.
const DETERMINISM_CRATES: &[&str] = &["ordering", "txn", "chain", "engine"];
/// Individual files added to the determinism scope.
const DETERMINISM_FILES: &[&str] = &[
    "crates/node/src/processor.rs",
    "crates/node/src/commit/mod.rs",
    // Paged storage: page images, spill/fault, and snapshot carry all
    // feed replicated state hashes, so hash-order iteration or clock
    // reads here diverge across nodes just like commit-path code.
    "crates/storage/src/page.rs",
    "crates/storage/src/pager.rs",
    "crates/storage/src/table.rs",
    "crates/storage/src/persist.rs",
    // Planner statistics feed plan choice, and plans choose the index
    // ranges that double as SSI predicate locks — divergent stats mean
    // divergent abort decisions and divergent chains.
    "crates/storage/src/stats.rs",
];

/// Is this file part of the consensus/commit path the determinism
/// rules guard?
pub fn in_determinism_scope(file: &SourceFile) -> bool {
    DETERMINISM_CRATES.contains(&file.crate_name.as_str())
        || DETERMINISM_FILES.contains(&file.rel.as_str())
}

/// Discover and scan every `crates/<name>/src/**/*.rs` under `root`.
///
/// The single-level `crates/<name>` glob deliberately skips the
/// vendored `crates/compat/*` shims, and only `src/` trees are
/// scanned, so integration tests and benches are out of scope.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let crate_name = dir
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut rs_files = Vec::new();
        collect_rs(&src, &mut rs_files)?;
        rs_files.sort();
        for path in rs_files {
            let raw = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile::scan(path, rel, crate_name.clone(), raw));
        }
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run every rule family over the scanned files.
pub fn analyze(files: &[SourceFile]) -> Analysis {
    let mut findings = Vec::new();
    for file in files {
        if in_determinism_scope(file) {
            determinism::check(file, &mut findings);
        }
    }
    let graph = locks::build_graph(files);
    locks::check(&graph, &mut findings);
    let lock_dot = locks::to_dot(&graph);
    // Unused / malformed allows are findings too, after all rules ran.
    for file in files {
        for a in &file.allows {
            if a.reason.is_empty() {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: a.line,
                    rule: "bad-allow",
                    detail: format!("allow({}) is missing its reason = \"…\"", a.rule),
                });
            } else if !a.used.get() {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: a.line,
                    rule: "unused-allow",
                    detail: format!("allow({}) suppresses nothing", a.rule),
                });
            }
        }
    }
    findings.sort();
    findings.dedup();
    Analysis { findings, lock_dot }
}

/// Convenience: load + analyze in one call.
pub fn analyze_root(root: &Path) -> std::io::Result<Analysis> {
    let files = load_workspace(root)?;
    Ok(analyze(&files))
}
