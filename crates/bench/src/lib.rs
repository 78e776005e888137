//! # bcrdb-bench
//!
//! What measures bcrdb, beside the repo benchmark (`BENCHMARK.json`,
//! `src/bin/benchmark/`): the paper's evaluation contracts
//! ([`contracts`]), one open/closed-loop driver ([`harness`]) and the
//! `reproduce` binary, a table of the paper's §5 experiments that prints
//! for each its claim, our rows and whether the shape matches.
//!
//! Absolute throughput differs from the paper (their testbed: 32-vCPU
//! Xeon VMs running modified PostgreSQL; ours: an in-process simulator),
//! so the reproduction target is the *shape*: which flow wins, by what
//! rough factor, and where the crossovers fall. `docs/REPRODUCTION.md`
//! is the committed paper-vs-measured record.

pub mod contracts;
pub mod harness;

pub use contracts::{Workload, WorkloadKind};
pub use harness::{run_batch, run_open_loop, seed_genesis_rows, BenchNetwork, RunStats};
