//! The system under test: one `Network` or one `TcpCluster`, configured
//! from a [`Spec`] through the public configuration structs only. Every
//! field not set here keeps the `NetworkConfig::quick` /
//! `ClusterSpec::new` default — in particular the commit-path mode
//! switches are never named, so deleting one does not touch this file.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use bcrdb_common::error::{Error, Result};
use bcrdb_core::{Client, ClusterSpec, Network, NetworkConfig, TcpCluster};
use bcrdb_network::NetProfile;
use bcrdb_node::Node;
use bcrdb_ordering::{OrderingConfig, OrderingService};

use crate::workload::{
    genesis_sql, Spec, Storage, Transport, BLOCK_SIZE, BLOCK_TIMEOUT, EXECUTOR_THREADS,
    POOL_FRAMES, SPILL_RETENTION,
};

/// How long any single wait on the system may take before the operation
/// counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// The organization crashed and rejoined by the fault schedule and by the
/// durable restart check.
pub const CRASH_ORG: &str = "org3";

enum Deployment {
    Sim(Network),
    Tcp(TcpCluster),
}

/// A running deployment of one workload.
pub struct Sut {
    deployment: Deployment,
    orgs: Vec<String>,
    data_root: Option<PathBuf>,
}

impl Sut {
    /// Build and start the deployment `spec` describes; durable state goes
    /// under `dir` (which must be empty or absent).
    pub fn build(spec: &Spec, dir: &Path) -> Result<Sut> {
        let data_root = match spec.storage {
            Storage::Memory => None,
            Storage::DurableFsync | Storage::Paged => {
                std::fs::create_dir_all(dir)?;
                Some(dir.to_path_buf())
            }
        };
        let deployment = match spec.transport {
            Transport::InProcess => {
                let orgs = ["org1", "org2", "org3"];
                let mut cfg = NetworkConfig::quick(&orgs, spec.flow);
                cfg.ordering = if spec.bft_faults {
                    let mut ord = OrderingConfig::bft(4, BLOCK_SIZE, BLOCK_TIMEOUT);
                    ord.bft_msg_cost = Duration::from_micros(50);
                    ord.view_change_timeout = Duration::from_millis(300);
                    cfg.gap_timeout = Duration::from_millis(300);
                    ord
                } else {
                    OrderingConfig::kafka(orgs.len(), BLOCK_SIZE, BLOCK_TIMEOUT)
                };
                if spec.lan {
                    cfg.net_profile = NetProfile::lan();
                }
                cfg.executor_threads = EXECUTOR_THREADS;
                cfg.genesis_sql = Some(genesis_sql(spec));
                cfg.data_root = data_root.clone();
                match spec.storage {
                    Storage::Memory => {}
                    Storage::DurableFsync => cfg.fsync = true,
                    Storage::Paged => {
                        cfg.paged = true;
                        cfg.buffer_pool_frames = POOL_FRAMES;
                        cfg.spill_retention = SPILL_RETENTION;
                    }
                }
                Deployment::Sim(Network::build(cfg)?)
            }
            Transport::Tcp => {
                let mut cluster = ClusterSpec::new(&["org1", "org2", "org3", "org4"], spec.flow);
                cluster.genesis_sql = Some(genesis_sql(spec));
                cluster.block_size = BLOCK_SIZE;
                cluster.block_timeout = BLOCK_TIMEOUT;
                Deployment::Tcp(TcpCluster::launch(cluster, data_root.clone())?)
            }
        };
        let orgs = match &deployment {
            Deployment::Sim(net) => net.config().orgs.clone(),
            Deployment::Tcp(cluster) => cluster.spec().orgs.clone(),
        };
        Ok(Sut {
            deployment,
            orgs,
            data_root,
        })
    }

    /// The `i`-th load connection: user `bench<i>` of organization
    /// `i mod orgs`, one transport connection of its own.
    pub fn client(&self, i: usize) -> Result<Client> {
        let org = &self.orgs[i % self.orgs.len()];
        let user = ClusterSpec::bench_user(i);
        match &self.deployment {
            Deployment::Sim(net) => net.client(org, &user),
            Deployment::Tcp(cluster) => cluster.client(org, &user),
        }
    }

    /// Node handles in organization order (re-read after a rejoin).
    pub fn nodes(&self) -> Vec<Arc<Node>> {
        match &self.deployment {
            Deployment::Sim(net) => net.nodes(),
            Deployment::Tcp(cluster) => cluster.nodes(),
        }
    }

    /// The ordering service.
    pub fn ordering(&self) -> &Arc<OrderingService> {
        match &self.deployment {
            Deployment::Sim(net) => net.ordering(),
            Deployment::Tcp(cluster) => cluster.ordering(),
        }
    }

    /// Wait until every node committed and post-committed the highest
    /// height any node or the ordering service has reached.
    pub fn converge(&self) -> Result<()> {
        let head = self
            .nodes()
            .iter()
            .map(|n| n.height())
            .max()
            .unwrap_or_default()
            .max(self.ordering().height());
        match &self.deployment {
            Deployment::Sim(net) => net.await_height(head, OP_TIMEOUT),
            Deployment::Tcp(cluster) => cluster.await_height(head, OP_TIMEOUT),
        }
    }

    /// Crash [`CRASH_ORG`]'s node (in-process deployments only).
    pub fn stop_node(&self) -> Result<()> {
        self.sim()?.stop_node(CRASH_ORG)
    }

    /// Restart [`CRASH_ORG`]'s node and catch it up; returns the node.
    pub fn rejoin_node(&self) -> Result<Arc<Node>> {
        self.sim()?.rejoin_node(CRASH_ORG)
    }

    fn sim(&self) -> Result<&Network> {
        match &self.deployment {
            Deployment::Sim(net) => Ok(net),
            Deployment::Tcp(_) => Err(Error::Config(
                "node crash/rejoin is driven on in-process deployments only".into(),
            )),
        }
    }

    /// Bytes under the data root (0 for in-memory deployments).
    pub fn disk_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        self.data_root.as_deref().map(walk).unwrap_or(0)
    }

    /// Stop every component and delete the data root.
    pub fn shutdown(self) {
        match &self.deployment {
            Deployment::Sim(net) => net.shutdown(),
            Deployment::Tcp(cluster) => cluster.shutdown(),
        }
        if let Some(root) = &self.data_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}
