//! The ordering service cuts a block as soon as a majority of the
//! database nodes have voted for the last one (DESIGN.md "Block
//! cutting"). A test that needs a transaction to *stay* in flight, or two
//! to share a block, takes that clock away.

use std::sync::Arc;

use bcrdb::node::{Node, NodeHooks};

/// Stop `nodes` from sending checkpoint votes: with nobody to hear from,
/// their network cuts by size and timeout only, as the paper's does.
pub fn withhold_votes(nodes: &[Arc<Node>]) {
    for node in nodes {
        node.set_hooks(NodeHooks {
            submit_checkpoint: None,
            ..node.hooks()
        });
    }
}
