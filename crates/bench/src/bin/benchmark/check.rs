//! The correctness gate, run after every workload on the same network the
//! load ran on. A failed check names the invariant that broke; the caller
//! adds the workload and the seed, prints no metrics line and exits
//! non-zero.

use bcrdb_common::value::Value;
use bcrdb_node::Node;

use crate::load::PhaseOutcome;
use crate::sut::Sut;
use crate::workload::{Mix, Op, Spec, ACCOUNTS, EVENTS, ITEMS, OPENING_BALANCE, ORDERS};

/// What the clients were told, summed over the phases.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Timed operations that never committed.
    pub failed: u64,
    /// Acknowledged committed inserts (warm-up included): rows the insert
    /// table must hold.
    pub inserts: u64,
    /// Acknowledged committed transfers (warm-up included).
    pub transfers: u64,
    /// Operations that failed anywhere, warm-up included: with any, a
    /// transaction may have committed after its client gave up, so the
    /// exact counts relax to lower bounds.
    pub gave_up: u64,
    /// The first read-only lookup answered with the wrong rows, if any.
    pub wrong_read: Option<String>,
}

impl Tally {
    /// Add one phase; `timed` phases count towards `attempted`/`failed`.
    pub fn add(&mut self, ops: &[Op], phase: &PhaseOutcome, timed: bool) {
        if self.wrong_read.is_none() {
            self.wrong_read.clone_from(&phase.wrong_read);
        }
        for r in &phase.results {
            let op = &ops[r.index as usize];
            if timed {
                self.attempted += 1;
                self.failed += u64::from(!r.ok);
            }
            self.gave_up += u64::from(!r.ok);
            if r.ok {
                self.inserts += u64::from(op.is_insert());
                self.transfers += u64::from(matches!(op, Op::Transfer { .. }));
            }
        }
    }
}

fn count(node: &Node, sql: &str) -> Result<i64, String> {
    let rows = node
        .query(sql, &[])
        .map_err(|e| format!("{}: `{sql}`: {e}", node.config.name))?;
    match rows.scalar() {
        Some(Value::Int(n)) => Ok(*n),
        // SUM/COUNT over no rows.
        Some(Value::Null) | None => Ok(0),
        Some(other) => Err(format!("{}: `{sql}` returned {other:?}", node.config.name)),
    }
}

/// Check `actual` against what the clients were told: exact when no
/// client ever gave up on a transaction, a lower bound otherwise.
fn expect(
    what: &str,
    node: &Node,
    actual: i64,
    acknowledged: u64,
    gave_up: u64,
) -> Result<(), String> {
    let ok = if gave_up == 0 {
        actual == acknowledged as i64
    } else {
        actual >= acknowledged as i64 && actual <= (acknowledged + gave_up) as i64
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} holds {actual}, clients were acknowledged {acknowledged} \
             (gave up on {gave_up})",
            node.config.name
        ))
    }
}

/// Run every invariant that applies to `spec`.
pub fn gate(sut: &Sut, spec: &Spec, tally: &Tally) -> Result<(), String> {
    if let Some(wrong) = &tally.wrong_read {
        return Err(format!("read result: {wrong}"));
    }
    replicas_agree(sut)?;
    for node in sut.nodes() {
        // `bench_tx` is the insert contract of either mix: the one-row
        // INSERT, or the complex join writing its result row.
        let table = match spec.mix {
            Mix::Simple => "bench_simple",
            Mix::Mixed => "bench_results",
        };
        // Primary keys make a duplicate insert impossible, so the row
        // count equalling the acknowledged commits is "exactly once".
        let rows = count(&node, &format!("SELECT COUNT(*) FROM {table}"))?;
        expect(
            "insert-table row count",
            &node,
            rows,
            tally.inserts,
            tally.gave_up,
        )?;
        let ledger = count(
            &node,
            "SELECT COUNT(*) FROM ledger WHERE status = 'committed' AND contract = 'bench_tx'",
        )?;
        expect(
            "ledger commit count",
            &node,
            ledger,
            tally.inserts,
            tally.gave_up,
        )?;
        if spec.mix == Mix::Mixed {
            let transfers = count(
                &node,
                "SELECT COUNT(*) FROM ledger WHERE status = 'committed' AND contract = 'transfer'",
            )?;
            expect(
                "ledger transfer count",
                &node,
                transfers,
                tally.transfers,
                tally.gave_up,
            )?;
            let sum = count(&node, "SELECT SUM(balance) FROM accounts")?;
            if sum != ACCOUNTS * OPENING_BALANCE {
                return Err(format!(
                    "balance conservation: {} sums to {sum}, expected {}",
                    node.config.name,
                    ACCOUNTS * OPENING_BALANCE
                ));
            }
            for (table, rows) in [
                ("bench_items", ITEMS),
                ("bench_orders", ORDERS),
                ("accounts", ACCOUNTS),
                ("events", EVENTS),
            ] {
                let n = count(&node, &format!("SELECT COUNT(*) FROM {table}"))?;
                if n != rows {
                    return Err(format!(
                        "seeded row count: {} holds {n} rows of {table}, expected {rows}",
                        node.config.name
                    ));
                }
            }
        }
    }
    Ok(())
}

/// All nodes at one height with identical block hashes and state hashes.
fn replicas_agree(sut: &Sut) -> Result<(), String> {
    let nodes = sut.nodes();
    let reference = &nodes[0];
    for node in &nodes {
        if node.is_halted() {
            return Err(format!("replica halted: {}", node.config.name));
        }
        if node.height() != reference.height() {
            return Err(format!(
                "replica height: {} at {}, {} at {}",
                node.config.name,
                node.height(),
                reference.config.name,
                reference.height()
            ));
        }
        if node.blockstore.tip_hash() != reference.blockstore.tip_hash() {
            return Err(format!(
                "block hash: {} and {} differ at height {}",
                node.config.name,
                reference.config.name,
                node.height()
            ));
        }
    }
    let reference_state = reference.state_hash();
    for node in &nodes[1..] {
        if node.state_hash() != reference_state {
            return Err(format!(
                "state hash: {} and {} differ at height {}",
                node.config.name,
                reference.config.name,
                node.height()
            ));
        }
    }
    Ok(())
}

/// Crash one node and bring it back from its data directory: it must
/// replay to the same state hash the survivors hold. Run between phases
/// on the durable workload (after `low`, while the chain is still short
/// enough for the replay to cost well under a second), so the later
/// phases and the final gate also cover a node that has been restarted.
pub fn restart_keeps_state(sut: &Sut) -> Result<(), String> {
    sut.converge().map_err(|e| format!("restart: {e}"))?;
    let before = sut.nodes()[0].state_hash();
    let height = sut.nodes()[0].height();
    sut.stop_node().map_err(|e| format!("restart: stop: {e}"))?;
    let node = sut
        .rejoin_node()
        .map_err(|e| format!("restart: rejoin: {e}"))?;
    if node.height() != height {
        return Err(format!(
            "restart: {} came back at height {}, the network is at {height}",
            node.config.name,
            node.height()
        ));
    }
    if node.state_hash() != before {
        return Err(format!(
            "restart: {} recovered a different state hash at height {height}",
            node.config.name
        ));
    }
    Ok(())
}
