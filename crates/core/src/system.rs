//! System smart contracts and network bootstrap (§3.7).
//!
//! Every node exposes the deploy family at startup:
//!
//! * `create_deploytx(id, sql)` — stage a DDL statement (CREATE/REPLACE/
//!   DROP FUNCTION, CREATE TABLE/INDEX) in the deployment table;
//! * `approve_deploytx(id)` / `reject_deploytx(id, reason)` /
//!   `comment_deploytx(id, text)` — per-organization votes, recorded
//!   on-chain;
//! * `submit_deploytx(id)` — verifies that an admin of **every**
//!   organization approved, then executes the staged DDL.
//!
//! Plus user management (`create_usertx`, `delete_usertx`) which registers
//! or revokes certificates as part of the committed transaction. All
//! system contracts are admin-only and flow through ordinary blockchain
//! transactions, so the network keeps an immutable audit trail of
//! deployments and approvals.

use std::sync::Arc;

use bcrdb_common::error::{AbortReason, Error, Result};
use bcrdb_common::schema::{Column, DataType, TableSchema};
use bcrdb_common::value::Value;
use bcrdb_crypto::identity::{Certificate, PublicKey, Role};
use bcrdb_crypto::mss::MssPublicKey;
use bcrdb_crypto::sha256::sha256;
use bcrdb_engine::access::AccessPolicy;
use bcrdb_engine::exec::{CatalogOp, Executor, StatementEffect};
use bcrdb_node::exec_pool::NativeCtx;
use bcrdb_node::Node;
use bcrdb_sql::ast::Statement;
use bcrdb_storage::index::KeyRange;
use bcrdb_txn::context::{ScanPlan, VisibleRow};

/// Names of the system contracts.
pub const SYSTEM_CONTRACTS: [&str; 7] = [
    "create_deploytx",
    "approve_deploytx",
    "reject_deploytx",
    "comment_deploytx",
    "submit_deploytx",
    "create_usertx",
    "delete_usertx",
];

/// Create the system tables and register the native system contracts on a
/// node. Called identically on every node before the first block, so the
/// bootstrap state is part of the deterministic genesis (§3.7).
pub fn bootstrap_node(node: &Node) -> Result<()> {
    let catalog = node.catalog();
    if !catalog.contains("deployments") {
        catalog.create_table(TableSchema::new(
            "deployments",
            vec![
                Column::new("id", DataType::Int),
                Column::new("sql", DataType::Text),
                Column::new("creator", DataType::Text),
                Column::new("status", DataType::Text),
            ],
            vec![0],
        )?)?;
    }
    if !catalog.contains("deployment_votes") {
        let mut schema = TableSchema::new(
            "deployment_votes",
            vec![
                Column::new("id", DataType::Text),
                Column::new("deploy_id", DataType::Int),
                Column::new("org", DataType::Text),
                Column::new("vote", DataType::Text),
                Column::nullable("detail", DataType::Text),
            ],
            vec![0],
        )?;
        schema.add_index("votes_deploy_idx", "deploy_id")?;
        catalog.create_table(schema)?;
    }
    if !catalog.contains("network_users") {
        catalog.create_table(TableSchema::new(
            "network_users",
            vec![
                Column::new("name", DataType::Text),
                Column::new("org", DataType::Text),
                Column::new("role", DataType::Text),
                Column::new("status", DataType::Text),
            ],
            vec![0],
        )?)?;
    }

    node.register_native("create_deploytx", Arc::new(create_deploytx));
    node.register_native("approve_deploytx", Arc::new(approve_deploytx));
    node.register_native("reject_deploytx", Arc::new(reject_deploytx));
    node.register_native("comment_deploytx", Arc::new(comment_deploytx));
    node.register_native("submit_deploytx", Arc::new(submit_deploytx));
    node.register_native("create_usertx", Arc::new(create_usertx));
    node.register_native("delete_usertx", Arc::new(delete_usertx));
    for name in SYSTEM_CONTRACTS {
        node.access().set_policy(name, AccessPolicy::AdminOnly);
    }
    Ok(())
}

fn arg_int(args: &[Value], i: usize, what: &str) -> Result<i64> {
    args.get(i)
        .ok_or_else(|| Error::Analysis(format!("missing argument {what}")))?
        .as_i64()
        .map_err(|_| Error::Type(format!("argument {what} must be an integer")))
}

fn arg_text<'a>(args: &'a [Value], i: usize, what: &str) -> Result<&'a str> {
    args.get(i)
        .ok_or_else(|| Error::Analysis(format!("missing argument {what}")))?
        .as_str()
        .map_err(|_| Error::Type(format!("argument {what} must be text")))
}

fn find_deployment(nc: &NativeCtx<'_>, id: i64) -> Result<(Arc<bcrdb_storage::Table>, VisibleRow)> {
    let table = nc.catalog.get("deployments")?;
    let rows = nc
        .ctx
        .scan(&table, &ScanPlan::index(0, KeyRange::eq(Value::Int(id))))?;
    let row = rows
        .into_iter()
        .next()
        .ok_or_else(|| Error::NotFound(format!("deployment {id}")))?;
    Ok((table, row))
}

/// `create_deploytx(id INT, sql TEXT)` — stage a DDL statement (§3.7 #1).
fn create_deploytx(nc: &NativeCtx<'_>) -> Result<Vec<StatementEffect>> {
    let id = arg_int(nc.args, 0, "deployment id")?;
    let sql = arg_text(nc.args, 1, "sql")?;
    // The statement must parse and be DDL; execution is deferred to
    // submit_deploytx.
    let stmt = bcrdb_sql::parse_statement(sql)?;
    if !matches!(
        stmt,
        Statement::CreateFunction(_)
            | Statement::DropFunction { .. }
            | Statement::CreateTable { .. }
            | Statement::CreateIndex { .. }
            | Statement::DropTable { .. }
    ) {
        return Err(Error::Analysis(
            "deployment transactions may only stage DDL statements".into(),
        ));
    }
    let table = nc.catalog.get("deployments")?;
    nc.ctx.insert(
        &table,
        vec![
            Value::Int(id),
            Value::Text(sql.to_string()),
            Value::Text(nc.invoker.name.clone()),
            Value::Text("pending".into()),
        ],
    )?;
    Ok(vec![])
}

fn record_vote(
    nc: &NativeCtx<'_>,
    deploy_id: i64,
    vote: &str,
    detail: Option<&str>,
    unique_suffix: Option<&str>,
) -> Result<()> {
    // Existence check keeps votes tied to staged deployments.
    find_deployment(nc, deploy_id)?;
    let table = nc.catalog.get("deployment_votes")?;
    let key = match unique_suffix {
        Some(suffix) => format!("{deploy_id}/{}/{suffix}", nc.invoker.org),
        None => format!("{deploy_id}/{}", nc.invoker.org),
    };
    nc.ctx.insert(
        &table,
        vec![
            Value::Text(key),
            Value::Int(deploy_id),
            Value::Text(nc.invoker.org.clone()),
            Value::Text(vote.to_string()),
            detail.map_or(Value::Null, |d| Value::Text(d.to_string())),
        ],
    )?;
    Ok(())
}

/// `approve_deploytx(id INT)` — one approval per organization (the PK on
/// `deploy_id/org` rejects duplicates at commit).
fn approve_deploytx(nc: &NativeCtx<'_>) -> Result<Vec<StatementEffect>> {
    let id = arg_int(nc.args, 0, "deployment id")?;
    record_vote(nc, id, "approve", None, None)?;
    Ok(vec![])
}

/// `reject_deploytx(id INT, reason TEXT)` — rejects and records why.
fn reject_deploytx(nc: &NativeCtx<'_>) -> Result<Vec<StatementEffect>> {
    let id = arg_int(nc.args, 0, "deployment id")?;
    let reason = arg_text(nc.args, 1, "reason")?;
    record_vote(nc, id, "reject", Some(reason), None)?;
    let (table, row) = find_deployment(nc, id)?;
    let mut new_row = row.data().to_vec();
    new_row[3] = Value::Text("rejected".into());
    nc.ctx.update(&table, &row, new_row)?;
    Ok(vec![])
}

/// `comment_deploytx(id INT, comment TEXT)` — non-binding remarks (§3.7 #5).
fn comment_deploytx(nc: &NativeCtx<'_>) -> Result<Vec<StatementEffect>> {
    let id = arg_int(nc.args, 0, "deployment id")?;
    let comment = arg_text(nc.args, 1, "comment")?;
    let digest = sha256(comment.as_bytes());
    let suffix = format!(
        "{:02x}{:02x}{:02x}{:02x}",
        digest[0], digest[1], digest[2], digest[3]
    );
    record_vote(nc, id, "comment", Some(comment), Some(&suffix))?;
    Ok(vec![])
}

/// `submit_deploytx(id INT)` — §3.7 #2: "executes the SQL statement present
/// in the deployment table after verifying that an admin from each
/// organization has approved the deployment transaction."
fn submit_deploytx(nc: &NativeCtx<'_>) -> Result<Vec<StatementEffect>> {
    let id = arg_int(nc.args, 0, "deployment id")?;
    let (table, row) = find_deployment(nc, id)?;
    let status = row.data()[3].as_str()?.to_string();
    if status != "pending" {
        return Err(Error::Abort(AbortReason::ContractError(format!(
            "deployment {id} is {status}, not pending"
        ))));
    }
    // Count approving organizations.
    let votes_table = nc.catalog.get("deployment_votes")?;
    let votes = nc.ctx.scan(
        &votes_table,
        &ScanPlan::index(1, KeyRange::eq(Value::Int(id))),
    )?;
    let mut approving: Vec<&str> = votes
        .iter()
        .filter(|v| v.data()[3].as_str().is_ok_and(|s| s == "approve"))
        .filter_map(|v| v.data()[2].as_str().ok())
        .collect();
    approving.sort_unstable();
    approving.dedup();
    let missing: Vec<&String> = nc
        .orgs
        .iter()
        .filter(|o| !approving.contains(&o.as_str()))
        .collect();
    if !missing.is_empty() {
        return Err(Error::Abort(AbortReason::ContractError(format!(
            "deployment {id} lacks approvals from: {missing:?}"
        ))));
    }
    // Execute the staged DDL: produces the deferred catalog op.
    let sql = row.data()[1].as_str()?.to_string();
    let stmt = bcrdb_sql::parse_statement(&sql)?;
    let exec = Executor::new(nc.catalog, nc.ctx, &[]);
    let effect = exec.execute(&stmt)?;
    // Mark applied.
    let mut new_row = row.data().to_vec();
    new_row[3] = Value::Text("applied".into());
    nc.ctx.update(&table, &row, new_row)?;
    Ok(vec![effect])
}

/// Decode a public key from [`PublicKey::to_bytes`] format.
pub fn decode_public_key(bytes: &[u8]) -> Result<PublicKey> {
    match bytes.first() {
        Some(1) if bytes.len() == 37 => {
            let mut root = [0u8; 32];
            root.copy_from_slice(&bytes[1..33]);
            let height = u32::from_be_bytes([bytes[33], bytes[34], bytes[35], bytes[36]]);
            Ok(PublicKey::HashBased(MssPublicKey { root, height }))
        }
        Some(2) if bytes.len() == 33 => {
            let mut d = [0u8; 32];
            d.copy_from_slice(&bytes[1..33]);
            Ok(PublicKey::Sim(d))
        }
        _ => Err(Error::Codec("malformed public key bytes".into())),
    }
}

/// `create_usertx(name TEXT, org TEXT, role TEXT, pubkey BYTES)` —
/// registers a user on-chain and installs the certificate at commit.
fn create_usertx(nc: &NativeCtx<'_>) -> Result<Vec<StatementEffect>> {
    let name = arg_text(nc.args, 0, "name")?.to_string();
    let org = arg_text(nc.args, 1, "org")?.to_string();
    let role_s = arg_text(nc.args, 2, "role")?;
    let role = match role_s {
        "admin" => Role::Admin,
        "client" => Role::Client,
        other => {
            return Err(Error::Analysis(format!(
                "role must be admin or client, got {other}"
            )))
        }
    };
    let Some(Value::Bytes(pk_bytes)) = nc.args.get(3) else {
        return Err(Error::Type("argument pubkey must be bytes".into()));
    };
    let public_key = decode_public_key(pk_bytes)?;
    // Admins may only onboard users of their own organization.
    if org != nc.invoker.org {
        return Err(Error::Abort(AbortReason::AccessDenied(format!(
            "admin of {} cannot create users in {org}",
            nc.invoker.org
        ))));
    }
    let table = nc.catalog.get("network_users")?;
    nc.ctx.insert(
        &table,
        vec![
            Value::Text(name.clone()),
            Value::Text(org.clone()),
            Value::Text(role_s.to_string()),
            Value::Text("active".into()),
        ],
    )?;
    Ok(vec![StatementEffect::Catalog(CatalogOp::RegisterCert(
        Certificate {
            name,
            org,
            role,
            public_key,
        },
    ))])
}

/// `delete_usertx(name TEXT)` — revokes a certificate.
fn delete_usertx(nc: &NativeCtx<'_>) -> Result<Vec<StatementEffect>> {
    let name = arg_text(nc.args, 0, "name")?.to_string();
    let table = nc.catalog.get("network_users")?;
    let rows = nc.ctx.scan(
        &table,
        &ScanPlan::index(0, KeyRange::eq(Value::Text(name.clone()))),
    )?;
    let row = rows
        .into_iter()
        .next()
        .ok_or_else(|| Error::NotFound(format!("user {name}")))?;
    if row.data()[1].as_str()? != nc.invoker.org {
        return Err(Error::Abort(AbortReason::AccessDenied(format!(
            "admin of {} cannot delete users of {}",
            nc.invoker.org,
            row.data()[1].display_raw()
        ))));
    }
    let mut new_row = row.data().to_vec();
    new_row[3] = Value::Text("deleted".into());
    nc.ctx.update(&table, &row, new_row)?;
    Ok(vec![StatementEffect::Catalog(CatalogOp::RevokeCert {
        name,
    })])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_crypto::identity::{KeyPair, Scheme};

    #[test]
    fn public_key_codec_roundtrip() {
        let hb = KeyPair::generate("a", b"s", Scheme::HashBased { height: 2 });
        let sim = KeyPair::generate("b", b"s", Scheme::Sim);
        for key in [hb.public_key(), sim.public_key()] {
            let bytes = key.to_bytes();
            let back = decode_public_key(&bytes).unwrap();
            assert_eq!(back, key);
        }
        assert!(decode_public_key(&[9, 1, 2]).is_err());
        assert!(decode_public_key(&[]).is_err());
    }
}
