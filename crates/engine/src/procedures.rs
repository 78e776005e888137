//! The smart-contract engine: deterministic stored procedures.
//!
//! A contract is a `CREATE FUNCTION` definition — named, typed parameters
//! and a body of SQL statements referencing them as `$1..$n` — validated
//! against the determinism rules at deploy time (§2 enhancement 1, §4.3)
//! and executed atomically inside the invoking transaction. This is the
//! direct analogue of the paper's constrained PL/SQL procedures.

use std::collections::BTreeMap;

use bcrdb_common::error::{Error, Result};
use bcrdb_common::value::Value;
use bcrdb_sql::ast::FunctionDef;
use bcrdb_sql::validate::{validate_contract_body, DeterminismRules};
use bcrdb_storage::catalog::Catalog;
use bcrdb_txn::context::TxnCtx;
use parking_lot::RwLock;

use crate::exec::{Executor, StatementEffect};

/// A transportable contract invocation: the payload of a blockchain
/// transaction ("the PL/SQL procedure execution command with the name of
/// the procedure and arguments", §3.3/§3.4).
#[derive(Clone, Debug, PartialEq)]
pub struct Invocation {
    /// Contract name.
    pub contract: String,
    /// Argument values.
    pub args: Vec<Value>,
}

impl Invocation {
    /// Convenience constructor.
    pub fn new(contract: impl Into<String>, args: Vec<Value>) -> Invocation {
        Invocation {
            contract: contract.into(),
            args,
        }
    }

    /// Canonical string rendering (part of the signed transaction content
    /// and of the EO flow's unique-id derivation, §3.4.3).
    pub fn canonical_string(&self) -> String {
        let mut s = self.contract.clone();
        s.push('(');
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&a.to_string());
        }
        s.push(')');
        s
    }
}

/// The registry of deployed contracts on one node.
#[derive(Default)]
pub struct ContractRegistry {
    map: RwLock<BTreeMap<String, FunctionDef>>,
}

impl ContractRegistry {
    /// Empty registry.
    pub fn new() -> ContractRegistry {
        ContractRegistry::default()
    }

    /// Validate a definition against the flow's determinism rules. Called
    /// at deploy time on every node, before the deploy transaction commits.
    pub fn validate(def: &FunctionDef, rules: &DeterminismRules) -> Result<()> {
        validate_contract_body(&def.body, rules)
    }

    /// Install (or replace, if `or_replace`) a contract. The caller is the
    /// serial commit phase applying a `CatalogOp::CreateFunction`.
    pub fn install(&self, def: FunctionDef) -> Result<()> {
        let mut map = self.map.write();
        if map.contains_key(&def.name) && !def.or_replace {
            return Err(Error::AlreadyExists(format!("contract {}", def.name)));
        }
        map.insert(def.name.clone(), def);
        Ok(())
    }

    /// Drop a contract.
    pub fn remove(&self, name: &str) -> Result<()> {
        if self.map.write().remove(name).is_none() {
            return Err(Error::NotFound(format!("contract {name}")));
        }
        Ok(())
    }

    /// Fetch a contract definition.
    pub fn get(&self, name: &str) -> Option<FunctionDef> {
        self.map.read().get(name).cloned()
    }

    /// Sorted contract names.
    pub fn names(&self) -> Vec<String> {
        self.map.read().keys().cloned().collect()
    }

    /// Number of deployed contracts.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True if no contracts are deployed.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Execute a contract invocation inside `ctx`. Returns the effects of
    /// every statement in the body (the node collects deferred catalog ops
    /// and returns the last SELECT to the client).
    pub fn invoke(
        &self,
        catalog: &Catalog,
        ctx: &TxnCtx,
        invocation: &Invocation,
    ) -> Result<Vec<StatementEffect>> {
        let def = self
            .get(&invocation.contract)
            .ok_or_else(|| Error::NotFound(format!("contract {}", invocation.contract)))?;
        if invocation.args.len() != def.params.len() {
            return Err(Error::Analysis(format!(
                "contract {} expects {} argument(s), got {}",
                def.name,
                def.params.len(),
                invocation.args.len()
            )));
        }
        let mut args = Vec::with_capacity(invocation.args.len());
        for (v, (pname, ptype)) in invocation.args.iter().zip(&def.params) {
            args.push(v.clone().coerce_to(*ptype).map_err(|_| {
                Error::Type(format!(
                    "argument {pname} of contract {} expects {ptype}",
                    def.name
                ))
            })?);
        }
        let exec = Executor::new(catalog, ctx, &args);
        let mut effects = Vec::with_capacity(def.body.len());
        for stmt in &def.body {
            effects.push(exec.execute(stmt)?);
        }
        Ok(effects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcrdb_common::schema::{Column, DataType, TableSchema};
    use bcrdb_sql::ast::Statement;
    use bcrdb_sql::parse_statement;
    use bcrdb_storage::snapshot::ScanMode;
    use bcrdb_txn::context::ScanPlan;
    use bcrdb_txn::ssi::{Flow, SsiManager};
    use std::sync::Arc;

    fn contract(sql: &str) -> FunctionDef {
        match parse_statement(sql).unwrap() {
            Statement::CreateFunction(def) => def,
            other => panic!("not a function: {other:?}"),
        }
    }

    fn setup() -> (Arc<SsiManager>, Catalog, ContractRegistry) {
        let mgr = Arc::new(SsiManager::new());
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableSchema::new(
                    "accounts",
                    vec![
                        Column::new("id", DataType::Int),
                        Column::new("balance", DataType::Float),
                    ],
                    vec![0],
                )
                .unwrap(),
            )
            .unwrap();
        let registry = ContractRegistry::new();
        registry
            .install(contract(
                "CREATE FUNCTION open_account(acct_id INT, amount FLOAT) AS $$ \
                   INSERT INTO accounts VALUES ($1, $2) $$",
            ))
            .unwrap();
        (mgr, catalog, registry)
    }

    #[test]
    fn deploy_and_invoke() {
        let (mgr, catalog, registry) = setup();
        let ctx = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        let inv = Invocation::new("open_account", vec![Value::Int(1), Value::Float(50.0)]);
        let effects = registry.invoke(&catalog, &ctx, &inv).unwrap();
        assert_eq!(effects.len(), 1);
        assert!(ctx
            .apply_commit(1, 0, Flow::OrderThenExecute)
            .is_committed());
        let r = TxnCtx::read_only(&mgr, 1);
        assert_eq!(
            r.scan(&catalog.get("accounts").unwrap(), &ScanPlan::Full)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn argument_checking() {
        let (mgr, catalog, registry) = setup();
        let ctx = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        // Wrong arity.
        let err = registry
            .invoke(
                &catalog,
                &ctx,
                &Invocation::new("open_account", vec![Value::Int(1)]),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Analysis(_)));
        // Int coerces to float; text does not.
        assert!(registry
            .invoke(
                &catalog,
                &ctx,
                &Invocation::new("open_account", vec![Value::Int(2), Value::Int(7)])
            )
            .is_ok());
        let err = registry
            .invoke(
                &catalog,
                &ctx,
                &Invocation::new("open_account", vec![Value::Int(3), Value::Text("x".into())]),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Type(_)));
        ctx.rollback();
        // Unknown contract.
        let ctx2 = TxnCtx::begin(&mgr, 0, ScanMode::Relaxed);
        assert!(matches!(
            registry.invoke(&catalog, &ctx2, &Invocation::new("nope", vec![])),
            Err(Error::NotFound(_))
        ));
        ctx2.rollback();
    }

    #[test]
    fn replace_requires_or_replace() {
        let registry = ContractRegistry::new();
        let def = contract("CREATE FUNCTION f(x INT) AS $$ INSERT INTO t VALUES ($1) $$");
        registry.install(def.clone()).unwrap();
        assert!(registry.install(def).is_err());
        let def2 =
            contract("CREATE OR REPLACE FUNCTION f(x INT) AS $$ INSERT INTO t VALUES ($1 + 1) $$");
        registry.install(def2).unwrap();
        assert_eq!(registry.len(), 1);
        registry.remove("f").unwrap();
        assert!(registry.remove("f").is_err());
        assert!(registry.is_empty());
    }

    #[test]
    fn determinism_validation_at_deploy() {
        let def = contract("CREATE FUNCTION f() AS $$ INSERT INTO t VALUES (random()) $$");
        let err =
            ContractRegistry::validate(&def, &DeterminismRules::order_then_execute()).unwrap_err();
        assert!(matches!(err, Error::Determinism(_)));
        let ok = contract("CREATE FUNCTION g(x INT) AS $$ INSERT INTO t VALUES ($1) $$");
        assert!(
            ContractRegistry::validate(&ok, &DeterminismRules::execute_order_parallel()).is_ok()
        );
    }

    #[test]
    fn canonical_string_binds_name_and_args() {
        let a = Invocation::new("f", vec![Value::Int(1), Value::Text("x".into())]);
        assert_eq!(a.canonical_string(), "f(1,'x')");
        let b = Invocation::new("f", vec![Value::Int(1), Value::Text("y".into())]);
        assert_ne!(a.canonical_string(), b.canonical_string());
    }
}
