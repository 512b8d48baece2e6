//! DDL/DML tests: the paper's §9 future-work item for standalone-engine
//! use — "support for data definition languages (DDL), materialized views,
//! indexes and constraints" — implemented for the built-in store:
//! CREATE TABLE, CREATE VIEW, CREATE MATERIALIZED VIEW, INSERT, DROP.

use rcalcite_core::catalog::{Catalog, Schema};
use rcalcite_core::datum::Datum;
use rcalcite_core::rel::{Rel, RelKind};
use rcalcite_sql::Connection;

fn conn() -> Connection {
    let catalog = Catalog::new();
    catalog.add_schema("db", Schema::new());
    Connection::new(catalog)
}

#[test]
fn create_insert_select_drop_lifecycle() {
    let c = conn();
    c.query("CREATE TABLE emp (empid INTEGER NOT NULL, name VARCHAR, sal INTEGER)")
        .unwrap();
    let r = c
        .query("INSERT INTO emp VALUES (1, 'alice', 1000), (2, 'bob', 2000)")
        .unwrap();
    assert!(r.rows[0][0].to_string().contains("2 rows"));

    let r = c.query("SELECT name FROM emp WHERE sal > 1500").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::str("bob")]]);

    // INSERT ... SELECT.
    c.query("INSERT INTO emp SELECT empid + 10, name, sal * 2 FROM emp")
        .unwrap();
    let r = c.query("SELECT COUNT(*) AS c FROM emp").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(4));

    c.query("DROP TABLE emp").unwrap();
    assert!(c.query("SELECT 1 FROM emp").is_err());
    // DROP IF EXISTS tolerates a missing table; plain DROP does not.
    c.query("DROP TABLE IF EXISTS emp").unwrap();
    assert!(c.query("DROP TABLE emp").is_err());
}

#[test]
fn insert_arity_is_validated() {
    let c = conn();
    c.query("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
    assert!(c.query("INSERT INTO t VALUES (1)").is_err());
    assert!(c.query("INSERT INTO t VALUES (1, 2, 3)").is_err());
    c.query("INSERT INTO t VALUES (1, 2)").unwrap();
}

#[test]
fn views_expand_inline_and_compose() {
    let c = conn();
    c.query("CREATE TABLE sales (product INTEGER, amount INTEGER)")
        .unwrap();
    c.query("INSERT INTO sales VALUES (1, 10), (1, 20), (2, 5)")
        .unwrap();
    c.query("CREATE VIEW big_sales AS SELECT product, amount FROM sales WHERE amount >= 10")
        .unwrap();
    let r = c
        .query("SELECT product, COUNT(*) AS c FROM big_sales GROUP BY product ORDER BY product")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(1), Datum::Int(2)]]);

    // A view over a view.
    c.query("CREATE VIEW big_by_product AS SELECT product, SUM(amount) AS s FROM big_sales GROUP BY product")
        .unwrap();
    let r = c.query("SELECT s FROM big_by_product").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(30)]]);

    // Views see later inserts (they are expanded, not materialized).
    c.query("INSERT INTO sales VALUES (3, 100)").unwrap();
    let r = c.query("SELECT COUNT(*) AS c FROM big_sales").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(3));
}

#[test]
fn materialized_view_is_used_by_the_optimizer() {
    let c = conn();
    c.query("CREATE TABLE facts (k INTEGER NOT NULL, v INTEGER NOT NULL)")
        .unwrap();
    let values: Vec<String> = (0..2000)
        .map(|i| format!("({}, {})", i % 10, i % 100))
        .collect();
    c.query(&format!("INSERT INTO facts VALUES {}", values.join(", ")))
        .unwrap();

    let r = c
        .query("CREATE MATERIALIZED VIEW by_k AS SELECT k, COUNT(*) AS c, SUM(v) AS s FROM facts GROUP BY k")
        .unwrap();
    assert!(r.rows[0][0].to_string().contains("10 rows"));

    // Direct reference reads the stored rows.
    let r = c.query("SELECT COUNT(*) AS c FROM by_k").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(10));

    // The optimizer substitutes the materialization for the matching
    // aggregate over the base table: the plan scans mv.by_k, not facts.
    let plan = c
        .optimize(
            &c.parse_to_rel("SELECT k, COUNT(*) AS c, SUM(v) AS s FROM facts GROUP BY k")
                .unwrap(),
        )
        .unwrap();
    fn scans_mv(rel: &Rel) -> bool {
        if rel.kind() == RelKind::Scan {
            return rcalcite_core::explain::explain(rel).contains("mv.by_k");
        }
        rel.inputs.iter().any(scans_mv)
    }
    assert!(
        scans_mv(&plan),
        "{}",
        rcalcite_core::explain::explain(&plan)
    );

    // Results from the rewritten plan match a fresh computation.
    let rewritten = c
        .query("SELECT k, COUNT(*) AS c, SUM(v) AS s FROM facts GROUP BY k ORDER BY k")
        .unwrap();
    assert_eq!(rewritten.rows.len(), 10);
    assert_eq!(rewritten.rows[0][1], Datum::Int(200));
}

#[test]
fn insert_into_adapter_table_writes_through() {
    // The jdbc adapter delegates transactional writes to its backing
    // database, so INSERT lands in the remote table (and is immediately
    // visible through the federation).
    let fed = rcalcite_adapters::demo::build_federation(10, 5);
    fed.conn
        .query("INSERT INTO mysql.products VALUES (99, 'x', 1.0)")
        .unwrap();
    let r = fed
        .conn
        .query("SELECT name FROM mysql.products WHERE productid = 99")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::str("x")]]);
}

#[test]
fn insert_into_read_only_adapter_table_is_rejected() {
    // The log and wide-column adapters hand out no version, so INSERT
    // has no transactional path into them: it fails and writes nothing.
    let fed = rcalcite_adapters::demo::build_federation(10, 5);
    for (table, values) in [
        ("splunk.orders", "(1, 2, 3)"),
        ("cass.readings", "(1, 2, 3.0)"),
    ] {
        let count = |fed: &rcalcite_adapters::demo::Federation| {
            let sql = format!("SELECT COUNT(*) AS c FROM {table}");
            fed.conn.query(&sql).unwrap().rows
        };
        let before = count(&fed);
        let err = fed
            .conn
            .query(&format!("INSERT INTO {table} VALUES {values}"))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("INSERT is only supported on built-in tables"),
            "{table}: {err}"
        );
        assert_eq!(count(&fed), before, "{table}");
    }
}

#[test]
fn create_table_in_missing_schema_fails() {
    let c = conn();
    assert!(c.query("CREATE TABLE nowhere.t (a INTEGER)").is_err());
    // Qualified into the existing schema works.
    c.query("CREATE TABLE db.t (a INTEGER)").unwrap();
    c.query("INSERT INTO db.t VALUES (7)").unwrap();
    assert_eq!(
        c.query("SELECT a FROM db.t").unwrap().rows,
        vec![vec![Datum::Int(7)]]
    );
}

#[test]
fn ddl_parse_errors() {
    let c = conn();
    assert!(c.query("CREATE INDEX i ON t (a)").is_err());
    assert!(c.query("CREATE TABLE t").is_err());
    assert!(c.query("CREATE VIEW v SELECT 1").is_err());
    assert!(c.query("INSERT t VALUES (1)").is_err());
    assert!(c.query("DROP VIEW v").is_err());
}
