//! End-to-end tests of the prepared-statement front door: `?` placeholders
//! through parse → validate → optimize → execute, checked against the row
//! engine running the same optimized plan, plus the plan cache's
//! invalidation semantics and the streaming contract of `ResultSet`.

use proptest::prelude::*;
use rcalcite_core::catalog::{Catalog, MemTable, RangeScan, Schema, Table};
use rcalcite_core::datum::{Column, Datum, Row};
use rcalcite_core::error::Result as CoreResult;
use rcalcite_core::exec::{BatchOp, ColumnBatch, ExecContext, Operator};
use rcalcite_core::types::{RowType, RowTypeBuilder, TypeKind};
use rcalcite_sql::Connection;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "emp",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("empid", TypeKind::Integer)
                .add_not_null("deptno", TypeKind::Integer)
                .add_not_null("name", TypeKind::Varchar)
                .add("sal", TypeKind::Integer)
                .build(),
            vec![
                vec![
                    Datum::Int(1),
                    Datum::Int(10),
                    Datum::str("alice"),
                    Datum::Int(1000),
                ],
                vec![
                    Datum::Int(2),
                    Datum::Int(10),
                    Datum::str("bob"),
                    Datum::Int(2000),
                ],
                vec![
                    Datum::Int(3),
                    Datum::Int(20),
                    Datum::str("carol"),
                    Datum::Int(3000),
                ],
                vec![
                    Datum::Int(4),
                    Datum::Int(20),
                    Datum::str("dave"),
                    Datum::Null,
                ],
                vec![
                    Datum::Int(5),
                    Datum::Int(30),
                    Datum::str("erin"),
                    Datum::Int(5000),
                ],
            ],
        ),
    );
    s.add_table(
        "dept",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("deptno", TypeKind::Integer)
                .add_not_null("dname", TypeKind::Varchar)
                .build(),
            vec![
                vec![Datum::Int(10), Datum::str("eng")],
                vec![Datum::Int(20), Datum::str("sales")],
                vec![Datum::Int(40), Datum::str("empty")],
            ],
        ),
    );
    catalog.add_schema("hr", s);
    catalog
}

fn conn() -> Connection {
    Connection::builder(catalog()).build()
}

/// The oracle: the connection's optimized plan for `sql`, run by the row
/// engine with `params` bound.
fn row_oracle(c: &Connection, sql: &str, params: &[Datum]) -> Vec<Row> {
    let plan = c.optimize(&c.parse_to_rel(sql).unwrap()).unwrap();
    let mut ctx = ExecContext::new();
    rcalcite_enumerable::register_executors(&mut ctx);
    ctx.with_params(params.to_vec())
        .execute_collect(&plan)
        .unwrap()
}

fn sorted(mut r: Vec<Row>) -> Vec<Row> {
    r.sort();
    r
}

/// (parameterized SQL, bindings, equivalent inlined SQL).
fn equivalence_cases() -> Vec<(&'static str, Vec<Datum>, String)> {
    vec![
        (
            "SELECT empid FROM emp WHERE sal > ?",
            vec![Datum::Int(1500)],
            "SELECT empid FROM emp WHERE sal > 1500".into(),
        ),
        (
            "SELECT empid, sal + ? FROM emp WHERE deptno = ?",
            vec![Datum::Int(7), Datum::Int(10)],
            "SELECT empid, sal + 7 FROM emp WHERE deptno = 10".into(),
        ),
        (
            "SELECT empid FROM emp WHERE deptno IN (?, ?) ORDER BY empid",
            vec![Datum::Int(10), Datum::Int(30)],
            "SELECT empid FROM emp WHERE deptno IN (10, 30) ORDER BY empid".into(),
        ),
        (
            "SELECT name FROM emp WHERE name LIKE ?",
            vec![Datum::str("a%")],
            "SELECT name FROM emp WHERE name LIKE 'a%'".into(),
        ),
        (
            "SELECT deptno, SUM(sal) AS s FROM emp GROUP BY deptno HAVING SUM(sal) > ?",
            vec![Datum::Int(2500)],
            "SELECT deptno, SUM(sal) AS s FROM emp GROUP BY deptno HAVING SUM(sal) > 2500".into(),
        ),
        (
            "SELECT e.empid, d.dname FROM emp e JOIN dept d ON e.deptno = d.deptno \
             WHERE e.sal > ? ORDER BY e.empid",
            vec![Datum::Int(1200)],
            "SELECT e.empid, d.dname FROM emp e JOIN dept d ON e.deptno = d.deptno \
             WHERE e.sal > 1200 ORDER BY e.empid"
                .into(),
        ),
        (
            "SELECT empid FROM emp WHERE sal BETWEEN ? AND ? ORDER BY empid",
            vec![Datum::Int(1000), Datum::Int(3000)],
            "SELECT empid FROM emp WHERE sal BETWEEN 1000 AND 3000 ORDER BY empid".into(),
        ),
        (
            "SELECT CASE WHEN sal > ? THEN 'hi' ELSE 'lo' END AS band FROM emp \
             WHERE sal IS NOT NULL ORDER BY empid",
            vec![Datum::Int(2500)],
            "SELECT CASE WHEN sal > 2500 THEN 'hi' ELSE 'lo' END AS band FROM emp \
             WHERE sal IS NOT NULL ORDER BY empid"
                .into(),
        ),
    ]
}

#[test]
fn prepared_equals_inlined_in_every_mode() {
    let c = conn();
    for (sql, params, inline) in equivalence_cases() {
        let stmt = c.prepare(sql).expect(sql);
        let bound = stmt.query(&params).expect(sql);
        let literal = c.query(&inline).expect(&inline);
        assert_eq!(bound.columns, literal.columns, "{sql}");
        let oracle = sorted(row_oracle(&c, sql, &params));
        assert_eq!(sorted(literal.rows), oracle, "{inline}");
        assert_eq!(sorted(bound.rows), oracle, "{sql}");
    }
}

#[test]
fn rebinding_does_not_replan() {
    let c = conn();
    let stmt = c.prepare("SELECT empid FROM emp WHERE deptno = ?").unwrap();
    for (dept, expect) in [(10i64, 2usize), (20, 2), (30, 1), (40, 0)] {
        let r = stmt.query(&[Datum::Int(dept)]).unwrap();
        assert_eq!(r.rows.len(), expect, "dept {dept}");
    }
    // The compiled plan was reused: EXPLAIN on the same text is a hit.
    let e = c.explain("SELECT empid FROM emp WHERE deptno = ?").unwrap();
    assert!(e.starts_with("-- plan cache: hit"), "{e}");
}

#[test]
fn null_bindings_follow_three_valued_logic() {
    let c = conn();
    // NULL never equals anything.
    let stmt = c.prepare("SELECT empid FROM emp WHERE sal = ?").unwrap();
    assert_eq!(stmt.query(&[Datum::Null]).unwrap().rows.len(), 0);
    // A projected NULL parameter survives to the output.
    let stmt = c
        .prepare("SELECT empid, ? FROM emp WHERE empid = 1")
        .unwrap();
    assert_eq!(
        stmt.query(&[Datum::Null]).unwrap().rows,
        vec![vec![Datum::Int(1), Datum::Null]]
    );
    // COALESCE over a NULL binding falls through.
    let stmt = c
        .prepare("SELECT COALESCE(?, sal) FROM emp WHERE empid = 2")
        .unwrap();
    assert_eq!(
        stmt.query(&[Datum::Null]).unwrap().rows,
        vec![vec![Datum::Int(2000)]]
    );
}

#[test]
fn bind_errors_are_validation_errors() {
    let c = conn();
    let stmt = c
        .prepare("SELECT empid FROM emp WHERE sal > ? AND deptno = ?")
        .unwrap();
    assert_eq!(stmt.param_count(), 2);
    // Wrong arity, both directions.
    assert!(stmt.bind(&[Datum::Int(1)]).is_err());
    assert!(stmt
        .bind(&[Datum::Int(1), Datum::Int(2), Datum::Int(3)])
        .is_err());
    // Type-mismatched binding: sal/deptno are INTEGER.
    assert!(stmt.bind(&[Datum::str("oops"), Datum::Int(10)]).is_err());
    assert!(stmt.bind(&[Datum::Bool(true), Datum::Int(10)]).is_err());
    // Numeric widening is allowed (INTEGER parameter, DOUBLE value).
    assert!(stmt.bind(&[Datum::Double(1500.0), Datum::Int(10)]).is_ok());
}

#[test]
fn rebind_after_ddl_sees_new_table() {
    let c = conn();
    c.query("CREATE TABLE hr.tmp (v INTEGER)").unwrap();
    c.query("INSERT INTO hr.tmp VALUES (1), (2), (3)").unwrap();
    let stmt = c
        .prepare("SELECT COUNT(*) AS c FROM hr.tmp WHERE v > ?")
        .unwrap();
    assert_eq!(
        stmt.query(&[Datum::Int(1)]).unwrap().rows,
        vec![vec![Datum::Int(2)]]
    );
    // DROP + CREATE under the same name: a stale plan would still
    // scan the old table's data through its captured TableRef.
    c.query("DROP TABLE hr.tmp").unwrap();
    c.query("CREATE TABLE hr.tmp (v INTEGER)").unwrap();
    c.query("INSERT INTO hr.tmp VALUES (10), (20)").unwrap();
    assert_eq!(
        stmt.query(&[Datum::Int(1)]).unwrap().rows,
        vec![vec![Datum::Int(2)]],
        "stale plan served dropped table"
    );
    assert_eq!(
        stmt.query(&[Datum::Int(15)]).unwrap().rows,
        vec![vec![Datum::Int(1)]]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A prepared-and-bound execution is indistinguishable from inlining
    /// the literals, and both match the row engine.
    #[test]
    fn prepared_matches_inlined_literals(
        threshold in -100i64..6000,
        dept in 0i64..45,
        bump in -10i64..10,
    ) {
        let c = conn();
        let sql = "SELECT empid, sal + ? AS s FROM emp WHERE sal > ? OR deptno = ?";
        let params = [Datum::Int(bump), Datum::Int(threshold), Datum::Int(dept)];
        let bound = c.prepare(sql).unwrap().query(&params).unwrap();
        let inline = c
            .query(&format!(
                "SELECT empid, sal + {bump} AS s FROM emp WHERE sal > {threshold} OR deptno = {dept}"
            ))
            .unwrap();
        let oracle = sorted(row_oracle(&c, sql, &params));
        prop_assert_eq!(sorted(bound.rows), oracle.clone());
        prop_assert_eq!(sorted(inline.rows), oracle);
    }
}

// ---------------------------------------------------------------------
// Streaming contract
// ---------------------------------------------------------------------

/// A table that counts the batches its scan serves, so tests can observe
/// whether a cursor pulls lazily.
struct TrackingTable {
    row_type: RowType,
    snapshot: Arc<TrackingSnapshot>,
    served: Arc<AtomicUsize>,
}

impl TrackingTable {
    fn new(n: i64) -> TrackingTable {
        let served = Arc::new(AtomicUsize::new(0));
        TrackingTable {
            row_type: RowTypeBuilder::new()
                .add_not_null("v", TypeKind::Integer)
                .build(),
            snapshot: Arc::new(TrackingSnapshot {
                col: Column::from_datums(&TypeKind::Integer, (0..n).map(Datum::Int)),
                served: served.clone(),
            }),
            served,
        }
    }
}

struct TrackingSnapshot {
    col: Column,
    served: Arc<AtomicUsize>,
}

struct TrackingScan {
    snapshot: Arc<TrackingSnapshot>,
    pos: usize,
    end: usize,
    batch_size: usize,
}

impl RangeScan for TrackingSnapshot {
    fn row_count(&self) -> usize {
        self.col.len()
    }

    fn scan_range(
        self: Arc<Self>,
        batch_size: usize,
        start: usize,
        len: usize,
    ) -> CoreResult<BatchOp> {
        let end = start.saturating_add(len).min(self.col.len());
        Ok(Box::new(TrackingScan {
            snapshot: self,
            pos: start,
            end,
            batch_size,
        }))
    }
}

impl Operator<ColumnBatch> for TrackingScan {
    fn next(&mut self) -> CoreResult<Option<ColumnBatch>> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let take = self.batch_size.min(self.end - self.pos);
        let out = self.snapshot.col.slice(self.pos, take);
        self.pos += take;
        self.snapshot.served.fetch_add(1, Ordering::SeqCst);
        Ok(Some(ColumnBatch::new(vec![out])))
    }
}

impl Table for TrackingTable {
    fn row_type(&self) -> RowType {
        self.row_type.clone()
    }

    fn scan(&self) -> CoreResult<Box<dyn Iterator<Item = Row> + Send>> {
        let datums = self.snapshot.col.to_datums();
        Ok(Box::new(datums.into_iter().map(|d| vec![d])))
    }

    fn scan_snapshot(&self) -> CoreResult<Option<Arc<dyn RangeScan>>> {
        Ok(Some(self.snapshot.clone()))
    }
}

#[test]
fn result_set_streams_limit_one_without_materializing() {
    // LIMIT 1 over a 100k-row table: the cursor pulls one batch, not the
    // table — the acceptance contract of the streaming ResultSet. The
    // contract is the serial pipeline's: bounded parallel prefetch is
    // `differential`'s to test (`morsels_are_not_prefetched_past_limit`).
    const N: i64 = 100_000;
    let table = TrackingTable::new(N);
    let served = table.served.clone();
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table("big", Arc::new(table));
    catalog.add_schema("hr", s);
    let c = Connection::builder(catalog).workers(1).build();

    let mut rs = c.execute("SELECT v FROM hr.big LIMIT 1").unwrap();
    assert_eq!(rs.next_row().unwrap(), Some(vec![Datum::Int(0)]));
    assert_eq!(rs.next_row().unwrap(), None);
    let batches = served.load(Ordering::SeqCst);
    assert!(
        batches <= 2,
        "LIMIT 1 materialized the table: {batches} scan batches served \
         (full table would be {})",
        (N as usize).div_ceil(rcalcite_enumerable::BATCH_SIZE)
    );

    // Same through a prepared statement with a parameterized filter.
    let stmt = c
        .prepare("SELECT v FROM hr.big WHERE v >= ? LIMIT 1")
        .unwrap();
    let before = served.load(Ordering::SeqCst);
    let mut rs = stmt.bind(&[Datum::Int(5)]).unwrap();
    assert_eq!(rs.next_row().unwrap(), Some(vec![Datum::Int(5)]));
    drop(rs);
    let delta = served.load(Ordering::SeqCst) - before;
    assert!(
        delta <= 2,
        "prepared LIMIT 1 drained the scan: {delta} batches"
    );
}
