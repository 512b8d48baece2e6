//! Golden-file SQL conformance: ~30 statements exercise the whole
//! parser → validator → converter → planner → executor pipeline and are
//! checked against inline result snapshots, through BOTH engines: the
//! connection's fused batch front door and the row-at-a-time oracle run
//! over the same optimized plan. Executor changes that shift semantics
//! fail these snapshots immediately.
//!
//! Snapshot format: one string per row, fields joined by `|` using the
//! `Datum` display form. Queries without ORDER BY are order-normalized
//! by sorting the rendered rows.

use rcalcite_core::catalog::{Catalog, MemTable, Schema};
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::exec::ExecContext;
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use rcalcite_sql::Connection;
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

fn connection() -> Connection {
    Connection::new(catalog())
}

/// Runs `sql` with `params` bound: through the connection's front door,
/// or (`oracle`) as the connection's optimized plan on the row engine.
fn run(conn: &Connection, sql: &str, params: &[Datum], oracle: bool) -> Vec<Row> {
    let rows = if oracle {
        let mut ctx = ExecContext::new();
        rcalcite_enumerable::register_executors(&mut ctx);
        conn.parse_to_rel(sql)
            .and_then(|rel| conn.optimize(&rel))
            .and_then(|plan| ctx.with_params(params.to_vec()).execute_collect(&plan))
    } else if params.is_empty() {
        conn.query(sql).map(|r| r.rows)
    } else {
        conn.prepare(sql)
            .and_then(|stmt| stmt.query(params))
            .map(|r| r.rows)
    };
    let mode = if oracle { "row" } else { "batch" };
    rows.unwrap_or_else(|e| panic!("[{mode}] query failed: {sql}: {e}"))
}

fn render(rows: &[Vec<Datum>]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect()
}

/// (SQL, whether the statement fixes row order, expected snapshot).
const GOLDEN: &[(&str, bool, &[&str])] = &[
    // Projection and arithmetic.
    (
        "SELECT empid, sal + 1 FROM emp WHERE empid = 1",
        true,
        &["1|1001"],
    ),
    (
        "SELECT empid, sal / 1000 FROM emp WHERE empid = 2",
        true,
        &["2|2.0"],
    ),
    (
        "SELECT empid * 2 - 1 AS v FROM emp ORDER BY empid",
        true,
        &["1", "3", "5", "7", "9"],
    ),
    // Filters: comparisons, boolean combinators, NULL semantics.
    (
        "SELECT empid FROM emp WHERE sal > 1500 ORDER BY empid",
        true,
        &["2", "3", "5"],
    ),
    (
        "SELECT empid FROM emp WHERE deptno = 10 AND sal >= 2000",
        true,
        &["2"],
    ),
    (
        "SELECT empid FROM emp WHERE deptno = 30 OR sal < 1500 ORDER BY empid",
        true,
        &["1", "5"],
    ),
    (
        "SELECT empid FROM emp WHERE sal IS NULL",
        true,
        &["4"],
    ),
    (
        "SELECT empid FROM emp WHERE sal IS NOT NULL ORDER BY empid",
        true,
        &["1", "2", "3", "5"],
    ),
    (
        "SELECT empid FROM emp WHERE NOT (deptno = 10) ORDER BY empid",
        true,
        &["3", "4", "5"],
    ),
    (
        "SELECT empid FROM emp WHERE sal BETWEEN 1000 AND 3000 ORDER BY empid",
        true,
        &["1", "2", "3"],
    ),
    (
        "SELECT name FROM emp WHERE name LIKE 'a%'",
        true,
        &["alice"],
    ),
    (
        "SELECT empid FROM emp WHERE deptno IN (10, 30) ORDER BY empid",
        true,
        &["1", "2", "5"],
    ),
    // Joins.
    (
        "SELECT e.empid, d.dname FROM emp e JOIN dept d ON e.deptno = d.deptno ORDER BY e.empid",
        true,
        &["1|eng", "2|eng", "3|sales", "4|sales"],
    ),
    (
        "SELECT e.empid, d.dname FROM emp e LEFT JOIN dept d ON e.deptno = d.deptno ORDER BY e.empid",
        true,
        &["1|eng", "2|eng", "3|sales", "4|sales", "5|NULL"],
    ),
    (
        "SELECT d.dname, e.empid FROM emp e RIGHT JOIN dept d ON e.deptno = d.deptno",
        false,
        &["empty|NULL", "eng|1", "eng|2", "sales|3", "sales|4"],
    ),
    (
        "SELECT e.name, d.dname FROM emp e FULL JOIN dept d ON e.deptno = d.deptno",
        false,
        &[
            "NULL|empty",
            "alice|eng",
            "bob|eng",
            "carol|sales",
            "dave|sales",
            "erin|NULL",
        ],
    ),
    (
        "SELECT COUNT(*) AS c FROM emp e JOIN dept d ON e.deptno < d.deptno",
        true,
        &["7"],
    ),
    (
        "SELECT e.empid FROM emp e JOIN dept d ON e.deptno = d.deptno AND e.sal > 1500 \
         ORDER BY e.empid",
        true,
        &["2", "3"],
    ),
    // Aggregation.
    (
        "SELECT COUNT(*), COUNT(sal), SUM(sal), MIN(sal), MAX(sal) FROM emp",
        true,
        &["5|4|11000|1000|5000"],
    ),
    (
        "SELECT deptno, COUNT(*) AS c, SUM(sal) AS s FROM emp GROUP BY deptno ORDER BY deptno",
        true,
        &["10|2|3000", "20|2|3000", "30|1|5000"],
    ),
    (
        "SELECT deptno, AVG(sal) AS a FROM emp GROUP BY deptno ORDER BY deptno",
        true,
        &["10|1500.0", "20|3000.0", "30|5000.0"],
    ),
    (
        "SELECT COUNT(DISTINCT deptno) AS dc FROM emp",
        true,
        &["3"],
    ),
    (
        "SELECT deptno FROM emp GROUP BY deptno HAVING COUNT(*) > 1 ORDER BY deptno",
        true,
        &["10", "20"],
    ),
    ("SELECT DISTINCT deptno FROM emp", false, &["10", "20", "30"]),
    // Sorting, limits, NULL placement (NULLS LAST both directions).
    (
        "SELECT empid FROM emp ORDER BY sal DESC LIMIT 2",
        true,
        &["5", "3"],
    ),
    (
        "SELECT empid, sal FROM emp ORDER BY sal",
        true,
        &["1|1000", "2|2000", "3|3000", "5|5000", "4|NULL"],
    ),
    (
        "SELECT empid FROM emp ORDER BY empid OFFSET 2 ROWS FETCH NEXT 2 ROWS ONLY",
        true,
        &["3", "4"],
    ),
    // Set operations.
    (
        "SELECT deptno FROM emp UNION SELECT deptno FROM dept ORDER BY 1",
        true,
        &["10", "20", "30", "40"],
    ),
    (
        "SELECT deptno FROM emp INTERSECT SELECT deptno FROM dept ORDER BY 1",
        true,
        &["10", "20"],
    ),
    (
        "SELECT deptno FROM dept EXCEPT SELECT deptno FROM emp",
        true,
        &["40"],
    ),
    (
        "SELECT deptno FROM emp UNION ALL SELECT deptno FROM dept",
        false,
        &["10", "10", "10", "20", "20", "20", "30", "40"],
    ),
    // Expressions: CASE, CAST, functions, concatenation.
    (
        "SELECT name, CASE WHEN sal >= 3000 THEN 'high' WHEN sal IS NULL THEN 'unknown' \
         ELSE 'low' END AS band FROM emp ORDER BY empid",
        true,
        &["alice|low", "bob|low", "carol|high", "dave|unknown", "erin|high"],
    ),
    (
        "SELECT UPPER(name), CHAR_LENGTH(name) FROM emp WHERE empid = 3",
        true,
        &["CAROL|5"],
    ),
    (
        "SELECT COALESCE(sal, 0) AS s, name || '!' FROM emp ORDER BY empid",
        true,
        &["1000|alice!", "2000|bob!", "3000|carol!", "0|dave!", "5000|erin!"],
    ),
    (
        "SELECT CAST(empid AS varchar(10)), CAST(sal AS double) FROM emp WHERE empid = 1",
        true,
        &["1|1000.0"],
    ),
    // Window functions (row fallback in batch mode).
    (
        "SELECT empid, SUM(sal) OVER (PARTITION BY deptno) AS t FROM emp ORDER BY empid",
        true,
        &["1|3000", "2|3000", "3|3000", "4|3000", "5|5000"],
    ),
    (
        "SELECT empid, ROW_NUMBER() OVER (ORDER BY empid) AS rn FROM emp ORDER BY empid",
        true,
        &["1|1", "2|2", "3|3", "4|4", "5|5"],
    ),
    // VALUES and no-FROM selects.
    ("SELECT 1 + 2 AS three, 'x' AS s", true, &["3|x"]),
    ("VALUES (1, 'a'), (2, 'b')", false, &["1|a", "2|b"]),
    // Subqueries.
    (
        "SELECT dn FROM (SELECT DISTINCT deptno AS dn FROM emp) t WHERE dn > 10 ORDER BY dn",
        true,
        &["20", "30"],
    ),
    // LIMIT/OFFSET shapes: the batch engine runs these as a bounded
    // Top-K (with ORDER BY) or a streaming limit (without), so every
    // corner — ties on the sort key, offset past the end, LIMIT 0 —
    // must keep matching the row engine's stable full sort.
    (
        // deptno ties (10,10,20,...): the stable-order rows win.
        "SELECT empid FROM emp ORDER BY deptno LIMIT 3",
        true,
        &["1", "2", "3"],
    ),
    (
        "SELECT empid, sal FROM emp ORDER BY sal DESC OFFSET 1 ROWS FETCH NEXT 2 ROWS ONLY",
        true,
        &["3|3000", "2|2000"],
    ),
    (
        // NULL sal sorts last even under LIMIT.
        "SELECT empid FROM emp ORDER BY sal LIMIT 4",
        true,
        &["1", "2", "3", "5"],
    ),
    ("SELECT empid FROM emp ORDER BY empid OFFSET 10 ROWS", true, &[]),
    ("SELECT empid FROM emp ORDER BY empid LIMIT 0", true, &[]),
    (
        "SELECT empid FROM emp ORDER BY empid LIMIT 2 OFFSET 4",
        true,
        &["5"],
    ),
    // Pure LIMIT (no ORDER BY): streams and stops pulling early.
    ("SELECT empid FROM emp LIMIT 2", false, &["1", "2"]),
];

#[test]
fn golden_snapshots_row_executor() {
    run_golden(false);
}

#[test]
fn golden_snapshots_batch_executor() {
    run_golden(true);
}

fn run_golden(batched: bool) {
    let conn = connection();
    let mode = if batched { "batch" } else { "row" };
    for (sql, ordered, expected) in GOLDEN {
        let mut got = render(&run(&conn, sql, &[], !batched));
        let mut want: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
        if !ordered {
            got.sort();
            want.sort();
        }
        assert_eq!(got, want, "[{mode}] snapshot mismatch for: {sql}");
    }
}

/// Parameterized golden statements: (SQL with `?`, bindings, ordered,
/// expected snapshot). Run through prepared statements and the oracle.
fn param_golden() -> Vec<(&'static str, Vec<Datum>, bool, Vec<&'static str>)> {
    vec![
        (
            "SELECT empid FROM emp WHERE sal > ? ORDER BY empid",
            vec![Datum::Int(1500)],
            true,
            vec!["2", "3", "5"],
        ),
        (
            "SELECT empid, sal + ? AS bumped FROM emp WHERE deptno = ? ORDER BY empid",
            vec![Datum::Int(100), Datum::Int(10)],
            true,
            vec!["1|1100", "2|2100"],
        ),
        (
            "SELECT name FROM emp WHERE name LIKE ?",
            vec![Datum::str("%ar%")],
            false,
            vec!["carol"],
        ),
        (
            "SELECT deptno, COUNT(*) AS c FROM emp GROUP BY deptno HAVING COUNT(*) >= ? \
             ORDER BY deptno",
            vec![Datum::Int(2)],
            true,
            vec!["10|2", "20|2"],
        ),
        (
            "SELECT e.empid, d.dname FROM emp e JOIN dept d ON e.deptno = d.deptno \
             WHERE e.sal >= ? ORDER BY e.empid",
            vec![Datum::Int(2000)],
            true,
            vec!["2|eng", "3|sales"],
        ),
        (
            "SELECT empid FROM emp WHERE sal = ?",
            vec![Datum::Null],
            true,
            vec![],
        ),
        (
            "SELECT empid, ? AS tag FROM emp WHERE empid < ? ORDER BY empid",
            vec![Datum::str("t"), Datum::Int(3)],
            true,
            vec!["1|t", "2|t"],
        ),
    ]
}

#[test]
fn param_golden_snapshots_row_executor() {
    run_param_golden(false);
}

#[test]
fn param_golden_snapshots_batch_executor() {
    run_param_golden(true);
}

fn run_param_golden(batched: bool) {
    let conn = connection();
    let mode = if batched { "batch" } else { "row" };
    for (sql, params, ordered, expected) in param_golden() {
        // Execute twice: the second front-door run reuses the compiled plan.
        for pass in 0..2 {
            let mut got = render(&run(&conn, sql, &params, !batched));
            let mut want: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
            if !ordered {
                got.sort();
                want.sort();
            }
            assert_eq!(got, want, "[{mode} pass {pass}] mismatch for: {sql}");
        }
    }
}

#[test]
fn both_executors_agree_on_every_golden_statement() {
    // Belt and braces on top of the snapshots: the front door and the
    // row oracle must agree with each other row-for-row (order-normalized).
    let conn = connection();
    for (sql, _, _) in GOLDEN {
        let mut a = render(&run(&conn, sql, &[], true));
        let mut b = render(&run(&conn, sql, &[], false));
        a.sort();
        b.sort();
        assert_eq!(a, b, "executor divergence for: {sql}");
    }
}
