//! End-to-end SQL coverage over the enumerable engine: every major clause
//! and expression family, checked against hand-computed answers.

use rcalcite_core::catalog::{Catalog, MemTable, Schema};
use rcalcite_core::datum::Datum;
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use rcalcite_sql::Connection;

fn conn() -> Connection {
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
    Connection::new(catalog)
}

fn ints(rows: &[Vec<Datum>], col: usize) -> Vec<i64> {
    rows.iter().map(|r| r[col].as_int().unwrap()).collect()
}

#[test]
fn projection_and_arithmetic() {
    let r = conn()
        .query("SELECT empid, sal / 1000, sal + 1 FROM emp WHERE empid = 1")
        .unwrap();
    assert_eq!(r.rows[0][1], Datum::Double(1.0));
    assert_eq!(r.rows[0][2], Datum::Int(1001));
}

#[test]
fn where_combinations() {
    let c = conn();
    assert_eq!(
        c.query("SELECT empid FROM emp WHERE deptno = 10 AND sal >= 2000")
            .unwrap()
            .rows
            .len(),
        1
    );
    assert_eq!(
        c.query("SELECT empid FROM emp WHERE deptno = 10 OR deptno = 30")
            .unwrap()
            .rows
            .len(),
        3
    );
    assert_eq!(
        c.query("SELECT empid FROM emp WHERE sal IS NULL")
            .unwrap()
            .rows,
        vec![vec![Datum::Int(4)]]
    );
    assert_eq!(
        c.query("SELECT empid FROM emp WHERE name LIKE '%o%' ORDER BY empid")
            .unwrap()
            .rows
            .len(),
        2 // bob, carol
    );
    assert_eq!(
        c.query("SELECT empid FROM emp WHERE empid BETWEEN 2 AND 4 ORDER BY empid")
            .unwrap()
            .rows
            .len(),
        3
    );
    assert_eq!(
        c.query("SELECT empid FROM emp WHERE deptno IN (20, 30) ORDER BY empid")
            .unwrap()
            .rows
            .len(),
        3
    );
    assert_eq!(
        c.query("SELECT empid FROM emp WHERE NOT (deptno = 10)")
            .unwrap()
            .rows
            .len(),
        3
    );
}

#[test]
fn group_by_having_order() {
    let r = conn()
        .query(
            "SELECT deptno, COUNT(*) AS c, SUM(sal) AS s, AVG(sal) AS a, \
             MIN(sal) AS mn, MAX(sal) AS mx \
             FROM emp GROUP BY deptno HAVING COUNT(*) > 1 ORDER BY deptno",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    // dept 10: count 2, sum 3000, avg 1500.
    assert_eq!(r.rows[0][1], Datum::Int(2));
    assert_eq!(r.rows[0][2], Datum::Int(3000));
    assert_eq!(r.rows[0][3], Datum::Double(1500.0));
    // dept 20: NULL sal ignored by SUM/AVG/MIN/MAX, counted by COUNT(*).
    assert_eq!(r.rows[1][1], Datum::Int(2));
    assert_eq!(r.rows[1][2], Datum::Int(3000));
    assert_eq!(r.rows[1][4], Datum::Int(3000));
}

#[test]
fn count_distinct_and_global_aggregate() {
    let c = conn();
    let r = c
        .query("SELECT COUNT(DISTINCT deptno) AS d, COUNT(sal) AS cs, COUNT(*) AS c FROM emp")
        .unwrap();
    assert_eq!(r.rows[0], vec![Datum::Int(3), Datum::Int(4), Datum::Int(5)]);
    // Global aggregate over an empty filter result: one row.
    let r = c
        .query("SELECT COUNT(*) AS c FROM emp WHERE empid > 100")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(0)]]);
}

#[test]
fn joins() {
    let c = conn();
    // Inner.
    let r = c
        .query(
            "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.deptno = d.deptno \
             ORDER BY e.empid",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 4); // erin's dept 30 unmatched
                                 // Left outer.
    let r = c
        .query(
            "SELECT e.name, d.dname FROM emp e LEFT JOIN dept d ON e.deptno = d.deptno \
             ORDER BY e.empid",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    assert!(r.rows[4][1].is_null());
    // Right outer.
    let r = c
        .query("SELECT d.dname FROM emp e RIGHT JOIN dept d ON e.deptno = d.deptno")
        .unwrap();
    assert_eq!(r.rows.len(), 5); // 4 matches + unmatched dept 40
                                 // Full outer.
    let r = c
        .query("SELECT e.empid, d.deptno FROM emp e FULL JOIN dept d ON e.deptno = d.deptno")
        .unwrap();
    assert_eq!(r.rows.len(), 6);
    // USING form.
    let r = c
        .query("SELECT dname FROM emp JOIN dept USING (deptno) ORDER BY empid")
        .unwrap();
    assert_eq!(r.rows.len(), 4);
    // Theta join.
    // emp deptnos (10,10,20,20,30) x dept deptnos (10,20,40):
    // 2x{20,40} + 2x{40} + 1x{40} = 7 pairs.
    let r = c
        .query("SELECT COUNT(*) AS c FROM emp e JOIN dept d ON e.deptno < d.deptno")
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(7));
}

#[test]
fn set_operations() {
    let c = conn();
    let r = c
        .query("SELECT deptno FROM emp UNION SELECT deptno FROM dept ORDER BY 1")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![10, 20, 30, 40]);
    let r = c
        .query("SELECT deptno FROM emp INTERSECT SELECT deptno FROM dept ORDER BY 1")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![10, 20]);
    let r = c
        .query("SELECT deptno FROM dept EXCEPT SELECT deptno FROM emp")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![40]);
    let r = c
        .query("SELECT deptno FROM emp UNION ALL SELECT deptno FROM dept")
        .unwrap();
    assert_eq!(r.rows.len(), 8);
}

#[test]
fn subqueries_and_distinct() {
    let c = conn();
    let r = c
        .query(
            "SELECT dn FROM (SELECT DISTINCT deptno AS dn FROM emp) t \
             WHERE dn > 10 ORDER BY dn",
        )
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![20, 30]);
}

#[test]
fn order_limit_offset_variants() {
    let c = conn();
    let r = c
        .query("SELECT empid FROM emp ORDER BY sal DESC LIMIT 2")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![5, 3]);
    // ORDER BY a column not in the select list.
    let r = c
        .query("SELECT name FROM emp WHERE sal IS NOT NULL ORDER BY sal DESC LIMIT 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::str("erin"));
    // OFFSET/FETCH spelling.
    let r = c
        .query("SELECT empid FROM emp ORDER BY empid OFFSET 2 ROWS FETCH NEXT 2 ROWS ONLY")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![3, 4]);
    // NULLs sort last under DESC.
    let r = c.query("SELECT empid FROM emp ORDER BY sal DESC").unwrap();
    assert_eq!(*ints(&r.rows, 0).last().unwrap(), 4);
}

#[test]
fn case_cast_functions() {
    let c = conn();
    let r = c
        .query(
            "SELECT name, CASE WHEN sal >= 3000 THEN 'high' WHEN sal IS NULL THEN 'unknown' \
             ELSE 'low' END AS band, UPPER(name) AS un, CHAR_LENGTH(name) AS len, \
             CAST(empid AS varchar(10)) AS ids \
             FROM emp ORDER BY empid",
        )
        .unwrap();
    assert_eq!(r.rows[0][1], Datum::str("low"));
    assert_eq!(r.rows[2][1], Datum::str("high"));
    assert_eq!(r.rows[3][1], Datum::str("unknown"));
    assert_eq!(r.rows[0][2], Datum::str("ALICE"));
    assert_eq!(r.rows[0][3], Datum::Int(5));
    assert_eq!(r.rows[0][4], Datum::str("1"));
}

#[test]
fn coalesce_and_concat() {
    let r = conn()
        .query("SELECT COALESCE(sal, 0) AS s, name || '!' AS loud FROM emp ORDER BY empid")
        .unwrap();
    assert_eq!(r.rows[3][0], Datum::Int(0));
    assert_eq!(r.rows[0][1], Datum::str("alice!"));
}

#[test]
fn window_functions() {
    let c = conn();
    let r = c
        .query(
            "SELECT empid, SUM(sal) OVER (PARTITION BY deptno) AS dept_total, \
             ROW_NUMBER() OVER (ORDER BY empid) AS rn \
             FROM emp ORDER BY empid",
        )
        .unwrap();
    assert_eq!(r.rows[0][1], Datum::Int(3000)); // dept 10 total
    assert_eq!(r.rows[4][1], Datum::Int(5000)); // dept 30 total
    assert_eq!(ints(&r.rows, 2), vec![1, 2, 3, 4, 5]);
}

#[test]
fn values_and_no_from() {
    let c = conn();
    let r = c.query("SELECT 1 + 2 AS three, 'x' AS s").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(3), Datum::str("x")]]);
    let r = c.query("VALUES (1, 'a'), (2, 'b')").unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn explain_output() {
    let c = conn();
    let text = c
        .explain("SELECT deptno FROM emp WHERE sal > 1000")
        .unwrap();
    assert!(text.contains("[enumerable]"));
    assert!(text.contains("Scan(hr.emp)"));
}

#[test]
fn error_paths() {
    let c = conn();
    for bad in [
        "SELECT missing FROM emp",
        "SELECT * FROM missing_table",
        "SELECT name FROM emp WHERE name > 5",
        "SELECT deptno, sal FROM emp GROUP BY deptno",
        "SELECT COUNT(*) FROM emp WHERE COUNT(*) > 1",
        "SELECT a FROM emp UNION SELECT a, b FROM emp",
        "SELECT FROM emp",
        "SELECT DISTINCT name FROM emp ORDER BY sal",
    ] {
        assert!(c.query(bad).is_err(), "expected error for: {bad}");
    }
}

#[test]
fn date_and_interval_literals() {
    let c = conn();
    let r = c
        .query("SELECT DATE '2018-06-10' AS d, TIMESTAMP '2018-06-10 12:00:00' + INTERVAL '1' HOUR AS t")
        .unwrap();
    assert_eq!(r.rows[0][0].to_string(), "2018-06-10");
    assert_eq!(r.rows[0][1].to_string(), "2018-06-10 13:00:00");
}
