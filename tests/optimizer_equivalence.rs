//! Differential and property-based testing of the optimizer: for any
//! query, the optimized physical plan must return exactly the rows the
//! unoptimized logical plan returns (the paper's semantics-preservation
//! requirement for rules), and the expression simplifier must be an
//! identity on evaluation.

use proptest::prelude::*;
use rcalcite_core::catalog::{Catalog, MemTable, Schema};
use rcalcite_core::datum::Datum;
use rcalcite_core::rex::{Op, RexNode};
use rcalcite_core::simplify::simplify;
use rcalcite_core::types::{RelType, RowTypeBuilder, TypeKind};
use rcalcite_sql::Connection;

fn test_connection(rows_a: usize, rows_b: usize) -> Connection {
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "a",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("x", TypeKind::Integer)
                .add_not_null("y", TypeKind::Integer)
                .add("z", TypeKind::Integer)
                .build(),
            (0..rows_a as i64)
                .map(|i| {
                    vec![
                        Datum::Int(i % 13),
                        Datum::Int(i % 7),
                        if i % 5 == 0 {
                            Datum::Null
                        } else {
                            Datum::Int(i)
                        },
                    ]
                })
                .collect(),
        ),
    );
    s.add_table(
        "b",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("x", TypeKind::Integer)
                .add_not_null("w", TypeKind::Integer)
                .build(),
            (0..rows_b as i64)
                .map(|i| vec![Datum::Int(i % 13), Datum::Int(i * 2)])
                .collect(),
        ),
    );
    catalog.add_schema("t", s);
    Connection::new(catalog)
}

/// Runs a query both ways and asserts identical (order-normalized) rows.
fn check_equivalent(conn: &Connection, sql: &str) {
    let logical = conn.parse_to_rel(sql).expect(sql);
    let mut interp = rcalcite_core::exec::ExecContext::new();
    rcalcite_enumerable::register_executors(&mut interp);
    let mut reference = interp.execute_collect(&logical).expect(sql);
    let mut optimized = conn.query(sql).expect(sql).rows;
    // Normalize row order for queries without ORDER BY.
    reference.sort();
    optimized.sort();
    assert_eq!(reference, optimized, "divergence for: {sql}");
}

#[test]
fn fixed_query_battery_is_equivalent() {
    let conn = test_connection(300, 40);
    for sql in [
        "SELECT x, y FROM a WHERE x > 5 AND y < 4",
        "SELECT x FROM a WHERE z IS NULL OR x = 0",
        "SELECT a.x, b.w FROM a JOIN b ON a.x = b.x WHERE a.y > 2",
        "SELECT a.x FROM a LEFT JOIN b ON a.x = b.x AND b.w > 10",
        "SELECT x, COUNT(*) AS c, SUM(z) AS s FROM a GROUP BY x HAVING COUNT(*) > 3",
        "SELECT DISTINCT y FROM a",
        "SELECT x FROM a UNION SELECT x FROM b",
        "SELECT x FROM a INTERSECT SELECT x FROM b",
        "SELECT x FROM a EXCEPT SELECT x FROM b",
        "SELECT x + y AS s FROM a WHERE x + y > 10",
        "SELECT x FROM a WHERE x BETWEEN 3 AND 9 ORDER BY x LIMIT 7",
        "SELECT b.x, COUNT(*) FROM a JOIN b ON a.x = b.x GROUP BY b.x ORDER BY 2 DESC, 1",
        "SELECT x, CASE WHEN y > 3 THEN 'hi' ELSE 'lo' END AS band FROM a WHERE z IS NOT NULL",
        "SELECT y FROM (SELECT y, COUNT(*) AS c FROM a GROUP BY y) t WHERE c > 40",
    ] {
        check_equivalent(&conn, sql);
    }
}

#[test]
fn federation_battery_is_equivalent() {
    let fed = rcalcite_adapters::demo::build_federation(400, 20);
    for sql in [
        "SELECT productid FROM orders WHERE units > 30",
        "SELECT o.productid, p.name FROM orders o JOIN mysql.products p \
         ON o.productid = p.productid WHERE o.units > 25",
        "SELECT device, COUNT(*) AS c FROM cass.readings WHERE device = 2 GROUP BY device",
        "SELECT ts FROM cass.readings WHERE device = 1 ORDER BY ts DESC LIMIT 10",
        "SELECT name FROM mysql.products WHERE price > 30 ORDER BY name",
    ] {
        let logical = fed.conn.parse_to_rel(sql).expect(sql);
        let mut interp = rcalcite_core::exec::ExecContext::new();
        rcalcite_enumerable::register_executors(&mut interp);
        let mut reference = interp.execute_collect(&logical).expect(sql);
        let mut optimized = fed.conn.query(sql).expect(sql).rows;
        reference.sort();
        optimized.sort();
        assert_eq!(reference, optimized, "divergence for: {sql}");
    }
}

/// A join whose `ON` holds a one-sided `column = literal` conjunct used
/// to send the planner's metadata round a cycle (the join's row count
/// asked the join's distinct count, which asked its row count) until the
/// stack overflowed. Each shape plans, matches the row oracle, and
/// returns the rows of the same query with the conjunct written as the
/// equivalent `WHERE` or derived-table filter.
#[test]
fn literal_conjunct_in_join_condition_plans() {
    let conn = test_connection(300, 40);
    let sorted = |sql: &str| {
        let mut rows = conn.query(sql).expect(sql).rows;
        rows.sort();
        rows
    };
    for (on, rewritten) in [
        (
            "SELECT a.x, a.y, b.w FROM a JOIN b ON a.x = b.x AND b.w = 4",
            "SELECT a.x, a.y, b.w FROM a JOIN b ON a.x = b.x WHERE b.w = 4",
        ),
        (
            "SELECT a.x, a.y, b.w FROM a LEFT JOIN b ON a.x = b.x AND b.w = 4",
            "SELECT a.x, a.y, b.w FROM a LEFT JOIN (SELECT x, w FROM b WHERE w = 4) b \
             ON a.x = b.x",
        ),
        (
            "SELECT a.y, b.x, b.w FROM a RIGHT JOIN b ON a.x = b.x AND a.y = 1",
            "SELECT a.y, b.x, b.w FROM (SELECT x, y FROM a WHERE y = 1) a RIGHT JOIN b \
             ON a.x = b.x",
        ),
        (
            "SELECT a.y, b.w FROM a FULL JOIN b ON a.x = b.x AND a.y = 1",
            "SELECT a.y, b.w FROM (SELECT y, CASE WHEN y = 1 THEN x END AS k FROM a) a \
             FULL JOIN b ON a.k = b.x",
        ),
        (
            "SELECT a.y, b.w FROM a JOIN b ON a.x = b.x OR a.y = 1",
            "SELECT a.y, b.w FROM a, b WHERE a.x = b.x OR a.y = 1",
        ),
        (
            "SELECT a.x, a.y, b.w FROM a JOIN b ON a.x = b.x AND b.w IN (2, 4)",
            "SELECT a.x, a.y, b.w FROM a JOIN (SELECT x, w FROM b WHERE w IN (2, 4)) b \
             ON a.x = b.x",
        ),
    ] {
        check_equivalent(&conn, on);
        let rows = sorted(on);
        assert!(!rows.is_empty(), "{on}");
        assert_eq!(rows, sorted(rewritten), "{on}");
    }
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

/// Random *well-typed* integer expressions over a 3-int row (columns 0,1
/// non-nullable; column 2 nullable). The validator rejects ill-typed SQL,
/// so the simplifier and rules are only required to preserve semantics on
/// well-typed input.
fn arb_expr() -> impl Strategy<Value = RexNode> {
    let int_ty = RelType::not_null(TypeKind::Integer);
    let nullable = RelType::nullable(TypeKind::Integer);
    let leaf = prop_oneof![
        (0usize..2).prop_map({
            let t = int_ty.clone();
            move |i| RexNode::input(i, t.clone())
        }),
        Just(RexNode::input(2, nullable)),
        (-20i64..20).prop_map(RexNode::lit_int),
        Just(RexNode::lit_null(RelType::nullable(TypeKind::Integer))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RexNode::call(Op::Plus, vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RexNode::call(Op::Minus, vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RexNode::call(Op::Times, vec![a, b])),
        ]
    })
}

/// Random boolean conditions built from comparisons.
fn arb_condition() -> impl Strategy<Value = RexNode> {
    let cmp = (arb_expr(), arb_expr(), 0usize..4).prop_map(|(a, b, k)| match k {
        0 => a.eq(b),
        1 => a.lt(b),
        2 => a.gt(b),
        _ => a.is_null(),
    });
    cmp.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RexNode::and_all(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| RexNode::or_all(vec![a, b])),
            inner.clone().prop_map(|a| a.not()),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The simplifier never changes the value of a condition.
    #[test]
    fn simplify_preserves_condition_evaluation(e in arb_condition(), x in -10i64..10, y in -10i64..10) {
        let rows = [
            vec![Datum::Int(x), Datum::Int(y), Datum::Null],
            vec![Datum::Int(x), Datum::Int(y), Datum::Int(x + y)],
        ];
        let s = simplify(&e);
        for row in &rows {
            match (e.eval(row), s.eval(row)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), _) => {}
                (Ok(a), Err(e2)) => prop_assert!(false, "simplify introduced error {e2} for value {a}"),
            }
        }
    }

    /// The simplifier never changes the value of an expression.
    #[test]
    fn simplify_preserves_evaluation(e in arb_expr(), x in -10i64..10, y in -10i64..10) {
        let rows = [
            vec![Datum::Int(x), Datum::Int(y), Datum::Null],
            vec![Datum::Int(x), Datum::Int(y), Datum::Int(x + y)],
        ];
        let s = simplify(&e);
        for row in &rows {
            let before = e.eval(row);
            let after = s.eval(row);
            match (before, after) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                // Folding may only *remove* runtime errors (e.g. constant
                // branches short-circuited), never introduce them.
                (Err(_), _) => {}
                (Ok(a), Err(e2)) => prop_assert!(false, "simplify introduced error {e2} for value {a}"),
            }
        }
    }

    /// Filter pushdown (the full default rule set) preserves query
    /// results on random conditions.
    #[test]
    fn random_filter_over_join_is_equivalent(cond in arb_condition()) {
        use rcalcite_core::rel::{self, JoinKind};
        use rcalcite_core::metadata::MetadataQuery;
        use rcalcite_core::planner::hep::HepPlanner;
        use rcalcite_core::rules::default_logical_rules;

        let conn = test_connection(60, 20);
        let a = rel::scan(conn.catalog().resolve(&["t", "a"]).unwrap());
        let b = rel::scan(conn.catalog().resolve(&["t", "b"]).unwrap());
        let int_ty = RelType::not_null(TypeKind::Integer);
        let join = rel::join(
            a,
            b,
            JoinKind::Inner,
            RexNode::input(0, int_ty.clone()).eq(RexNode::input(3, int_ty)),
        );
        // The random condition references columns 0..5 of the join; it may
        // reference out-of-range inputs 3/4 — all within the 5-col join row.
        let plan = rel::filter(join, cond);

        let mut interp = rcalcite_core::exec::ExecContext::new();
        rcalcite_enumerable::register_executors(&mut interp);
        let mut before = interp.execute_collect(&plan).unwrap();

        let hep = HepPlanner::new(default_logical_rules());
        let mq = MetadataQuery::standard();
        let (optimized, _) = hep.optimize_counted(&plan, &mq);
        let mut after = interp.execute_collect(&optimized).unwrap();
        before.sort();
        after.sort();
        prop_assert_eq!(&before, &after);

        // And through the full cost-based pipeline (hep + volcano with
        // join exploration): same rows again.
        let physical = conn.optimize(&plan).unwrap();
        let mut volcano_rows = conn.exec_context().execute_collect(&physical).unwrap();
        volcano_rows.sort();
        prop_assert_eq!(&before, &volcano_rows);
    }

    /// SQL round trip through the unparser: unparsed text reparses.
    #[test]
    fn unparser_output_reparses(px in 0i64..20, sel in 0usize..3) {
        let conn = test_connection(50, 10);
        let sql = match sel {
            0 => format!("SELECT x, y FROM a WHERE x > {px}"),
            1 => format!("SELECT x FROM a WHERE x = {px} OR y < 3"),
            _ => format!("SELECT x, COUNT(*) AS c FROM a WHERE y <= {px} GROUP BY x"),
        };
        let plan = conn.parse_to_rel(&sql).unwrap();
        let text = rcalcite_sql::to_sql(&plan, &rcalcite_sql::PostgresDialect).unwrap();
        // The generated SQL must itself parse.
        rcalcite_sql::parse(&text).unwrap();
    }
}
