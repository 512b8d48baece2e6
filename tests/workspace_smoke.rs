//! Workspace smoke test: one end-to-end canary per layer, so a regression
//! anywhere in the crate DAG fails fast with an obvious name.
//!
//! The central test follows the paper's Figure 1 path without the SQL
//! front-end: a plan constructed through `rcalcite_core::builder`,
//! optimized by the volcano planner into the enumerable convention, and
//! executed against the `memdb` backend through the JDBC adapter.

use rcalcite_adapters::jdbc::JdbcAdapter;
use rcalcite_adapters::Pushdown;
use rcalcite_backends::memdb::{MemDb, SqlQuerySpec};
use rcalcite_core::builder::RelBuilder;
use rcalcite_core::catalog::Catalog;
use rcalcite_core::datum::Datum;
use rcalcite_core::exec::ExecContext;
use rcalcite_core::metadata::MetadataQuery;
use rcalcite_core::planner::volcano::VolcanoPlanner;
use rcalcite_core::rex::RexNode;
use rcalcite_core::rules::default_logical_rules;
use rcalcite_core::traits::Convention;
use rcalcite_core::types::TypeKind;
use rcalcite_sql::unparser::MySqlDialect;
use std::sync::Arc;

fn sales_db() -> Arc<MemDb> {
    let db = MemDb::new();
    db.create_table(
        "orders",
        vec![
            ("deptno".into(), TypeKind::Integer),
            ("amount".into(), TypeKind::Integer),
        ],
        vec![
            vec![Datum::Int(10), Datum::Int(5)],
            vec![Datum::Int(10), Datum::Int(7)],
            vec![Datum::Int(20), Datum::Int(11)],
            vec![Datum::Int(20), Datum::Int(1)],
            vec![Datum::Int(30), Datum::Int(100)],
        ],
    );
    db
}

/// backends: memdb answers a pushed-down query spec on its own.
#[test]
fn backends_memdb_canary() {
    let db = sales_db();
    assert_eq!(db.table("orders").unwrap().len(), 5);
    let rows = db.execute(&SqlQuerySpec::scan("orders")).unwrap();
    assert_eq!(rows.len(), 5);
}

/// core + enumerable + adapters + backends: builder plan → volcano →
/// enumerable execution over the jdbc(memdb) tables.
#[test]
fn builder_volcano_memdb_canary() {
    let db = sales_db();
    let jdbc = JdbcAdapter::new(db, "mysql", Arc::new(MySqlDialect));

    let catalog = Catalog::new();
    catalog.add_schema("sales", jdbc.schema());

    // SELECT deptno, COUNT(*) AS c, SUM(amount) AS s
    // FROM sales.orders WHERE amount > 2 GROUP BY deptno
    let plan = RelBuilder::new(&catalog)
        .scan("sales.orders")
        .filter_with(|b| Ok(b.field("amount")?.gt(RexNode::lit_int(2))))
        .aggregate_named(
            &["deptno"],
            vec![
                RelBuilder::count(false, "c"),
                RelBuilder::sum(false, "s", "amount"),
            ],
        )
        .build()
        .unwrap();

    let mut planner = VolcanoPlanner::new(default_logical_rules());
    planner.add_rule(rcalcite_enumerable::implement_rule());
    for rule in jdbc.rules() {
        planner.add_rule(rule);
    }
    planner.add_converter(jdbc.convention.clone(), Convention::enumerable());

    let mq = MetadataQuery::standard();
    let (best, cost, _stats) = planner
        .optimize_with_stats(&plan, &Convention::enumerable(), &mq)
        .unwrap();
    assert!(
        !cost.is_infinite(),
        "optimizer returned an infinite-cost plan"
    );

    let mut ctx = ExecContext::new();
    rcalcite_enumerable::register_executors(&mut ctx);
    ctx.register(jdbc.executor());

    let mut rows = ctx.execute_collect(&best).unwrap();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            vec![Datum::Int(10), Datum::Int(2), Datum::Int(12)],
            vec![Datum::Int(20), Datum::Int(1), Datum::Int(11)],
            vec![Datum::Int(30), Datum::Int(1), Datum::Int(100)],
        ]
    );
}

/// sql: the same query through parse → validate → optimize → execute.
#[test]
fn sql_connection_canary() {
    let db = sales_db();
    let jdbc = JdbcAdapter::new(db, "mysql", Arc::new(MySqlDialect));
    let catalog = Catalog::new();
    catalog.add_schema("sales", jdbc.schema());

    let mut conn = rcalcite_sql::Connection::new(catalog);
    jdbc.install(&mut conn);

    let result = conn
        .query(
            "SELECT deptno, SUM(amount) AS s FROM sales.orders \
             WHERE amount > 2 GROUP BY deptno ORDER BY deptno",
        )
        .unwrap();
    assert_eq!(
        result.rows,
        vec![
            vec![Datum::Int(10), Datum::Int(12)],
            vec![Datum::Int(20), Datum::Int(11)],
            vec![Datum::Int(30), Datum::Int(100)],
        ]
    );
}

/// streams: a tumbling-window GROUP BY over a replayed Orders stream
/// agrees with a hand count.
#[test]
fn streams_tumbling_sql_canary() {
    use rcalcite_core::catalog::{Catalog, Schema};
    use rcalcite_streams::{generate_orders, orders_row_type, ReplayStream};

    let events = generate_orders(1_000, 4, 1_000);
    assert_eq!(events.len(), 1_000);
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table("orders", ReplayStream::new(orders_row_type(), events));
    catalog.add_schema("sales", s);
    let conn = rcalcite_sql::Connection::builder(catalog).build();
    let out = conn
        .query(
            "SELECT STREAM productid, COUNT(*) FROM orders \
             GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR), productid",
        )
        .unwrap()
        .rows;
    let total: i64 = out.iter().filter_map(|r| r.last()?.as_int()).sum();
    assert_eq!(total, 1_000, "windowed counts must partition the events");
}

/// geo: WKT round trip plus an ST_* evaluation through the registry.
#[test]
fn geo_functions_canary() {
    use rcalcite_core::rex::FunctionRegistry;
    use rcalcite_geo::{datum_geo, geo_datum, parse_wkt, register};

    let poly = parse_wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))").unwrap();
    let point = parse_wkt("POINT (2 2)").unwrap();

    let mut registry = FunctionRegistry::new();
    register(&mut registry);
    let st_contains = registry.lookup("ST_Contains").expect("ST_Contains missing");
    let inside = (st_contains.eval)(&[geo_datum(poly.clone()), geo_datum(point)]).unwrap();
    assert_eq!(inside, Datum::Bool(true));
    assert_eq!(datum_geo(&geo_datum(poly.clone())).unwrap(), poly);
}
