//! `repro` — regenerates every table and figure of the paper (see
//! EXPERIMENTS.md for the index). Run all sections, or one with
//! `cargo run -p rcalcite_bench --bin repro -- --fig2`.

use rcalcite_adapters::demo::build_federation;
use rcalcite_adapters::{load_model, FactoryRegistry, Pushdown};
use rcalcite_bench::{figure4_connection, join_chain, FIGURE4_SQL};
use rcalcite_core::catalog::Catalog;
use rcalcite_core::error::Result;
use rcalcite_core::explain::{explain, explain_with_costs};
use rcalcite_core::metadata::MetadataQuery;
use rcalcite_core::planner::hep::HepPlanner;
use rcalcite_core::planner::volcano::VolcanoPlanner;
use rcalcite_core::rules::{default_logical_rules, JoinCommuteRule};
use rcalcite_core::traits::Convention;
use std::sync::Arc;
use std::time::Instant;

fn banner(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |flag: &str| args.is_empty() || args.iter().any(|a| a == flag);

    if want("--fig1") {
        fig1()?;
    }
    if want("--fig2") {
        fig2()?;
    }
    if want("--fig3") {
        fig3()?;
    }
    if want("--fig4") {
        fig4()?;
    }
    if want("--table1") {
        table1()?;
    }
    if want("--table2") {
        table2()?;
    }
    if want("--planners") {
        planners()?;
    }
    if want("--stream") {
        stream()?;
    }
    if want("--semistructured") {
        semistructured()?;
    }
    if want("--geo") {
        geo()?;
    }
    Ok(())
}

/// Figure 1: the architecture — both entry paths (SQL text and operator
/// trees via the builder) through the same optimizer to execution.
fn fig1() -> Result<()> {
    banner("Figure 1 — architecture: two entry paths, one optimizer");
    let conn = figure4_connection(1_000, 20, 0.3);
    let sql =
        "SELECT productid, COUNT(*) AS c FROM sales GROUP BY productid ORDER BY c DESC LIMIT 3";
    println!("[SQL path]   query: {sql}");
    let logical = conn.parse_to_rel(sql)?;
    println!(
        "parser/validator -> relational expression:\n{}",
        explain(&logical)
    );
    let physical = conn.optimize(&logical)?;
    println!("optimizer -> physical plan:\n{}", explain(&physical));
    let rows = conn.exec_context().execute_collect(&physical)?;
    println!("executor -> {} rows", rows.len());

    println!("\n[builder path]   the same pipeline entered via RelBuilder:");
    let plan = rcalcite_core::builder::RelBuilder::new(conn.catalog())
        .scan("store.sales")
        .aggregate_named(
            &["productid"],
            vec![rcalcite_core::builder::RelBuilder::count(false, "c")],
        )
        .build()?;
    let physical = conn.optimize(&plan)?;
    let rows = conn.exec_context().execute_collect(&physical)?;
    println!("{}-> {} rows", explain(&physical), rows.len());
    Ok(())
}

/// Figure 2: the cross-system plan. Prints the logical plan, the naive
/// federated plan (join in the engine) and the chosen plan (join pushed
/// into splunk), then measures all three.
fn fig2() -> Result<()> {
    banner("Figure 2 — cross-system optimization (Orders in Splunk ⋈ Products in MySQL)");
    let fed = build_federation(50_000, 100);
    let sql = "SELECT o.rowtime, p.name \
               FROM orders o JOIN mysql.products p ON o.productid = p.productid \
               WHERE o.units > 45";
    println!("query: {sql}\n");

    let logical = fed.conn.parse_to_rel(sql)?;
    println!(
        "(a) logical plan — join in the 'logical' convention:\n{}",
        explain(&logical)
    );

    let mq = fed.conn.metadata_query();
    let chosen = fed.conn.optimize(&logical)?;
    println!("(b) chosen plan — filter pushed into splunk, join pushed through the\n    splunk converter (runs inside the log store as a lookup):\n{}",
        explain_with_costs(&chosen, &mq));

    // Naive federated execution: interpret the logical plan directly
    // (scan both backends fully, join in the engine).
    let t = Instant::now();
    let mut interp = rcalcite_core::exec::ExecContext::new();
    rcalcite_enumerable::register_executors(&mut interp);
    let naive_rows = interp.execute_collect(&logical)?.len();
    let naive = t.elapsed();

    let t = Instant::now();
    let opt_rows = fed.conn.exec_context().execute_collect(&chosen)?.len();
    let optimized = t.elapsed();

    println!("(c) execution: naive federation {naive_rows} rows in {naive:?};");
    println!("    optimized (join inside splunk) {opt_rows} rows in {optimized:?}");
    println!(
        "    speedup: {:.2}x",
        naive.as_secs_f64() / optimized.as_secs_f64().max(1e-9)
    );
    println!("\nnative queries issued:");
    for q in fed.splunk.log.entries() {
        println!("  SPL> {q}");
    }
    for q in fed.jdbc.log.entries() {
        println!("  SQL> {q}");
    }
    Ok(())
}

/// Figure 3: the adapter design — model → schema factory → schema →
/// tables + rules.
fn fig3() -> Result<()> {
    banner("Figure 3 — adapter design: model, schema factory, schema, rules");
    let fed = build_federation(100, 10);
    let mut registry = FactoryRegistry::new();
    registry.register(fed.jdbc.clone());
    registry.register(fed.splunk.clone());
    registry.register(fed.cassandra.clone());
    registry.register(fed.mongo.clone());
    println!("registered schema factories: {:?}", registry.names());

    let model = r#"{
        "version": "1.0",
        "defaultSchema": "sales",
        "schemas": [
            {"name": "sales",  "factory": "jdbc",      "operand": {}},
            {"name": "logs",   "factory": "splunk",    "operand": {}},
            {"name": "wide",   "factory": "cassandra", "operand": {}},
            {"name": "docs",   "factory": "mongo",     "operand": {}}
        ]
    }"#;
    let catalog = Catalog::new();
    load_model(model, &registry, &catalog)?;
    println!("\nmodel loaded; schemas and tables:");
    for s in catalog.schema_names() {
        let schema = catalog.schema(&s).unwrap();
        println!("  {s}: tables {:?}", schema.table_names());
    }
    println!("\nper-adapter planner rules contributed:");
    for (name, rules) in [
        ("jdbc", fed.jdbc.rules()),
        ("splunk", fed.splunk.rules()),
        ("cassandra", fed.cassandra.rules()),
        ("mongo", fed.mongo.rules()),
    ] {
        let names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
        println!("  {name}: {names:?}");
    }
    Ok(())
}

/// Figure 4: FilterIntoJoinRule before/after + execution effect.
fn fig4() -> Result<()> {
    banner("Figure 4 — FilterIntoJoinRule (filter moved below the join)");
    let conn = figure4_connection(100_000, 100, 0.9);
    println!("query: {FIGURE4_SQL}\n");
    let logical = conn.parse_to_rel(FIGURE4_SQL)?;
    println!("(a) before — filter above the join:\n{}", explain(&logical));

    let mq = MetadataQuery::standard();
    let hep = HepPlanner::new(default_logical_rules());
    let (after, fired) = hep.optimize_counted(&logical, &mq);
    println!(
        "(b) after {fired} rule firings — filter pushed below:\n{}",
        explain(&after)
    );

    // Execution effect, sweeping the predicate selectivity.
    println!("selectivity sweep (fraction of sales with NULL discount = rows removed):");
    println!(
        "{:>12} {:>14} {:>14} {:>9}",
        "null_frac", "unoptimized", "optimized", "speedup"
    );
    let mut interp = rcalcite_core::exec::ExecContext::new();
    rcalcite_enumerable::register_executors(&mut interp);
    for null_frac in [0.1, 0.5, 0.9, 0.99] {
        let conn = figure4_connection(100_000, 100, null_frac);
        let logical = conn.parse_to_rel(FIGURE4_SQL)?;
        let t = Instant::now();
        let a = interp.execute_collect(&logical)?.len();
        let unopt = t.elapsed();
        let physical = conn.optimize(&logical)?;
        let t = Instant::now();
        let b = conn.exec_context().execute_collect(&physical)?.len();
        let opt = t.elapsed();
        assert_eq!(a, b);
        println!(
            "{:>12} {:>14?} {:>14?} {:>8.2}x",
            null_frac,
            unopt,
            opt,
            unopt.as_secs_f64() / opt.as_secs_f64().max(1e-9)
        );
    }
    Ok(())
}

/// Table 1: component-consumption matrix. Six in-repo "host systems",
/// each embedding a different subset of the framework, as the paper's
/// adopters do.
fn table1() -> Result<()> {
    banner("Table 1 — systems embedding the framework (component matrix)");
    println!(
        "{:<26} {:<7} {:<17} {:<10} {:<24}",
        "host system", "driver", "parser+validator", "algebra", "execution engine"
    );
    let row = |sys: &str, drv: bool, pv: bool, alg: bool, eng: &str| {
        let c = |b: bool| if b { "yes" } else { "-" };
        println!(
            "{:<26} {:<7} {:<17} {:<10} {:<24}",
            sys,
            c(drv),
            c(pv),
            c(alg),
            eng
        );
    };
    // Each row is exercised by an integration test / example in this repo.
    row("sql-host (quickstart)", true, true, true, "enumerable");
    row("builder-host (Pig-like)", false, false, true, "enumerable");
    row("streaming-host", true, true, true, "streams runtime");
    row("federated-host", true, true, true, "adapters + enumerable");
    row(
        "unparser-host (no engine)",
        false,
        true,
        true,
        "remote SQL via unparser",
    );
    row("linq4j-host", false, false, false, "linq4j iterators");
    println!("\n(each path is validated by tests; see tests/paper_examples.rs)");
    Ok(())
}

/// Table 2: adapters and their generated target languages.
fn table2() -> Result<()> {
    banner("Table 2 — adapters and target languages (generated queries)");
    let fed = build_federation(200, 10);

    fed.jdbc.log.clear();
    fed.conn
        .query("SELECT name FROM mysql.products WHERE price > 50 ORDER BY price DESC LIMIT 3")?;
    println!(
        "JDBC (MySQL dialect):\n  {}",
        fed.jdbc.log.entries().join("\n  ")
    );

    fed.cassandra.log.clear();
    fed.conn
        .query("SELECT ts, value FROM cass.readings WHERE device = 3 ORDER BY ts DESC LIMIT 5")?;
    println!(
        "\nCassandra (CQL):\n  {}",
        fed.cassandra.log.entries().join("\n  ")
    );

    fed.mongo.log.clear();
    fed.conn.query(
        "SELECT CAST(_MAP['city'] AS varchar(20)) AS city FROM mongo_raw.zips \
         WHERE CAST(_MAP['pop'] AS integer) > 300000",
    )?;
    println!(
        "\nMongoDB (JSON):\n  {}",
        fed.mongo.log.entries().join("\n  ")
    );

    fed.splunk.log.clear();
    fed.conn.query(
        "SELECT o.rowtime, p.name FROM orders o \
         JOIN mysql.products p ON o.productid = p.productid WHERE o.units > 40",
    )?;
    println!(
        "\nSplunk (SPL):\n  {}",
        fed.splunk.log.entries().join("\n  ")
    );

    // Postgres dialect from the same algebra (unparser flexibility).
    let conn2 = figure4_connection(10, 5, 0.5);
    let plan = conn2.parse_to_rel("SELECT name FROM products WHERE productid > 2")?;
    println!(
        "\nSame algebra, PostgreSQL dialect:\n  {}",
        rcalcite_sql::to_sql(&plan, &rcalcite_sql::PostgresDialect)?
    );
    Ok(())
}

/// §6 planner engines: Hep vs Volcano(exhaustive) vs Volcano(δ threshold)
/// on a join-reordering workload.
fn planners() -> Result<()> {
    banner("§6 — planner engines: heuristic vs cost-based (exhaustive vs δ-threshold)");
    println!(
        "{:>8} {:>14} {:>12} {:>10} {:>8} {:>8} {:>9} {:>6} {:>10}",
        "tables",
        "engine",
        "plan_cost",
        "time",
        "exprs",
        "firings",
        "bindings",
        "dups",
        "truncated"
    );
    for n in [3usize, 4, 5] {
        let (_, plan) = join_chain(n, 20_000);
        let mq = MetadataQuery::standard();

        // Heuristic.
        let hep = HepPlanner::new(default_logical_rules());
        let t = Instant::now();
        let (hep_plan, fired) = hep.optimize_counted(&plan, &mq);
        let hep_time = t.elapsed();
        // Physicalize for a comparable cost.
        let mut phys = VolcanoPlanner::new(vec![]);
        phys.add_rule(rcalcite_enumerable::implement_rule());
        let (_, hep_cost, _) =
            phys.optimize_with_stats(&hep_plan, &Convention::enumerable(), &mq)?;
        println!(
            "{:>8} {:>14} {:>12.0} {:>10?} {:>8} {:>8}",
            n,
            "hep",
            mq.cost_model().weigh(&hep_cost),
            hep_time,
            "-",
            fired
        );

        for (label, mode) in [
            (
                "volcano-exh",
                rcalcite_core::planner::volcano::FixpointMode::Exhaustive,
            ),
            (
                "volcano-δ",
                rcalcite_core::planner::volcano::FixpointMode::CostThreshold {
                    delta: 0.02,
                    patience: 3,
                },
            ),
        ] {
            let mut rules = default_logical_rules();
            rules.push(Arc::new(JoinCommuteRule));
            let mut volcano = VolcanoPlanner::new(rules).with_mode(mode);
            volcano.add_rule(rcalcite_enumerable::implement_rule());
            let mq2 = MetadataQuery::standard();
            let t = Instant::now();
            let (_, cost, stats) =
                volcano.optimize_with_stats(&plan, &Convention::enumerable(), &mq2)?;
            println!(
                "{:>8} {:>14} {:>12.0} {:>10?} {:>8} {:>8} {:>9} {:>6} {:>10}",
                n,
                label,
                mq2.cost_model().weigh(&cost),
                t.elapsed(),
                stats.expressions,
                stats.rule_firings,
                stats.bindings,
                stats.duplicate_bindings,
                stats.truncated
            );
        }
    }
    println!("\nmetadata cache effect (deep plan, cumulative cost query):");
    for depth in [8usize, 16, 32] {
        let plan = rcalcite_bench::deep_plan(depth, 10_000);
        let cached = MetadataQuery::standard();
        let t = Instant::now();
        let _ = cached.cumulative_cost(&plan);
        let warm = t.elapsed();
        let uncached = MetadataQuery::without_cache();
        let t = Instant::now();
        let _ = uncached.cumulative_cost(&plan);
        let cold = t.elapsed();
        println!(
            "  depth {depth:>3}: cached {warm:?}  uncached {cold:?}  ({:.1}x)",
            cold.as_secs_f64() / warm.as_secs_f64().max(1e-9)
        );
    }
    Ok(())
}

/// §7.2 streaming: runs the paper's four streaming queries.
fn stream() -> Result<()> {
    banner("§7.2 — streaming queries");
    use rcalcite_core::catalog::Schema;
    use rcalcite_streams::{generate_orders, orders_row_type, ReplayStream};
    let events = generate_orders(7_200, 5, 1_000);
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table("orders", ReplayStream::new(orders_row_type(), events));
    catalog.add_schema("sales", s);
    let conn = rcalcite_sql::Connection::builder(catalog).build();

    let q1 = "SELECT STREAM rowtime, productid, units FROM orders WHERE units > 25";
    println!("Q1 (filter): {} rows", conn.query(q1)?.rows.len());

    let q2 = "SELECT STREAM rowtime, productid, units, \
              SUM(units) OVER (PARTITION BY productid ORDER BY rowtime \
              RANGE INTERVAL '1' HOUR PRECEDING) AS unitslasthour FROM orders";
    println!("Q2 (sliding window): {} rows", conn.query(q2)?.rows.len());

    // The aggregate flushes each hour once the next one starts, so the
    // cursor yields the first window before the stream is read out.
    let q3 = "SELECT STREAM TUMBLE_END(rowtime, INTERVAL '1' HOUR) AS rowtime, productid, \
              COUNT(*) AS c, SUM(units) AS units FROM orders \
              GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR), productid";
    let mut cursor = conn.execute(q3)?;
    let first = cursor.next_row()?;
    let rest = cursor.collect()?.rows.len();
    println!(
        "Q3 (tumbling aggregate): {} window rows; first: {:?}",
        rest + 1,
        first.unwrap_or_default()
    );

    // Q4: stream-to-stream join, still outside the engine (rcalcite_streams::join).
    let orders = generate_orders(1_000, 5, 1_000);
    let shipments: Vec<_> = orders
        .iter()
        .step_by(2)
        .map(|o| {
            vec![
                rcalcite_core::datum::Datum::Timestamp(o[0].as_millis().unwrap() + 600_000),
                o[1].clone(),
            ]
        })
        .collect();
    let joined = rcalcite_streams::join_streams(
        &orders,
        &shipments,
        rcalcite_streams::StreamJoinSpec {
            left_time: 0,
            right_time: 0,
            left_key: 1,
            right_key: 1,
            lower: 0,
            upper: 3_600_000,
        },
    )?;
    println!("Q4 (stream-stream join within 1h): {} rows", joined.len());

    let bad = conn.query("SELECT STREAM productid, COUNT(*) FROM orders GROUP BY productid");
    println!("monotonicity validation: {}", bad.unwrap_err());
    Ok(())
}

/// §7.1 semi-structured: the zips view.
fn semistructured() -> Result<()> {
    banner("§7.1 — semi-structured data (the MongoDB zips view)");
    let fed = build_federation(10, 5);
    let r = fed.conn.query(
        "SELECT CAST(_MAP['city'] AS varchar(20)) AS city, \
         CAST(_MAP['loc'][0] AS float) AS longitude, \
         CAST(_MAP['loc'][1] AS float) AS latitude \
         FROM mongo_raw.zips ORDER BY city",
    )?;
    println!("{}", r.to_table());
    Ok(())
}

/// §7.3 geospatial: the Amsterdam query.
fn geo() -> Result<()> {
    banner("§7.3 — geospatial (country containing Amsterdam)");
    use rcalcite_core::catalog::{MemTable, Schema};
    use rcalcite_core::datum::Datum;
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
    let r = conn.query(
        r#"SELECT name FROM (
            SELECT name,
                ST_GeomFromText('POLYGON ((4.82 52.43, 4.97 52.43, 4.97 52.33, 4.82 52.33, 4.82 52.43))') AS "Amsterdam",
                ST_GeomFromText(boundary) AS "Country"
            FROM country
        ) WHERE ST_Contains("Country", "Amsterdam")"#,
    )?;
    println!("{}", r.to_table());
    Ok(())
}
