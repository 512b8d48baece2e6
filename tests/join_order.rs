//! Join order by dynamic programming, end to end through a connection:
//! generated join graphs (chain, star, cycle, clique of 3–6 tables, with
//! and without `ANALYZE`) return the rows of their unoptimized plans, a
//! three-way join written in a bad order is reordered, an eight-way chain
//! plans inside the search budget, the ledger's join chains plan no
//! dearer than the rule cascade did, and a materialized view over a join
//! still serves its query.

use rcalcite_core::catalog::{Catalog, MemTable, Schema};
use rcalcite_core::datum::Datum;
use rcalcite_core::rel::{Rel, RelOp};
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use rcalcite_sql::Connection;
use std::collections::BTreeSet;

fn int_table(cols: &[&str], rows: Vec<Vec<i64>>) -> std::sync::Arc<MemTable> {
    let mut b = RowTypeBuilder::new();
    for c in cols {
        b = b.add_not_null(*c, TypeKind::Integer);
    }
    let data = rows
        .into_iter()
        .map(|r| r.into_iter().map(Datum::Int).collect())
        .collect();
    MemTable::new(b.build(), data)
}

fn connection(tables: Vec<(String, std::sync::Arc<MemTable>)>) -> Connection {
    let catalog = Catalog::new();
    let schema = Schema::new();
    for (name, t) in tables {
        schema.add_table(name, t);
    }
    catalog.add_schema("s", schema);
    Connection::new(catalog)
}

/// The optimized plan's rows equal the unoptimized plan's on the row
/// engine, as multisets; the search was not cut short.
fn check_rows(conn: &Connection, sql: &str) -> Vec<Vec<Datum>> {
    let logical = conn.parse_to_rel(sql).expect(sql);
    let (_, stats) = conn.optimize_with_stats(&logical).expect(sql);
    assert!(!stats.truncated, "{sql}: {stats:?}");
    let mut interp = rcalcite_core::exec::ExecContext::new();
    rcalcite_enumerable::register_executors(&mut interp);
    let mut reference = interp.execute_collect(&logical).expect(sql);
    let mut optimized = conn.query(sql).expect(sql).rows;
    reference.sort();
    optimized.sort();
    assert_eq!(reference, optimized, "divergence for: {sql}");
    optimized
}

/// `t0 … t5`, each `(a, b)`, sizes and key domains differing per table.
fn graph_tables() -> Vec<(String, std::sync::Arc<MemTable>)> {
    (0..6i64)
        .map(|t| {
            let rows = [12, 30, 8, 20, 40, 10][t as usize];
            let data = (0..rows)
                .map(|r| vec![r % (7 + 5 * t), r % (23 - 3 * t)])
                .collect();
            (format!("t{t}"), int_table(&["a", "b"], data))
        })
        .collect()
}

/// `SELECT * FROM t0 JOIN t1 ON … JOIN t(n-1) ON …`, each edge (i, j)
/// written `ti.b = tj.a` in the ON of the later table.
fn graph_sql(edges: &[(usize, usize)], n: usize) -> String {
    let mut sql = "SELECT * FROM t0".to_string();
    for j in 1..n {
        let on: Vec<String> = edges
            .iter()
            .filter(|(_, b)| *b == j)
            .map(|(i, _)| format!("t{i}.b = t{j}.a"))
            .collect();
        sql.push_str(&format!(" JOIN t{j} ON {}", on.join(" AND ")));
    }
    sql
}

#[test]
fn generated_join_graphs_return_the_unoptimized_rows() {
    for analyzed in [false, true] {
        let conn = connection(graph_tables());
        if analyzed {
            conn.query("ANALYZE").unwrap();
        }
        for n in 3..=6 {
            let chain: Vec<(usize, usize)> = (1..n).map(|j| (j - 1, j)).collect();
            let star: Vec<(usize, usize)> = (1..n).map(|j| (0, j)).collect();
            let cycle: Vec<(usize, usize)> = chain.iter().copied().chain([(0, n - 1)]).collect();
            let clique: Vec<(usize, usize)> =
                (1..n).flat_map(|j| (0..j).map(move |i| (i, j))).collect();
            for edges in [chain, star, cycle, clique] {
                check_rows(&conn, &graph_sql(&edges, n));
            }
        }
    }
}

/// The scanned tables under each join of `plan`.
fn join_inputs(plan: &Rel, out: &mut Vec<BTreeSet<String>>) -> BTreeSet<String> {
    let mut below = BTreeSet::new();
    if let RelOp::Scan { table } = &plan.op {
        below.insert(table.name.clone());
    }
    for input in &plan.inputs {
        below.extend(join_inputs(input, out));
    }
    if matches!(plan.op, RelOp::Join { .. }) {
        out.push(below.clone());
    }
    below
}

#[test]
fn a_badly_written_three_way_join_is_reordered() {
    // `big ⋈ wide` on a ten-value key is 400 000 rows; `wide ⋈ tiny`
    // keeps 5 of the 2 000 `wide` rows. Written big-first, the cheap
    // order joins `wide` and `tiny` first — a different bracketing,
    // which no orientation of the written joins reaches.
    let conn = connection(vec![
        (
            "big".into(),
            int_table(&["k"], (0..2_000).map(|i| vec![i % 10]).collect()),
        ),
        (
            "wide".into(),
            int_table(&["k", "j"], (0..2_000).map(|i| vec![i % 10, i]).collect()),
        ),
        (
            "tiny".into(),
            int_table(&["j"], (0..5).map(|i| vec![i * 100]).collect()),
        ),
    ]);
    let sql = "SELECT big.k, tiny.j FROM big JOIN wide ON big.k = wide.k \
               JOIN tiny ON wide.j = tiny.j";
    let plan = conn.optimize(&conn.parse_to_rel(sql).unwrap()).unwrap();
    let mut joins = vec![];
    join_inputs(&plan, &mut joins);
    let first: BTreeSet<String> = ["tiny", "wide"].map(String::from).into();
    assert!(
        joins.contains(&first),
        "{}",
        rcalcite_core::explain::explain(&plan)
    );
    assert_eq!(check_rows(&conn, sql).len(), 1_000);
}

/// The ledger's join-chain schema, `t1 … t8` of 100 … 800 rows joined on
/// `t(k).next_id = t(k+1).id`.
fn chain_connection() -> Connection {
    connection(
        (1..=8i64)
            .map(|k| {
                let rows = (0..100 * k)
                    .map(|id| vec![id, (id * 7) % (100 * (k + 1)), id % 13])
                    .collect();
                (format!("t{k}"), int_table(&["id", "next_id", "v"], rows))
            })
            .collect(),
    )
}

fn chain_sql(n: usize) -> String {
    let mut sql = format!("SELECT t1.id, t{n}.v FROM t1");
    for k in 2..=n {
        sql.push_str(&format!(" JOIN t{k} ON t{}.next_id = t{k}.id", k - 1));
    }
    sql.push_str(&format!(" WHERE t1.v = 7 AND t{n}.id <> 1000007"));
    sql
}

#[test]
fn an_eight_way_chain_plans_inside_the_budget() {
    let conn = chain_connection();
    let rows = check_rows(&conn, &chain_sql(8));
    assert!(!rows.is_empty());
}

#[test]
fn ledger_chains_plan_no_dearer_than_the_rule_cascade() {
    // The costs the commute + associate cascade chose for these chains,
    // to the unit: the weighed cost adds a millionth per output row as a
    // tie-break.
    let conn = chain_connection();
    let mq = conn.metadata_query();
    for (n, cascade) in [(4, 15_075.0), (6, 45_070.0)] {
        let plan = conn
            .optimize(&conn.parse_to_rel(&chain_sql(n)).unwrap())
            .unwrap();
        let cost = mq.cost_model().weigh(&mq.cumulative_cost(&plan));
        assert!(cost < cascade + 1.0, "join{n}: {cost} > {cascade}");
    }
}

#[test]
fn a_view_over_a_three_way_join_still_serves_it() {
    let conn = chain_connection();
    let def = "SELECT t1.id, t3.v FROM t1 JOIN t2 ON t1.next_id = t2.id \
               JOIN t3 ON t2.next_id = t3.id";
    conn.query(&format!("CREATE MATERIALIZED VIEW trio AS {def}"))
        .unwrap();
    let plan = conn.explain(def).unwrap();
    assert!(plan.contains("-- mv: substituted mv.trio"), "{plan}");
    assert!(plan.contains("Scan(mv.trio)"), "{plan}");
    let served = check_rows(&conn, def);
    assert!(!served.is_empty());
}
