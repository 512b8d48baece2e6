//! # rcalcite-bench
//!
//! Shared workload builders for the criterion benches and the `repro`
//! binary that regenerates every table and figure of the paper (see
//! EXPERIMENTS.md for the index).

use rcalcite_core::catalog::{Catalog, MemTable, Schema, Statistic};
use rcalcite_core::datum::Datum;
use rcalcite_core::rel::{self, JoinKind, Rel};
use rcalcite_core::rex::RexNode;
use rcalcite_core::types::{RelType, RowTypeBuilder, TypeKind};
use rcalcite_sql::Connection;
use std::sync::Arc;

/// A connection over the Figure 4 schema (`sales`, `products`) with
/// generated data. `sales_n` rows of sales; `null_discount_fraction` in
/// \[0,1\] controls the selectivity of the paper's `discount IS NOT NULL`
/// predicate.
pub fn figure4_connection(
    sales_n: usize,
    products_n: usize,
    null_discount_fraction: f64,
) -> Connection {
    let catalog = Catalog::new();
    let s = Schema::new();
    // Row i gets a NULL discount when (i mod 100) falls below the
    // requested percentage, giving an exact fraction for multiples of 1%.
    let null_pct = (null_discount_fraction * 100.0).round() as usize;
    s.add_table(
        "sales",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("productid", TypeKind::Integer)
                .add("discount", TypeKind::Double)
                .add_not_null("amount", TypeKind::Integer)
                .build(),
            (0..sales_n)
                .map(|i| {
                    vec![
                        Datum::Int((i % products_n.max(1)) as i64),
                        if (i * 37) % 100 < null_pct {
                            Datum::Null
                        } else {
                            Datum::Double((i % 10) as f64 / 10.0)
                        },
                        Datum::Int((i % 100) as i64),
                    ]
                })
                .collect(),
        ),
    );
    s.add_table(
        "products",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("productid", TypeKind::Integer)
                .add_not_null("name", TypeKind::Varchar)
                .build(),
            (0..products_n as i64)
                .map(|i| vec![Datum::Int(i), Datum::str(format!("product{i}"))])
                .collect(),
        )
        .with_statistic(Statistic::of_rows(products_n as f64).with_key(vec![0])),
    );
    catalog.add_schema("store", s);
    Connection::new(catalog)
}

/// The paper's Figure 4 query.
pub const FIGURE4_SQL: &str = "SELECT products.name, COUNT(*) \
    FROM sales JOIN products USING (productid) \
    WHERE sales.discount IS NOT NULL \
    GROUP BY products.name \
    ORDER BY COUNT(*) DESC";

/// Builds a left-deep chain of `n_tables` inner joins over tables of
/// alternating sizes — the join-reordering workload for the
/// planner-engine comparison (§6a).
pub fn join_chain(n_tables: usize, base_rows: usize) -> (Arc<Catalog>, Rel) {
    let catalog = Catalog::new();
    let schema = Schema::new();
    for i in 0..n_tables {
        // Alternate big and small tables so join order matters.
        let rows = if i % 2 == 0 {
            base_rows
        } else {
            base_rows / 50 + 1
        };
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("k", TypeKind::Integer)
                .add_not_null(format!("v{i}"), TypeKind::Integer)
                .build(),
            (0..rows as i64)
                .map(|r| vec![Datum::Int(r % 100), Datum::Int(r)])
                .collect(),
        );
        schema.add_table(format!("t{i}"), t);
    }
    catalog.add_schema("chain", schema);
    let mut scans: Vec<Rel> = vec![];
    for i in 0..n_tables {
        scans.push(rel::scan(
            catalog.resolve(&["chain", &format!("t{i}")]).unwrap(),
        ));
    }
    let int_ty = RelType::not_null(TypeKind::Integer);
    let mut plan = scans[0].clone();
    let mut left_arity = 2;
    for scan in scans.into_iter().skip(1) {
        let cond = RexNode::input(0, int_ty.clone()).eq(RexNode::input(left_arity, int_ty.clone()));
        plan = rel::join(plan, scan, JoinKind::Inner, cond);
        left_arity += 2;
    }
    (catalog, plan)
}

/// A deep filter/project tower over one table: stresses metadata
/// computation (cardinality chains) for the §6b cache bench.
pub fn deep_plan(depth: usize, rows: usize) -> Rel {
    let t = MemTable::new(
        RowTypeBuilder::new()
            .add_not_null("a", TypeKind::Integer)
            .add_not_null("b", TypeKind::Integer)
            .build(),
        (0..rows as i64)
            .map(|i| vec![Datum::Int(i), Datum::Int(i % 7)])
            .collect(),
    );
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table("t", t);
    catalog.add_schema("d", s);
    let int_ty = RelType::not_null(TypeKind::Integer);
    let mut plan = rel::scan(catalog.resolve(&["d", "t"]).unwrap());
    for i in 0..depth {
        plan = rel::filter(
            plan,
            RexNode::input(0, int_ty.clone()).gt(RexNode::lit_int(i as i64)),
        );
        plan = rel::project(
            plan,
            vec![
                RexNode::input(0, int_ty.clone()),
                RexNode::input(1, int_ty.clone()),
            ],
            vec!["a".into(), "b".into()],
        );
    }
    plan
}
