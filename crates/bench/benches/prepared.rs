//! Planning-amortization benches for the prepared-statement front door:
//! the same statement executed many times through (a) `Connection::query`
//! with the plan cache disabled — parse + validate + optimize on every
//! call, the pre-PR-4 behavior — (b) `query` with the plan cache on —
//! parse per call, planning amortized — and (c) a bound
//! `PreparedStatement` — no per-call parse or planning at all. Every
//! variant is cross-checked at startup against the row engine running
//! the same optimized plan, so the bench cannot measure a wrong answer.

use criterion::{criterion_group, criterion_main, Criterion};
use rcalcite_core::catalog::{Catalog, MemTable, Schema};
use rcalcite_core::datum::Datum;
use rcalcite_core::exec::ExecContext;
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use rcalcite_sql::Connection;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const ROWS: i64 = 10_000;
/// Executions per bench iteration — the server-workload shape: one
/// statement, many calls.
const EXECS: usize = 1_000;

const PREPARED_SQL: &str = "SELECT custid, SUM(amount) AS s FROM mart.sales \
     WHERE amount > ? GROUP BY custid ORDER BY s DESC LIMIT 10";
const LITERAL_SQL: &str = "SELECT custid, SUM(amount) AS s FROM mart.sales \
     WHERE amount > 500 GROUP BY custid ORDER BY s DESC LIMIT 10";

fn catalog() -> Arc<Catalog> {
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "sales",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add_not_null("custid", TypeKind::Integer)
                .add("amount", TypeKind::Integer)
                .build(),
            (0..ROWS)
                .map(|i| {
                    vec![
                        Datum::Int(i),
                        Datum::Int(i % 100),
                        if i % 17 == 0 {
                            Datum::Null
                        } else {
                            Datum::Int(i % 1000)
                        },
                    ]
                })
                .collect(),
        ),
    );
    catalog.add_schema("mart", s);
    catalog
}

fn conn(plan_cache: bool) -> Connection {
    Connection::builder(catalog())
        .plan_cache_capacity(if plan_cache { 128 } else { 0 })
        .build()
}

fn bench_prepared_vs_reparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("prepared_vs_reparse");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    let reparse = conn(false);
    let cached = conn(true);
    let prepared_conn = conn(true);
    let stmt = prepared_conn.prepare(PREPARED_SQL).unwrap();

    // Cross-check before timing: all three paths agree with the row
    // engine on the same optimized plan.
    let reference = reparse.query(LITERAL_SQL).unwrap();
    let plan = reparse
        .optimize(&reparse.parse_to_rel(LITERAL_SQL).unwrap())
        .unwrap();
    let mut oracle = ExecContext::new();
    rcalcite_enumerable::register_executors(&mut oracle);
    assert_eq!(reference.rows, oracle.execute_collect(&plan).unwrap());
    assert_eq!(cached.query(LITERAL_SQL).unwrap(), reference);
    assert_eq!(stmt.query(&[Datum::Int(500)]).unwrap(), reference);

    group.bench_function("reparse_query", |b| {
        b.iter(|| {
            for _ in 0..EXECS {
                black_box(reparse.query(LITERAL_SQL).unwrap());
            }
        })
    });
    group.bench_function("cached_query", |b| {
        b.iter(|| {
            for _ in 0..EXECS {
                black_box(cached.query(LITERAL_SQL).unwrap());
            }
        })
    });
    group.bench_function("prepared_bind", |b| {
        b.iter(|| {
            for _ in 0..EXECS {
                black_box(stmt.query(&[Datum::Int(500)]).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_prepared_vs_reparse);
criterion_main!(benches);
