//! Row vs batch execution benches: the same plans run through the
//! row-at-a-time interpreter and the streaming vectorized batch path
//! over 100k-row memdb tables (native columnar scans). Workloads cover
//! the kernels that matter for throughput: filter, project,
//! filter+project pipelines, hash join, grouped aggregation and Top-K
//! sort — plus one pair isolating the streaming execution shape:
//! a fused Scan→Filter→Project drained batch by batch vs materializing
//! every row at the engine boundary.
//!
//! Each plan's two engines are cross-checked for identical results at
//! startup, so the bench cannot silently measure a wrong answer.
//!
//! `scan_residency` guards `MemTable`'s version store on a 500k × 7
//! table: every scan is warm — sliced out of the resident chunks — also
//! the one right after a write, and a write beside an open scan copies
//! one chunk, not the table.
//!
//! `figure4_keys` guards the key kernel on the paper's Figure 4 shape
//! (fact ⋈ dimension, filter, group): a join must not cost a multiple of
//! the scan that feeds it, and grouping by a string key must not cost a
//! multiple of grouping by an integer key.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rcalcite_adapters::jdbc::JdbcAdapter;
use rcalcite_adapters::Pushdown;
use rcalcite_backends::memdb::MemDb;
use rcalcite_core::catalog::{Catalog, MemTable, Schema, Table, TableRef};
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::exec::{ExecContext, Parallelism};
use rcalcite_core::rel::{self, AggCall, AggFunc, JoinKind, Rel};
use rcalcite_core::rex::{Op, RexNode};
use rcalcite_core::traits::FieldCollation;
use rcalcite_core::txn::DeltaOp;
use rcalcite_core::types::{RelType, RowTypeBuilder, TypeKind};
use rcalcite_enumerable::{execute_batches, EnumerableExecutor};
use rcalcite_sql::{Connection, PostgresDialect};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 100_000;
const CUSTS: usize = 1_000;

fn scan_of(adapter: &Arc<JdbcAdapter>, name: &str) -> Rel {
    let schema = adapter.schema();
    rel::scan(TableRef::new("db", name, schema.table(name).unwrap()))
}

/// The bench schema: `sales` (100k rows) and `custs` (1k rows) in memdb,
/// scanned through the JDBC adapter's native columnar path.
fn setup() -> (Rel, Rel) {
    let db = MemDb::new();
    db.create_table(
        "sales",
        vec![
            ("id".into(), TypeKind::Integer),
            ("custid".into(), TypeKind::Integer),
            ("category".into(), TypeKind::Integer),
            ("amount".into(), TypeKind::Integer),
            ("price".into(), TypeKind::Double),
        ],
        (0..ROWS as i64)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    Datum::Int(i % CUSTS as i64),
                    Datum::Int(i % 32),
                    if i % 17 == 0 {
                        Datum::Null
                    } else {
                        Datum::Int(i % 1000)
                    },
                    Datum::Double((i % 997) as f64),
                ]
            })
            .collect(),
    );
    db.create_table(
        "custs",
        vec![
            ("custid".into(), TypeKind::Integer),
            ("region".into(), TypeKind::Integer),
        ],
        (0..CUSTS as i64)
            .map(|i| vec![Datum::Int(i), Datum::Int(i % 7)])
            .collect(),
    );
    let adapter = JdbcAdapter::new(db, "mysql", Arc::new(PostgresDialect));
    (scan_of(&adapter, "sales"), scan_of(&adapter, "custs"))
}

fn row_ctx() -> ExecContext {
    let mut c = ExecContext::new();
    rcalcite_enumerable::register_executors(&mut c);
    c
}

fn batch_ctx() -> ExecContext {
    let mut c = ExecContext::new();
    c.register(Arc::new(EnumerableExecutor::interpreter()));
    c
}

fn int_in(i: usize) -> RexNode {
    RexNode::input(i, RelType::nullable(TypeKind::Integer))
}

fn workloads(sales: &Rel, custs: &Rel) -> Vec<(&'static str, Rel)> {
    vec![
        (
            "filter",
            rel::filter(
                sales.clone(),
                RexNode::input(4, RelType::nullable(TypeKind::Double))
                    .gt(RexNode::lit_double(500.0)),
            ),
        ),
        (
            "project",
            rel::project(
                sales.clone(),
                vec![
                    RexNode::call(Op::Times, vec![int_in(3), RexNode::lit_int(2)]),
                    RexNode::call(Op::Plus, vec![int_in(0), int_in(3)]),
                ],
                vec!["a2".into(), "ia".into()],
            ),
        ),
        (
            "filter_project",
            rel::project(
                rel::filter(sales.clone(), int_in(3).gt(RexNode::lit_int(500))),
                vec![
                    int_in(2),
                    RexNode::call(Op::Plus, vec![int_in(3), RexNode::lit_int(1)]),
                ],
                vec!["cat".into(), "a1".into()],
            ),
        ),
        (
            "hash_join",
            rel::join(
                sales.clone(),
                custs.clone(),
                JoinKind::Inner,
                int_in(1).eq(int_in(5)),
            ),
        ),
        (
            "aggregate",
            rel::aggregate(
                sales.clone(),
                vec![2],
                vec![
                    AggCall::count_star("c"),
                    AggCall::new(AggFunc::Sum, vec![3], false, "s", sales.row_type()),
                    AggCall::new(AggFunc::Avg, vec![3], false, "a", sales.row_type()),
                ],
            ),
        ),
        (
            // ORDER BY price DESC LIMIT 10: a full stable sort in the
            // row engine, a bounded Top-K heap in the batch engine.
            "sort_topk",
            rel::sort_limit(
                sales.clone(),
                vec![FieldCollation::desc(4)],
                Some(5),
                Some(10),
            ),
        ),
    ]
}

/// The fusion-sensitive pipeline: Scan→Filter→Project where the filter
/// passes about half the rows, so the mask-vs-materialize difference is
/// what gets measured.
fn fused_pipeline(sales: &Rel) -> Rel {
    rel::project(
        rel::filter(sales.clone(), int_in(3).gt(RexNode::lit_int(500))),
        vec![
            int_in(2),
            RexNode::call(Op::Plus, vec![int_in(3), RexNode::lit_int(1)]),
        ],
        vec!["cat".into(), "a1".into()],
    )
}

/// Drains the streaming batch stream, counting live rows batch by
/// batch — nothing is held beyond the batch in flight.
fn drain_streaming(plan: &Rel, ctx: &ExecContext) -> usize {
    let mut it = execute_batches(plan, ctx).unwrap();
    it.open().unwrap();
    let mut n = 0;
    while let Some(b) = it.next().unwrap() {
        n += b.live_rows();
    }
    n
}

fn bench_executors(c: &mut Criterion) {
    let (sales, custs) = setup();
    let row = row_ctx();
    let batch = batch_ctx();
    let mut g = c.benchmark_group("executor");
    g.sample_size(10).measurement_time(Duration::from_secs(1));

    for (name, plan) in workloads(&sales, &custs) {
        // Cross-check once: the bench must never time a wrong answer.
        let mut a = row.execute_collect(&plan).unwrap();
        let mut b = batch.execute_collect(&plan).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b, "row/batch divergence in workload '{name}'");
        drop((a, b));

        g.throughput(Throughput::Elements(ROWS as u64));
        g.bench_with_input(BenchmarkId::new("row", name), &plan, |bench, plan| {
            bench.iter(|| black_box(row.execute_collect(plan).unwrap().len()))
        });
        g.bench_with_input(BenchmarkId::new("batch", name), &plan, |bench, plan| {
            bench.iter(|| black_box(batch.execute_collect(plan).unwrap().len()))
        });
    }

    // The fused Scan→Filter→Project drained through the streaming tree,
    // cross-checked against the row engine first.
    let pipeline = fused_pipeline(&sales);
    assert_eq!(
        drain_streaming(&pipeline, &batch),
        row.execute_collect(&pipeline).unwrap().len(),
        "row/batch divergence in the fused pipeline"
    );
    g.throughput(Throughput::Elements(ROWS as u64));
    g.bench_with_input(
        BenchmarkId::new("batch_fused", "filter_project"),
        &pipeline,
        |bench, plan| bench.iter(|| black_box(drain_streaming(plan, &batch))),
    );

    // Streaming batch pulls vs materializing every row at the engine
    // boundary: `batch_fused` above IS the streaming measurement (the
    // same plan drained batch by batch); this case adds the row pivot +
    // full materialization that the streaming drain avoids.
    g.bench_with_input(
        BenchmarkId::new("batch_materialized", "filter_project"),
        &pipeline,
        |bench, plan| bench.iter(|| black_box(batch.execute_collect(plan).unwrap().len())),
    );
    g.finish();
}

/// Morsel-driven parallel scaling: the 100k-row
/// scan→filter→project→aggregate pipeline at 1/2/4/8 workers (morsel
/// size 4096). Workers=1 runs the serial operators — the baseline the
/// speedup is measured against. Results are cross-checked against the
/// serial engine before timing, so the bench cannot reward a wrong
/// answer. (Scaling requires cores; on a single-core host all points
/// collapse to the serial time plus exchange overhead.)
fn bench_parallel_scaling(c: &mut Criterion) {
    let (sales, _) = setup();
    let pipeline = rel::aggregate(
        fused_pipeline(&sales),
        vec![0],
        vec![
            AggCall::count_star("c"),
            AggCall::new(
                AggFunc::Sum,
                vec![1],
                false,
                "s",
                fused_pipeline(&sales).row_type(),
            ),
        ],
    );
    let serial = batch_ctx();
    let mut reference = serial.execute_collect(&pipeline).unwrap();
    reference.sort();

    let mut g = c.benchmark_group("parallel_scaling");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    g.throughput(Throughput::Elements(ROWS as u64));
    for workers in [1usize, 2, 4, 8] {
        let mut ctx = batch_ctx();
        ctx.set_parallelism(Parallelism::new(workers, 4096));
        let mut got = ctx.execute_collect(&pipeline).unwrap();
        got.sort();
        assert_eq!(got, reference, "parallel divergence at {workers} workers");
        g.bench_with_input(
            BenchmarkId::new("workers", workers),
            &pipeline,
            |bench, plan| bench.iter(|| black_box(ctx.execute_collect(plan).unwrap().len())),
        );
    }
    g.finish();
}

/// The in-memory→spill cliff: hash join, grouped aggregation and full
/// sort on the 100k-row pipeline at budget ∞, 1/2 and 1/8 of each
/// workload's measured working set. The working set comes from the
/// budget accounting itself (peak reservation under a bound nothing
/// spills at), the 1/8 point is clamped up to one spill page (smaller
/// budgets are a query error by contract), and every budgeted run is
/// cross-checked byte-for-byte against the unbounded result before
/// timing.
fn bench_out_of_core(c: &mut Criterion) {
    use rcalcite_core::buffer::{MemoryBudget, PAGE_SIZE};
    let (sales, custs) = setup();
    let workloads = vec![
        (
            // Self-join on id: the build side is the full 100k-row table.
            "join",
            rel::join(
                sales.clone(),
                sales.clone(),
                JoinKind::Inner,
                int_in(0).eq(int_in(5)),
            ),
        ),
        (
            "aggregate",
            rel::aggregate(
                sales.clone(),
                vec![1],
                vec![
                    AggCall::count_star("c"),
                    AggCall::new(AggFunc::Sum, vec![3], false, "s", sales.row_type()),
                    AggCall::new(AggFunc::Avg, vec![3], false, "a", sales.row_type()),
                ],
            ),
        ),
        (
            "sort",
            rel::sort_limit(
                sales.clone(),
                vec![FieldCollation::asc(2), FieldCollation::desc(3)],
                None,
                None,
            ),
        ),
        (
            "join_custs",
            rel::join(
                sales.clone(),
                custs.clone(),
                JoinKind::Inner,
                int_in(1).eq(int_in(5)),
            ),
        ),
    ];
    let mut g = c.benchmark_group("out_of_core");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    for (name, plan) in workloads {
        // Probe run under a bound nothing spills at: the reference
        // result plus the peak reservation = the working set.
        let probe = batch_ctx();
        let mut probe = probe;
        probe.set_memory_budget(MemoryBudget::bytes(1 << 30));
        let reference = probe.execute_collect(&plan).unwrap();
        assert!(
            probe.spill_tracker().stayed_in_memory(),
            "probe spilled in workload '{name}'"
        );
        let working_set = probe.memory_budget().peak();
        assert!(working_set > 0, "no reservations in workload '{name}'");
        let budgets = [
            ("unbounded", None),
            ("half", Some((working_set / 2).max(PAGE_SIZE))),
            ("eighth", Some((working_set / 8).max(PAGE_SIZE))),
        ];
        for (label, budget) in budgets {
            let mut ctx = batch_ctx();
            ctx.set_memory_budget(budget.map_or_else(MemoryBudget::unbounded, MemoryBudget::bytes));
            assert_eq!(
                ctx.execute_collect(&plan).unwrap(),
                reference,
                "budgeted divergence in workload '{name}' at {label}"
            );
            g.throughput(Throughput::Elements(ROWS as u64));
            g.bench_with_input(BenchmarkId::new(name, label), &plan, |bench, plan| {
                bench.iter(|| black_box(ctx.execute_collect(plan).unwrap().len()))
            });
        }
    }
    g.finish();
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed()
}

/// What scans and writes cost each other on `MemTable`'s version store,
/// on a fact table the size of the ledger's `analytics` one (500k rows ×
/// 7 columns). The table *is* its column chunks: a scan slices batches
/// out of the current version, a write patches the chunk it lands in —
/// in place when nothing pins that version, on a copy of the one chunk
/// when an open scan or transaction does. In-process guards, before
/// anything is timed for the report:
///
/// - a scan after a single-row `apply_delta` costs no more than 1.2× the
///   scans around it (interleaved): there is no cold scan any more, the
///   write left nothing behind to rebuild;
/// - a single-row `apply_delta` beside a pinned snapshot — spine plus
///   one chunk copied — stays within 1 % of a scan of an unpinned one
///   (`commit_scaling` in the `txn` bench guards both against the table
///   size). When every write dropped a whole-table mirror and every
///   pinned write deep-copied 500k rows, that margin was three orders
///   of magnitude away.
///
/// The warm scan's throughput is printed in Mrows/s for comparison with
/// the parent commit's (its mirror served the same slices).
fn bench_scan_residency(c: &mut Criterion) {
    const FACT_ROWS: i64 = 500_000;
    const SAMPLES: usize = 9;
    let fact_row = |i: i64, amount: i64| -> Row {
        vec![
            Datum::Int(i),
            Datum::Int(i % 365),
            Datum::Int((i * 31) % 8),
            Datum::Int((i * 17) % 200),
            Datum::Int((i * 7919) % 5_000),
            Datum::Int(amount),
            if i % 5 == 0 {
                Datum::Null
            } else {
                Datum::Int(i % 30)
            },
        ]
    };
    let mut rt = RowTypeBuilder::new();
    for name in ["id", "day", "region_id", "store_id", "product_id", "amount"] {
        rt = rt.add_not_null(name, TypeKind::Integer);
    }
    let table = MemTable::new(
        rt.add("discount", TypeKind::Integer).build(),
        (0..FACT_ROWS).map(|i| fact_row(i, i % 1000)).collect(),
    );
    // SELECT id, amount FROM fact WHERE day = 17 AND region_id = 3
    let plan = rel::project(
        rel::filter(
            rel::scan(TableRef::new("mart", "fact", table.clone())),
            RexNode::and_all(vec![
                int_in(1).eq(RexNode::lit_int(17)),
                int_in(2).eq(RexNode::lit_int(3)),
            ]),
        ),
        vec![int_in(0), int_in(5)],
        vec!["id".into(), "amount".into()],
    );
    let ctx = batch_ctx();
    let hits = (0..FACT_ROWS)
        .filter(|i| i % 365 == 17 && (i * 31) % 8 == 3)
        .count();
    let scan = || {
        let n = ctx.execute_collect(&plan).unwrap().len();
        assert_eq!(n, hits, "selective scan returned the wrong rows");
    };
    let step = std::cell::Cell::new(0i64);
    let write = || {
        let i = step.get();
        step.set(i + 1);
        let id = (i * 7919) % FACT_ROWS;
        let ops = [DeltaOp::Update {
            row_id: id as u64,
            row: fact_row(id, 1000 + i),
        }];
        timed(|| table.apply_delta(&ops).unwrap())
    };

    // Interleaved, so a noisy stretch hits every kind of sample: a scan,
    // a bare write, the scan after it, and a write beside a snapshot
    // taken since the last one (so it finds every chunk shared).
    let first = timed(scan);
    let (mut warm, mut bare, mut after_write, mut pinned) = (vec![], vec![], vec![], vec![]);
    for _ in 0..SAMPLES {
        warm.push(timed(scan));
        bare.push(write());
        after_write.push(timed(scan));
        let snapshot = table.scan_snapshot().unwrap();
        pinned.push(write());
        drop(snapshot);
    }
    let (warm, bare, after_write, pinned) = (
        median(warm),
        median(bare),
        median(after_write),
        median(pinned),
    );
    eprintln!(
        "scan_residency/selective: first {first:?}, warm {warm:?} ({:.1} Mrows/s), \
         after a write {after_write:?} ({:.2}x warm)",
        FACT_ROWS as f64 / warm.as_secs_f64() / 1e6,
        after_write.as_secs_f64() / warm.as_secs_f64()
    );
    eprintln!("scan_residency/write: {bare:?} unpinned, {pinned:?} beside a pinned snapshot");
    assert!(
        after_write.as_secs_f64() <= warm.as_secs_f64() * 1.2,
        "scan after a single-row write {after_write:?} vs warm scan {warm:?}"
    );
    assert!(
        pinned.as_secs_f64() <= bare.as_secs_f64() + warm.as_secs_f64() * 0.01,
        "single-row write {pinned:?} beside a pinned snapshot vs {bare:?} without"
    );

    let mut g = c.benchmark_group("scan_residency");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    g.throughput(Throughput::Elements(FACT_ROWS as u64));
    g.bench_function("selective/warm", |b| b.iter(scan));
    g.bench_function("selective/after_write", |b| {
        b.iter(|| {
            write();
            scan();
        })
    });
    g.finish();
}

/// Figure 4's query — join, filter, group — as costs relative to the
/// work around the keys, on a 100k-row fact table and a 10k-row
/// dimension behind a serial `Connection`. Two in-process guards, both
/// ratios of medians taken interleaved on the same tables, so they hold
/// on any machine:
///
/// - the filtered probe side joined to the dimension and counted costs
///   at most 3× the filtered scan alone (3.6× when every build and
///   probe row allocated and SipHashed a `Vec<Datum>` key; 1.7× now);
/// - `GROUP BY` a 13-byte string key costs at most 2× `GROUP BY` the
///   integer key of the same cardinality (2.6× before; 1.7× now).
///
/// Every statement is cross-checked against the row engine first.
fn bench_figure4_keys(c: &mut Criterion) {
    const FACT: i64 = 100_000;
    const DIM: i64 = 10_000;
    const SAMPLES: usize = 15;
    let name = |id: i64| format!("product{id:06}");
    let catalog = Catalog::new();
    let schema = Schema::new();
    schema.add_table(
        "fact",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add_not_null("dim_id", TypeKind::Integer)
                .add_not_null("dim_name", TypeKind::Varchar)
                .add_not_null("day", TypeKind::Integer)
                .add("discount", TypeKind::Integer)
                .build(),
            (0..FACT)
                .map(|i| {
                    let dim_id = (i * 7919) % DIM;
                    vec![
                        Datum::Int(i),
                        Datum::Int(dim_id),
                        // One allocation per row: equal keys do not
                        // share a pointer.
                        Datum::str(name(dim_id)),
                        Datum::Int((i * 31) % 365),
                        if i % 10 < 3 {
                            Datum::Null
                        } else {
                            Datum::Int(i % 30)
                        },
                    ]
                })
                .collect(),
        ),
    );
    schema.add_table(
        "dim",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("dim_id", TypeKind::Integer)
                .add_not_null("name", TypeKind::Varchar)
                .build(),
            (0..DIM)
                .map(|id| vec![Datum::Int(id), Datum::str(name(id))])
                .collect(),
        ),
    );
    catalog.add_schema("mart", schema);
    let conn = Connection::builder(catalog.clone()).workers(1).build();
    let mut oracle = ExecContext::new();
    rcalcite_enumerable::register_executors(&mut oracle);

    const FILTER: &str = "f.discount IS NOT NULL AND f.day >= 100";
    let scan = format!("SELECT COUNT(*) FROM fact f WHERE {FILTER}");
    let join =
        format!("SELECT COUNT(*) FROM fact f JOIN dim d ON f.dim_id = d.dim_id WHERE {FILTER}");
    let by_int = "SELECT dim_id, COUNT(*) FROM fact GROUP BY dim_id";
    let by_str = "SELECT dim_name, COUNT(*) FROM fact GROUP BY dim_name";
    let figure4 = format!(
        "SELECT d.name, COUNT(*) AS c FROM fact f JOIN dim d ON f.dim_id = d.dim_id \
         WHERE {FILTER} GROUP BY d.name ORDER BY c DESC, d.name"
    );
    let stmts: Vec<_> = [&scan, &join, by_int, by_str, &figure4]
        .into_iter()
        .map(|sql| {
            let mut fused = conn.query(sql).unwrap().rows;
            let plan = conn.optimize(&conn.parse_to_rel(sql).unwrap()).unwrap();
            let mut rows = oracle.execute_collect(&plan).unwrap();
            fused.sort();
            rows.sort();
            assert_eq!(fused, rows, "engines disagree on {sql}");
            conn.prepare(sql).unwrap()
        })
        .collect();
    let run = |k: usize| stmts[k].query(&[]).unwrap().rows.len();

    // Interleaved, so a noisy stretch hits numerator and denominator.
    let mut samples = vec![vec![]; 4];
    for _ in 0..SAMPLES {
        for (k, s) in samples.iter_mut().enumerate() {
            s.push(timed(|| run(k)));
        }
    }
    let m: Vec<Duration> = samples.into_iter().map(median).collect();
    let ratio = |a: Duration, b: Duration| a.as_secs_f64() / b.as_secs_f64();
    eprintln!(
        "figure4_keys: scan {:?}, join+count {:?} ({:.2}x scan); \
         group by int {:?}, by 13-byte string {:?} ({:.2}x int)",
        m[0],
        m[1],
        ratio(m[1], m[0]),
        m[2],
        m[3],
        ratio(m[3], m[2])
    );
    assert!(
        ratio(m[1], m[0]) <= 3.0,
        "join + COUNT(*) {:?} costs more than 3x its filtered scan {:?}",
        m[1],
        m[0]
    );
    assert!(
        ratio(m[3], m[2]) <= 2.0,
        "GROUP BY a string key {:?} costs more than 2x GROUP BY an integer key {:?}",
        m[3],
        m[2]
    );

    let mut g = c.benchmark_group("figure4_keys");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    for (k, name) in ["scan", "join_count", "group_int", "group_str", "figure4"]
        .into_iter()
        .enumerate()
    {
        g.bench_function(name, |b| b.iter(|| run(k)));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_executors,
    bench_parallel_scaling,
    bench_out_of_core,
    bench_scan_residency,
    bench_figure4_keys
);
criterion_main!(benches);
