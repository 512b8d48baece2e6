//! Differential testing of morsel-driven parallel execution: every plan
//! run with workers ∈ {1, 2, 4, 7} must produce output **byte-identical**
//! to serial batch execution (not just the same multiset — the exchange
//! operators preserve serial order), and agree with the row engine as a
//! multiset. Also covers the determinism guarantee for ORDER BY across
//! worker counts, and the bounded-prefetch guarantee: a LIMIT must not
//! let workers run the scan to completion.

use proptest::prelude::*;
use rcalcite_adapters::jdbc::JdbcAdapter;
use rcalcite_backends::memdb::MemDb;
use rcalcite_core::catalog::{RangeScan, Table, TableRef};
use rcalcite_core::datum::{Column, Datum, Row};
use rcalcite_core::error::Result as CoreResult;
use rcalcite_core::exec::{BatchIter, ExecContext, Parallelism, SlicedColumns};
use rcalcite_core::rel::{self, AggCall, AggFunc, JoinKind, Rel};
use rcalcite_core::rex::{Op, RexNode};
use rcalcite_core::traits::FieldCollation;
use rcalcite_core::types::{RelType, RowType, RowTypeBuilder, TypeKind};
use rcalcite_enumerable::EnumerableExecutor;
use rcalcite_sql::{Connection, PostgresDialect};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn row_ctx() -> ExecContext {
    let mut c = ExecContext::new();
    c.register(Arc::new(EnumerableExecutor::interpreter()));
    c
}

fn batch_ctx() -> ExecContext {
    let mut c = ExecContext::new();
    c.register(Arc::new(EnumerableExecutor::batched_interpreter()));
    c
}

/// The connection's optimized plan for `sql`, run by the row engine.
fn sql_row_oracle(conn: &Connection, sql: &str) -> Vec<Row> {
    let plan = conn.optimize(&conn.parse_to_rel(sql).unwrap()).unwrap();
    let mut ctx = ExecContext::new();
    rcalcite_enumerable::register_executors(&mut ctx);
    ctx.execute_collect(&plan).unwrap()
}

fn par_ctx(workers: usize, morsel: usize) -> ExecContext {
    let mut c = batch_ctx();
    c.set_parallelism(Parallelism::new(workers, morsel));
    c
}

/// Workers forced through the harness-wide `RCALCITE_TEST_WORKERS`
/// hook (the CI matrix job sets it to 4), alongside the fixed ladder.
fn worker_ladder() -> Vec<usize> {
    let mut ws = vec![1, 2, 4, 7];
    if let Some(n) = std::env::var("RCALCITE_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        if !ws.contains(&n) {
            ws.push(n);
        }
    }
    ws
}

/// Parallel execution must be byte-identical to serial batch execution
/// at every worker count, and agree with the row engine as a multiset.
fn assert_parallel_identical(plan: &Rel, morsel: usize) {
    let serial = batch_ctx().execute_collect(plan).unwrap();
    for workers in worker_ladder() {
        let par = par_ctx(workers, morsel).execute_collect(plan).unwrap();
        assert_eq!(par, serial, "workers={workers} morsel={morsel}");
    }
    let mut row = row_ctx().execute_collect(plan).unwrap();
    let mut batch = serial;
    row.sort();
    batch.sort();
    assert_eq!(row, batch, "row/batch divergence");
}

/// A range-scannable base table: 600 rows, NULLs in both nullable
/// columns, enough distinct keys for joins and grouping.
fn base_scan() -> Rel {
    let rows: Vec<Row> = (0..600)
        .map(|i| {
            vec![
                Datum::Int(i % 17),
                if i % 13 == 0 {
                    Datum::Null
                } else {
                    Datum::Int(i % 100)
                },
                if i % 23 == 0 {
                    Datum::Null
                } else {
                    Datum::str(format!("s{}", i % 5))
                },
            ]
        })
        .collect();
    let t = rcalcite_core::catalog::MemTable::new(
        RowTypeBuilder::new()
            .add_not_null("x", TypeKind::Integer)
            .add("y", TypeKind::Integer)
            .add("s", TypeKind::Varchar)
            .build(),
        rows,
    );
    rel::scan(TableRef::new("t", "base", t))
}

fn int_ty() -> RelType {
    RelType::nullable(TypeKind::Integer)
}

#[test]
fn filter_project_chains_identical_across_worker_counts() {
    let plan = rel::project(
        rel::filter(
            base_scan(),
            RexNode::input(1, int_ty()).gt(RexNode::lit_int(30)),
        ),
        vec![
            RexNode::input(0, int_ty()),
            RexNode::call(
                Op::Times,
                vec![RexNode::input(1, int_ty()), RexNode::lit_int(3)],
            ),
        ],
        vec!["x".into(), "y3".into()],
    );
    for morsel in [16, 64, 250] {
        assert_parallel_identical(&plan, morsel);
    }
}

#[test]
fn aggregates_identical_across_worker_counts() {
    let rt = base_scan().row_type().clone();
    // Grouped, with every accumulator incl. AVG and a distinct count.
    let plan = rel::aggregate(
        base_scan(),
        vec![0],
        vec![
            AggCall::count_star("c"),
            AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt),
            AggCall::new(AggFunc::Avg, vec![1], false, "a", &rt),
            AggCall::new(AggFunc::Min, vec![1], false, "mn", &rt),
            AggCall::new(AggFunc::Max, vec![1], false, "mx", &rt),
            AggCall::new(AggFunc::Count, vec![2], true, "dc", &rt),
        ],
    );
    assert_parallel_identical(&plan, 32);
    // Global aggregate (single group, partial merge across workers).
    let plan = rel::aggregate(
        base_scan(),
        vec![],
        vec![
            AggCall::count_star("c"),
            AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt),
            AggCall::new(AggFunc::Count, vec![1], true, "dy", &rt),
        ],
    );
    assert_parallel_identical(&plan, 32);
    // Aggregate over a filtered chain (stages run on the workers).
    let plan = rel::aggregate(
        rel::filter(
            base_scan(),
            RexNode::input(1, int_ty()).lt(RexNode::lit_int(60)),
        ),
        vec![0],
        vec![AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt)],
    );
    assert_parallel_identical(&plan, 32);
}

#[test]
fn joins_identical_across_worker_counts() {
    let dim = {
        let t = rcalcite_core::catalog::MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("k", TypeKind::Integer)
                .add("name", TypeKind::Varchar)
                .build(),
            (0..12)
                .map(|i| {
                    vec![
                        Datum::Int(i),
                        if i % 5 == 0 {
                            Datum::Null
                        } else {
                            Datum::str(format!("d{i}"))
                        },
                    ]
                })
                .collect(),
        );
        rel::scan(TableRef::new("t", "dim", t))
    };
    let equi = RexNode::input(0, int_ty()).eq(RexNode::input(3, int_ty()));
    let theta = RexNode::input(0, int_ty()).lt(RexNode::input(3, int_ty()));
    for cond in [equi, theta] {
        for kind in [
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::Right,
            JoinKind::Full,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let plan = rel::join(base_scan(), dim.clone(), kind, cond.clone());
            assert_parallel_identical(&plan, 64);
        }
    }
}

// ---------------------------------------------------------------------
// Keys: every lane of the key kernel, workers 1 vs N
// ---------------------------------------------------------------------

/// Arity of [`keyed_scan`]: (i INT, d DOUBLE, s VARCHAR, t DATE,
/// ts TIMESTAMP NOT NULL, r INT NOT NULL).
const KEYED_ARITY: usize = 6;

/// A range-scannable table of `n` rows whose key columns collide across
/// lanes: Int values that equal Doubles, `-0.0` beside `0.0`, NaN, the
/// empty string, NULLs, and `DATE`/`TIMESTAMP` columns (no typed
/// vector). `salt` decorrelates the two sides of a join.
fn keyed_scan(name: &str, n: i64, salt: i64) -> Rel {
    let rows: Vec<Row> = (0..n)
        .map(|j| {
            let h = (j + salt) * 7919 % 1009;
            let null_if = |m: i64, d: Datum| if h % m == 0 { Datum::Null } else { d };
            vec![
                null_if(11, Datum::Int(h % 5)),
                null_if(
                    13,
                    match h % 7 {
                        5 => Datum::Double(-0.0),
                        6 => Datum::Double(f64::NAN),
                        v => Datum::Double(v as f64),
                    },
                ),
                null_if(
                    17,
                    if h % 6 == 0 {
                        Datum::str("")
                    } else {
                        Datum::str(format!("a-thirteen-b{}", h % 4))
                    },
                ),
                null_if(19, Datum::Date((h % 3) as i32)),
                Datum::Timestamp(h % 2 * 1_000),
                Datum::Int(j % 3),
            ]
        })
        .collect();
    let t = rcalcite_core::catalog::MemTable::new(
        RowTypeBuilder::new()
            .add("i", TypeKind::Integer)
            .add("d", TypeKind::Double)
            .add("s", TypeKind::Varchar)
            .add("t", TypeKind::Date)
            .add_not_null("ts", TypeKind::Timestamp)
            .add_not_null("r", TypeKind::Integer)
            .build(),
        rows,
    );
    rel::scan(TableRef::new("t", name, t))
}

/// Key shapes as (left columns, right columns): each typed lane,
/// Int = Double both ways round, the untyped kinds, and two- and
/// three-column keys mixing Int, Str and Date.
const KEY_SHAPES: [(&[usize], &[usize]); 10] = [
    (&[0], &[0]),
    (&[0], &[1]),
    (&[1], &[0]),
    (&[1], &[1]),
    (&[2], &[2]),
    (&[3], &[3]),
    (&[4], &[4]),
    (&[0, 2], &[0, 2]),
    (&[1, 2], &[0, 2]),
    (&[0, 2, 3], &[0, 2, 3]),
];

#[test]
fn keyed_joins_identical_across_worker_counts() {
    for (shape, (lk, rk)) in KEY_SHAPES.iter().enumerate() {
        for (k, kind) in [
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::Right,
            JoinKind::Full,
            JoinKind::Semi,
            JoinKind::Anti,
        ]
        .into_iter()
        .enumerate()
        {
            let mut conj: Vec<RexNode> = lk
                .iter()
                .zip(*rk)
                .map(|(&l, &r)| {
                    RexNode::input(l, int_ty()).eq(RexNode::input(KEYED_ARITY + r, int_ty()))
                })
                .collect();
            // Every other (shape, kind) also carries a residual.
            if (shape + k) % 2 == 1 {
                conj.push(RexNode::call(
                    Op::Le,
                    vec![
                        RexNode::input(5, int_ty()),
                        RexNode::input(KEYED_ARITY + 5, int_ty()),
                    ],
                ));
            }
            let plan = rel::join(
                keyed_scan("probe", 400, 0),
                keyed_scan("build", 90, 31),
                kind,
                RexNode::and_all(conj),
            );
            assert_parallel_identical(&plan, 64);
        }
    }
    // One key holding thousands of build rows (candidate order), and an
    // empty build side.
    let heavy = rel::filter(
        keyed_scan("build", 2_500, 5),
        RexNode::input(4, int_ty()).eq(RexNode::input(4, int_ty())),
    );
    let cond = RexNode::input(4, int_ty()).eq(RexNode::input(KEYED_ARITY + 4, int_ty()));
    for kind in [JoinKind::Inner, JoinKind::Full, JoinKind::Semi] {
        let plan = rel::join(
            keyed_scan("probe", 40, 0),
            heavy.clone(),
            kind,
            cond.clone(),
        );
        assert_parallel_identical(&plan, 16);
        let empty = rel::filter(
            keyed_scan("build", 90, 31),
            RexNode::input(5, int_ty()).gt(RexNode::lit_int(99)),
        );
        let plan = rel::join(keyed_scan("probe", 300, 0), empty, kind, cond.clone());
        assert_parallel_identical(&plan, 64);
    }
}

#[test]
fn keyed_aggregates_identical_across_worker_counts() {
    let base = keyed_scan("facts", 900, 3);
    let rt = base.row_type().clone();
    for (lk, _) in KEY_SHAPES {
        let plan = rel::aggregate(
            base.clone(),
            lk.to_vec(),
            vec![
                AggCall::count_star("c"),
                AggCall::new(AggFunc::Sum, vec![5], false, "s", &rt),
                AggCall::new(AggFunc::Count, vec![5], true, "dc", &rt),
                AggCall::new(AggFunc::Min, vec![2], false, "mn", &rt),
            ],
        );
        assert_parallel_identical(&plan, 48);
    }
}

#[test]
fn group_table_growth_identical_across_worker_counts() {
    // > 70 000 groups over a two-column (Int, Str) key: every worker's
    // table grows from empty many times over, and the partial merge
    // interns tens of thousands of keys batch-wise.
    let n = 72_000i64;
    let t = rcalcite_core::catalog::MemTable::new(
        RowTypeBuilder::new()
            .add_not_null("k", TypeKind::Integer)
            .add_not_null("s", TypeKind::Varchar)
            .add_not_null("v", TypeKind::Integer)
            .build(),
        (0..2 * n)
            .map(|j| {
                let g = j * 31 % n;
                vec![
                    Datum::Int(g % 300),
                    Datum::str(format!("group-{}", g / 300)),
                    Datum::Int(j % 5),
                ]
            })
            .collect(),
    );
    let scan = rel::scan(TableRef::new("t", "many_groups", t));
    let rt = scan.row_type().clone();
    let plan = rel::aggregate(
        scan,
        vec![0, 1],
        vec![
            AggCall::count_star("c"),
            AggCall::new(AggFunc::Sum, vec![2], false, "s", &rt),
        ],
    );
    let serial = batch_ctx().execute_collect(&plan).unwrap();
    assert_eq!(serial.len(), n as usize);
    for workers in [1usize, 4] {
        let par = par_ctx(workers, 4096).execute_collect(&plan).unwrap();
        assert!(par == serial, "workers={workers}");
    }
}

#[test]
fn order_by_is_byte_identical_across_worker_counts() {
    // Heavy collation ties (x has 17 distinct values over 600 rows):
    // the tiebreak must reproduce the serial stable sort at every
    // worker count, for full sorts and Top-K alike.
    for (offset, fetch) in [
        (None, None),
        (None, Some(25)),
        (Some(7), Some(10)),
        (Some(3), None),
    ] {
        let plan = rel::sort_limit(
            base_scan(),
            vec![FieldCollation::asc(0), FieldCollation::desc(1)],
            offset,
            fetch,
        );
        let reference = par_ctx(1, 48).execute_collect(&plan).unwrap();
        for workers in worker_ladder() {
            let got = par_ctx(workers, 48).execute_collect(&plan).unwrap();
            assert_eq!(
                got, reference,
                "ORDER BY not deterministic: workers={workers} offset={offset:?} fetch={fetch:?}"
            );
        }
    }
}

#[test]
fn full_pipeline_identical_through_sql_connection() {
    let catalog = rcalcite_core::catalog::Catalog::new();
    let s = rcalcite_core::catalog::Schema::new();
    s.add_table(
        "sales",
        rcalcite_core::catalog::MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("region", TypeKind::Integer)
                .add("amount", TypeKind::Integer)
                .build(),
            (0..800)
                .map(|i| {
                    vec![
                        Datum::Int(i % 9),
                        if i % 31 == 0 {
                            Datum::Null
                        } else {
                            Datum::Int(i % 250)
                        },
                    ]
                })
                .collect(),
        ),
    );
    catalog.add_schema("hr", s);
    let queries = [
        "SELECT region, amount FROM sales WHERE amount > 100 ORDER BY region, amount",
        "SELECT region, COUNT(*) AS c, SUM(amount) AS s FROM sales GROUP BY region ORDER BY region",
        "SELECT region, AVG(amount) AS a FROM sales WHERE amount < 200 GROUP BY region ORDER BY region",
        "SELECT amount FROM sales ORDER BY amount DESC LIMIT 11",
    ];
    let reference = Connection::builder(catalog.clone()).workers(1).build();
    for q in queries {
        assert_eq!(
            reference.query(q).unwrap().rows,
            sql_row_oracle(&reference, q),
            "row engine: {q}"
        );
    }
    for workers in worker_ladder() {
        let conn = Connection::builder(catalog.clone())
            .workers(workers)
            .morsel_size(32)
            .build();
        for q in queries {
            assert_eq!(
                conn.query(q).unwrap(),
                reference.query(q).unwrap(),
                "workers={workers}: {q}"
            );
        }
    }
}

/// A zero-column memdb table behind the JDBC adapter's `Table`: it has
/// no columns for a snapshot to carry its row count, so every engine —
/// the row oracle, serial, and a parallel context, which places no
/// exchange over it — must count its rows off the row scan.
#[test]
fn zero_column_table_keeps_every_row_at_every_worker_count() {
    let db = MemDb::new();
    db.create_table("z", vec![], vec![vec![]; 1000]);
    let adapter = JdbcAdapter::new(db, "z", Arc::new(PostgresDialect));
    let table = adapter.schema().table("z").unwrap();
    let plan = rel::aggregate(
        rel::scan(TableRef::new("db", "z", table)),
        vec![],
        vec![AggCall::count_star("c")],
    );
    let want = vec![vec![Datum::Int(1000)]];
    assert_eq!(row_ctx().execute_collect(&plan).unwrap(), want, "oracle");
    for workers in [1, 4] {
        let got = par_ctx(workers, 64).execute_collect(&plan).unwrap();
        assert_eq!(got, want, "workers={workers}");
    }
}

// ---------------------------------------------------------------------
// Bounded prefetch under LIMIT
// ---------------------------------------------------------------------

/// A table whose range scans count every row served, so tests can
/// assert how far morsel workers actually read, and which counts the
/// snapshots it hands out.
struct TrackingTable {
    row_type: RowType,
    snapshot: Arc<TrackingSnapshot>,
    snapshots: AtomicUsize,
}

struct TrackingSnapshot {
    columns: Arc<[Column]>,
    served: Arc<AtomicUsize>,
}

struct TrackingRange {
    inner: SlicedColumns<Arc<[Column]>>,
    served: Arc<AtomicUsize>,
}

impl BatchIter for TrackingRange {
    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn next_batch(&mut self) -> CoreResult<Option<Vec<Column>>> {
        let out = self.inner.next_batch()?;
        if let Some(cols) = &out {
            self.served
                .fetch_add(cols.first().map_or(0, Column::len), Ordering::SeqCst);
        }
        Ok(out)
    }
}

impl RangeScan for TrackingSnapshot {
    fn row_count(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    fn scan_range(
        self: Arc<Self>,
        batch_size: usize,
        start: usize,
        len: usize,
    ) -> CoreResult<Box<dyn BatchIter>> {
        Ok(Box::new(TrackingRange {
            inner: SlicedColumns::new_range(self.columns.clone(), batch_size, start, len),
            served: self.served.clone(),
        }))
    }
}

impl Table for TrackingTable {
    fn row_type(&self) -> RowType {
        self.row_type.clone()
    }

    fn scan(&self) -> CoreResult<Box<dyn Iterator<Item = Row> + Send>> {
        let datums = self.snapshot.columns[0].to_datums();
        Ok(Box::new(datums.into_iter().map(|d| vec![d])))
    }

    fn scan_snapshot(&self) -> CoreResult<Option<Arc<dyn RangeScan>>> {
        self.snapshots.fetch_add(1, Ordering::SeqCst);
        Ok(Some(self.snapshot.clone()))
    }
}

#[test]
fn morsels_are_not_prefetched_past_limit() {
    let total = 100_000usize;
    let served = Arc::new(AtomicUsize::new(0));
    let column = Column::from_datums(&TypeKind::Integer, (0..total as i64).map(Datum::Int));
    let table = Arc::new(TrackingTable {
        row_type: RowTypeBuilder::new()
            .add_not_null("v", TypeKind::Integer)
            .build(),
        snapshot: Arc::new(TrackingSnapshot {
            columns: Arc::from([column]),
            served: served.clone(),
        }),
        snapshots: AtomicUsize::new(0),
    });
    let plan = rel::sort_limit(
        rel::project(
            rel::scan(TableRef::new("t", "tracked", table.clone())),
            vec![RexNode::call(
                Op::Plus,
                vec![RexNode::input(0, int_ty()), RexNode::lit_int(1)],
            )],
            vec!["v1".into()],
        ),
        vec![],
        None,
        Some(5),
    );
    let rows = par_ctx(4, 128).execute_collect(&plan).unwrap();
    assert_eq!(
        rows,
        (1..=5).map(|i| vec![Datum::Int(i)]).collect::<Vec<Row>>()
    );
    // One snapshot sized the scan, and the workers sliced that one.
    assert_eq!(table.snapshots.load(Ordering::SeqCst), 1);
    let scanned = served.load(Ordering::SeqCst);
    // Backpressure bounds the workers' prefetch: the bounded exchange
    // channel plus in-flight morsels is worth a few dozen morsels, not
    // the whole table.
    assert!(
        scanned < total / 2,
        "LIMIT 5 let workers scan {scanned} of {total} rows"
    );
}

// ---------------------------------------------------------------------
// Property tests: random chains, exact parallel ≡ serial equality
// ---------------------------------------------------------------------

/// A unary operator applied on top of a plan, as plain data. Values are
/// kept moderate so no plan errors (error laziness under LIMIT is
/// batch-granularity-dependent and covered by unit tests instead).
#[derive(Clone, Debug)]
enum OpSpec {
    FilterCmp {
        col: usize,
        cmp: usize,
        lit: i64,
    },
    ProjectArith {
        a: usize,
        b: usize,
        op: usize,
    },
    Sort {
        col: usize,
        desc: bool,
        offset: usize,
        fetch: Option<usize>,
    },
    Aggregate {
        group: usize,
        func: usize,
        arg: usize,
        distinct: bool,
    },
}

const CMPS: [Op; 6] = [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge];
const ARITH: [Op; 3] = [Op::Plus, Op::Minus, Op::Times];
const AGGS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
];

fn op_spec() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        ((0usize..3), (0usize..6), (-5i64..105)).prop_map(|(col, cmp, lit)| OpSpec::FilterCmp {
            col,
            cmp,
            lit
        }),
        ((0usize..3), (0usize..3), (0usize..3)).prop_map(|(a, b, op)| OpSpec::ProjectArith {
            a,
            b,
            op
        }),
        ((0usize..3), any::<bool>(), (0usize..9), (0usize..40)).prop_map(
            |(col, desc, offset, f)| OpSpec::Sort {
                col,
                desc,
                offset,
                fetch: if f < 30 { Some(f) } else { None },
            }
        ),
        ((0usize..3), (0usize..5), (0usize..3), any::<bool>()).prop_map(
            |(group, func, arg, distinct)| OpSpec::Aggregate {
                group,
                func,
                arg,
                distinct
            }
        ),
    ]
}

fn apply_op(plan: Rel, spec: &OpSpec) -> Rel {
    let arity = plan.row_type().arity();
    if arity == 0 {
        return plan;
    }
    let col = |c: usize| c % arity;
    match spec {
        OpSpec::FilterCmp { col: c, cmp, lit } => rel::filter(
            plan,
            RexNode::call(
                CMPS[*cmp].clone(),
                vec![RexNode::input(col(*c), int_ty()), RexNode::lit_int(*lit)],
            ),
        ),
        OpSpec::ProjectArith { a, b, op } => {
            let e = RexNode::call(
                ARITH[*op].clone(),
                vec![
                    RexNode::input(col(*a), int_ty()),
                    RexNode::input(col(*b), int_ty()),
                ],
            );
            rel::project(
                plan,
                vec![RexNode::input(col(*a), int_ty()), e],
                vec!["k".into(), "v".into()],
            )
        }
        OpSpec::Sort {
            col: c,
            desc,
            offset,
            fetch,
        } => {
            let fc = if *desc {
                FieldCollation::desc(col(*c))
            } else {
                FieldCollation::asc(col(*c))
            };
            rel::sort_limit(plan, vec![fc], Some(*offset), *fetch)
        }
        OpSpec::Aggregate {
            group,
            func,
            arg,
            distinct,
        } => {
            let rt = plan.row_type().clone();
            let agg = if AGGS[*func] == AggFunc::Count && *arg == 0 {
                AggCall::count_star("a")
            } else {
                AggCall::new(AGGS[*func], vec![col(*arg)], *distinct, "a", &rt)
            };
            rel::aggregate(plan, vec![col(*group)], vec![agg])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random operator chains over the range-scannable base: parallel
    /// execution is byte-identical to serial at several worker counts.
    #[test]
    fn prop_parallel_chains_identical(ops in proptest::collection::vec(op_spec(), 0..4)) {
        let mut plan = base_scan();
        for op in &ops {
            plan = apply_op(plan, op);
        }
        let serial = batch_ctx().execute_collect(&plan);
        for workers in [2usize, 5] {
            let par = par_ctx(workers, 48).execute_collect(&plan);
            match (&par, &serial) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                // Plans over the string column may error (non-numeric
                // arithmetic); all input is consumed by these shapes, so
                // error-ness must agree too.
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "error-ness diverged"),
            }
        }
    }

    /// The same chains over a Values base (no range scan, so no
    /// exchange): a parallel context must be just as deterministic.
    #[test]
    fn prop_parallel_scatter_identical(ops in proptest::collection::vec(op_spec(), 1..4)) {
        let rows: Vec<Row> = (0..180)
            .map(|i| {
                vec![
                    Datum::Int(i % 7),
                    if i % 11 == 0 { Datum::Null } else { Datum::Int(i % 90) },
                    Datum::Int(i),
                ]
            })
            .collect();
        let base = rel::values(
            RowTypeBuilder::new()
                .add_not_null("x", TypeKind::Integer)
                .add("y", TypeKind::Integer)
                .add_not_null("z", TypeKind::Integer)
                .build(),
            rows,
        );
        let mut plan = base;
        for op in &ops {
            plan = apply_op(plan, op);
        }
        let serial = batch_ctx().execute_collect(&plan);
        for workers in [2usize, 4] {
            let par = par_ctx(workers, 16).execute_collect(&plan);
            match (&par, &serial) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "error-ness diverged"),
            }
        }
    }
}
