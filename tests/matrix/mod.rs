//! The differential matrix every `*differential` suite runs its cases
//! through: one set of contexts, table builders, generators and the
//! counting `TrackingTable`.
//!
//! [`matrix`] runs a plan on the row-at-a-time oracle and on the fused
//! batch engine at every cell of workers {1, 2, 4, 7} × memory budget
//! {one spill page, eight pages, 4 MiB, unbounded}. Every cell must be
//! byte-identical to serial unbounded execution and agree on whether the
//! query errors; the oracle must agree as a multiset, or row for row
//! where the engine promises an order. Inputs carry NULLs, empty sides,
//! overflow-adjacent integers and key columns that collide across lanes.
//!
//! The SQL corpus runs over a table spanning three 4 096-row chunks and
//! thinned by deletes, which stands in for a smaller chunk capacity.

// Each suite uses its own subset of the helpers.
#![allow(dead_code)]

use proptest::prelude::*;
use rcalcite_core::buffer::{MemoryBudget, PAGE_SIZE};
use rcalcite_core::catalog::{Catalog, MemTable, RangeScan, Schema, Table, TableRef};
use rcalcite_core::datum::{Column, Datum, Row};
use rcalcite_core::error::Result as CoreResult;
use rcalcite_core::exec::{
    BatchOp, ColumnBatch, ExecContext, Operator, Parallelism, SlicedColumns,
};
use rcalcite_core::rel::{self, AggCall, AggFunc, JoinKind, Rel, WinFunc, WindowFn, WindowFrame};
use rcalcite_core::rex::{Op, RexNode};
use rcalcite_core::store::CHUNK_ROWS;
use rcalcite_core::traits::FieldCollation;
use rcalcite_core::txn::DeltaOp;
use rcalcite_core::types::{RelType, RowType, RowTypeBuilder, TypeKind};
use rcalcite_enumerable::EnumerableExecutor;
use rcalcite_sql::Connection;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------

pub const WORKERS: [usize; 4] = [1, 2, 4, 7];
/// One spill page (everything spills), a partial fit, a comfortable
/// bound (accounting engages, nothing spills), and unbounded.
pub const BUDGETS: [Option<usize>; 4] = [
    Some(PAGE_SIZE),
    Some(8 * PAGE_SIZE),
    Some(4 * 1024 * 1024),
    None,
];
/// Rows per morsel: small, so exchanges engage on small tables, and not
/// a divisor of the chunk size, so morsels straddle chunk boundaries.
pub const MORSEL: usize = 48;

/// Every (workers, budget) cell but serial unbounded, the reference.
pub fn cells() -> impl Iterator<Item = (usize, Option<usize>)> {
    WORKERS
        .into_iter()
        .flat_map(|w| BUDGETS.into_iter().map(move |b| (w, b)))
        .filter(|&cell| cell != (1, None))
}

pub fn budget(bytes: Option<usize>) -> MemoryBudget {
    bytes.map_or_else(MemoryBudget::unbounded, MemoryBudget::bytes)
}

pub fn oracle_ctx() -> ExecContext {
    let mut c = ExecContext::new();
    rcalcite_enumerable::register_executors(&mut c);
    c
}

/// The fused engine at one cell. The budget is always explicit, so a
/// `RCALCITE_TEST_MEM_BUDGET` in the environment moves no cell.
pub fn fused_ctx(workers: usize, bytes: Option<usize>) -> ExecContext {
    let mut c = ExecContext::new();
    c.register(Arc::new(EnumerableExecutor::interpreter()));
    c.set_parallelism(Parallelism::new(workers, MORSEL));
    c.set_memory_budget(budget(bytes));
    c
}

pub fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// Runs `plan` in every cell and on the oracle. Returns the serial
/// unbounded rows (`None` when the query errors), or which cell broke.
/// With `in_order` the oracle must match row for row, not as a multiset.
pub fn matrix(plan: &Rel, in_order: bool) -> Result<Option<Vec<Row>>, String> {
    let run = |ctx: ExecContext| ctx.execute_collect(plan).ok();
    let reference = run(fused_ctx(1, None));
    for (workers, bytes) in cells() {
        let got = run(fused_ctx(workers, bytes));
        if got != reference {
            return Err(format!(
                "cell workers={workers} budget={bytes:?} diverged from serial unbounded: \
                 {:?} rows against {:?}",
                got.map(|r| r.len()),
                reference.as_ref().map(Vec::len)
            ));
        }
    }
    let oracle = run(oracle_ctx());
    let agrees = match (&oracle, &reference) {
        (Some(a), Some(b)) if in_order => a == b,
        (Some(a), Some(b)) => sorted(a.clone()) == sorted(b.clone()),
        (a, b) => a.is_none() && b.is_none(),
    };
    if !agrees {
        return Err(format!(
            "oracle diverged (in_order={in_order}): {:?} rows against {:?}",
            oracle.map(|r| r.len()),
            reference.map(|r| r.len())
        ));
    }
    Ok(reference)
}

/// [`matrix`] for a case that must succeed; returns its rows.
pub fn check(plan: &Rel, in_order: bool) -> Vec<Row> {
    matrix(plan, in_order)
        .unwrap()
        .expect("the query errored in every cell")
}

/// [`matrix`] inside a property: any divergence fails the case.
pub fn prop_check(plan: &Rel) -> Result<(), TestCaseError> {
    matrix(plan, false).map(drop).map_err(TestCaseError::fail)
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

pub fn int_ty() -> RelType {
    RelType::nullable(TypeKind::Integer)
}

pub fn scan(name: &str, row_type: RowType, rows: Vec<Row>) -> Rel {
    rel::scan(TableRef::new("t", name, MemTable::new(row_type, rows)))
}

/// (x INT NOT NULL, y INT, s VARCHAR), the shape generated rows take.
pub fn xys() -> RowType {
    RowTypeBuilder::new()
        .add_not_null("x", TypeKind::Integer)
        .add("y", TypeKind::Integer)
        .add("s", TypeKind::Varchar)
        .build()
}

/// A range-scannable [`xys`] table.
pub fn table(rows: Vec<Row>) -> Rel {
    scan("xys", xys(), rows)
}

/// 4 500 rows over two chunks: heavy ties in `x` (17 values), NULLs in
/// both nullable columns, a working set that dwarfs one spill page.
pub fn base() -> Rel {
    table(
        (0..4_500)
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
            .collect(),
    )
}

/// (k INT NOT NULL, name VARCHAR): 60 rows over 25 keys.
pub fn dim() -> Rel {
    scan(
        "dim",
        RowTypeBuilder::new()
            .add_not_null("k", TypeKind::Integer)
            .add("name", TypeKind::Varchar)
            .build(),
        (0..60)
            .map(|i| {
                vec![
                    Datum::Int(i % 25),
                    if i % 5 == 0 {
                        Datum::Null
                    } else {
                        Datum::str(format!("d{i}"))
                    },
                ]
            })
            .collect(),
    )
}

/// Arity of the keyed tables: (i INT, d DOUBLE, s VARCHAR, t DATE,
/// ts TIMESTAMP NOT NULL, r INT NOT NULL).
pub const KEYED_ARITY: usize = 6;

pub fn keyed(name: &str, rows: Vec<Row>) -> Rel {
    scan(
        name,
        RowTypeBuilder::new()
            .add("i", TypeKind::Integer)
            .add("d", TypeKind::Double)
            .add("s", TypeKind::Varchar)
            .add("t", TypeKind::Date)
            .add_not_null("ts", TypeKind::Timestamp)
            .add_not_null("r", TypeKind::Integer)
            .build(),
        rows,
    )
}

/// `n` keyed rows whose key columns collide across lanes: Int values
/// that equal Doubles, `-0.0` beside `0.0`, NaN, the empty string, NULL
/// in every nullable column, and two kinds (`DATE`, `TIMESTAMP`) with no
/// typed vector. `salt` decorrelates the two sides of a join.
pub fn keyed_scan(name: &str, n: i64, salt: i64) -> Rel {
    let rows = (0..n)
        .map(|j| {
            let h = (j + salt) * 7919 % 1009;
            let null_if = |m: i64, d: Datum| if h % m == 0 { Datum::Null } else { d };
            vec![
                null_if(11, Datum::Int(h % 40)),
                null_if(
                    13,
                    match h % 43 {
                        41 => Datum::Double(-0.0),
                        42 => Datum::Double(f64::NAN),
                        v => Datum::Double(v as f64),
                    },
                ),
                null_if(
                    17,
                    if h % 36 == 0 {
                        Datum::str("")
                    } else {
                        Datum::str(format!("a-thirteen-b{}", h % 30))
                    },
                ),
                null_if(19, Datum::Date((h % 25) as i32)),
                Datum::Timestamp(h % 20 * 1_000),
                Datum::Int(j % 3),
            ]
        })
        .collect();
    keyed(name, rows)
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// One generated cell of the nullable integer column: small values,
/// NULLs, and overflow-adjacent extremes.
pub fn nullable_int() -> impl Strategy<Value = Datum> {
    prop_oneof![
        (0i64..50).prop_map(Datum::Int),
        Just(Datum::Null),
        Just(Datum::Int(i64::MAX)),
        Just(Datum::Int(i64::MIN + 1)),
        Just(Datum::Int(i64::MAX - 1)),
    ]
}

pub fn nullable_str() -> impl Strategy<Value = Datum> {
    prop_oneof![
        (0i64..5).prop_map(|i| Datum::str(format!("s{i}"))),
        Just(Datum::Null),
    ]
}

/// Generated [`xys`] rows. Length starts at 0 so empty inputs are always
/// in play.
pub fn table_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        ((0i64..8), nullable_int(), nullable_str()).prop_map(|(x, y, s)| vec![Datum::Int(x), y, s]),
        0..24,
    )
}

/// One generated keyed row, from domains small enough to collide.
pub fn keyed_row() -> impl Strategy<Value = Row> {
    let nullable = |s: BoxedStrategy<Datum>| prop_oneof![s, Just(Datum::Null)];
    (
        nullable((0i64..4).prop_map(Datum::Int).boxed()),
        nullable(
            prop_oneof![
                (0i64..4).prop_map(|i| Datum::Double(i as f64)),
                Just(Datum::Double(-0.0)),
                Just(Datum::Double(2.5)),
                Just(Datum::Double(f64::NAN)),
            ]
            .boxed(),
        ),
        nullable(
            prop_oneof![
                (0i64..3).prop_map(|i| Datum::str(format!("a-thirteen-b{i}"))),
                Just(Datum::str("")),
            ]
            .boxed(),
        ),
        nullable((0i32..3).prop_map(Datum::Date).boxed()),
        (0i64..2).prop_map(|i| Datum::Timestamp(i * 1_000)),
        (0i64..3).prop_map(Datum::Int),
    )
        .prop_map(|(i, d, s, t, ts, r)| vec![i, d, s, t, ts, r])
}

/// A unary operator applied on top of a plan, as plain data. Every shape
/// consumes its whole input (a sort always has a key), so error-ness is
/// the same at every batch granularity.
#[derive(Clone, Debug)]
pub enum OpSpec {
    FilterCmp {
        col: usize,
        cmp: usize,
        lit: i64,
    },
    FilterNull {
        col: usize,
        negated: bool,
    },
    ProjectRefs(Vec<usize>),
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
    UnionSelf {
        all: bool,
    },
}

pub fn op_spec() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        ((0usize..3), (0usize..6), (-5i64..105)).prop_map(|(col, cmp, lit)| OpSpec::FilterCmp {
            col,
            cmp,
            lit
        }),
        ((0usize..3), any::<bool>()).prop_map(|(col, negated)| OpSpec::FilterNull { col, negated }),
        proptest::collection::vec(0usize..8, 1..4).prop_map(OpSpec::ProjectRefs),
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
        any::<bool>().prop_map(|all| OpSpec::UnionSelf { all }),
    ]
}

pub const CMPS: [Op; 6] = [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge];
pub const ARITH: [Op; 3] = [Op::Plus, Op::Minus, Op::Times];
pub const AGGS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
];
pub const JOIN_KINDS: [JoinKind; 6] = [
    JoinKind::Inner,
    JoinKind::Left,
    JoinKind::Right,
    JoinKind::Full,
    JoinKind::Semi,
    JoinKind::Anti,
];

/// Applies a spec to a plan, clamping column indexes to the current
/// arity so every generated spec yields a valid plan.
pub fn apply_op(plan: Rel, spec: &OpSpec) -> Rel {
    let arity = plan.row_type().arity();
    if arity == 0 {
        return plan;
    }
    let col = |c: usize| c % arity;
    let input = |c: usize| RexNode::input(col(c), int_ty());
    match spec {
        OpSpec::FilterCmp { col: c, cmp, lit } => rel::filter(
            plan,
            RexNode::call(CMPS[*cmp].clone(), vec![input(*c), RexNode::lit_int(*lit)]),
        ),
        OpSpec::FilterNull { col: c, negated } => {
            let e = input(*c);
            rel::filter(
                plan,
                if *negated {
                    e.is_not_null()
                } else {
                    e.is_null()
                },
            )
        }
        OpSpec::ProjectRefs(cols) => {
            let names = (0..cols.len()).map(|i| format!("c{i}")).collect();
            rel::project(plan, cols.iter().map(|c| input(*c)).collect(), names)
        }
        OpSpec::ProjectArith { a, b, op } => {
            let e = RexNode::call(ARITH[*op].clone(), vec![input(*a), input(*b)]);
            rel::project(plan, vec![input(*a), e], vec!["k".into(), "v".into()])
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
        OpSpec::UnionSelf { all } => rel::union(vec![plan.clone(), plan], *all),
    }
}

// ---------------------------------------------------------------------
// Keys: every lane of the key kernel
// ---------------------------------------------------------------------

/// Key shapes as (left columns, right columns): one typed lane each,
/// Int = Double both ways round, the untyped kinds, and two- and
/// three-column keys mixing Int, Str and Date.
pub const KEY_SHAPES: [(&[usize], &[usize]); 10] = [
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

/// `l.k1 = r.k1 AND …`, plus the residual `l.r <= r.r` when asked.
pub fn keyed_condition(shape: usize, residual: bool) -> RexNode {
    let (lk, rk) = KEY_SHAPES[shape];
    let mut conj: Vec<RexNode> = lk
        .iter()
        .zip(rk)
        .map(|(&l, &r)| RexNode::input(l, int_ty()).eq(RexNode::input(KEYED_ARITY + r, int_ty())))
        .collect();
    if residual {
        conj.push(RexNode::call(
            Op::Le,
            vec![
                RexNode::input(5, int_ty()),
                RexNode::input(KEYED_ARITY + 5, int_ty()),
            ],
        ));
    }
    RexNode::and_all(conj)
}

/// `GROUP BY` the left columns of a key shape: COUNT(*), SUM(r),
/// COUNT(DISTINCT r) and MIN(s).
pub fn keyed_group(input: Rel, shape: usize) -> Rel {
    let rt = input.row_type().clone();
    rel::aggregate(
        input,
        KEY_SHAPES[shape].0.to_vec(),
        vec![
            AggCall::count_star("c"),
            AggCall::new(AggFunc::Sum, vec![5], false, "s", &rt),
            AggCall::new(AggFunc::Count, vec![5], true, "dc", &rt),
            AggCall::new(AggFunc::Min, vec![2], false, "mn", &rt),
        ],
    )
}

/// `GROUP BY k, s` with COUNT(*) and SUM(v) over `n` rows of a scanned
/// table; `group_of` maps a row's position to its (Int, Str) group.
/// With more than 70 000 groups every worker's table grows from empty
/// many times over, and the partial merge interns tens of thousands of
/// keys batch-wise.
pub fn many_groups(n: i64, group_of: impl Fn(i64) -> i64) -> Rel {
    let rows: Vec<Row> = (0..n)
        .map(|j| {
            let g = group_of(j);
            vec![
                Datum::Int(g % 300),
                Datum::str(format!("group-{}", g / 300)),
                Datum::Int(j % 5),
            ]
        })
        .collect();
    let facts = scan(
        "many_groups",
        RowTypeBuilder::new()
            .add_not_null("k", TypeKind::Integer)
            .add_not_null("s", TypeKind::Varchar)
            .add_not_null("v", TypeKind::Integer)
            .build(),
        rows,
    );
    let rt = facts.row_type().clone();
    rel::aggregate(
        facts,
        vec![0, 1],
        vec![
            AggCall::count_star("c"),
            AggCall::new(AggFunc::Sum, vec![2], false, "s", &rt),
        ],
    )
}

// ---------------------------------------------------------------------
// A counting scan
// ---------------------------------------------------------------------

/// A one-column table (`v` = 0..n) whose range scans count the batches
/// and rows they serve, and which counts the snapshots it hands out. Its
/// snapshot makes it look like any range table.
pub struct TrackingTable {
    row_type: RowType,
    pub snapshot: Arc<TrackingSnapshot>,
    pub snapshots: AtomicUsize,
}

pub struct TrackingSnapshot {
    columns: Arc<[Column]>,
    pub batches: AtomicUsize,
    pub rows: AtomicUsize,
}

struct TrackingRange {
    inner: SlicedColumns<Arc<[Column]>>,
    snapshot: Arc<TrackingSnapshot>,
}

impl TrackingTable {
    pub fn new(n: i64) -> Arc<TrackingTable> {
        let column = Column::from_datums(&TypeKind::Integer, (0..n).map(Datum::Int));
        Arc::new(TrackingTable {
            row_type: RowTypeBuilder::new()
                .add_not_null("v", TypeKind::Integer)
                .build(),
            snapshot: Arc::new(TrackingSnapshot {
                columns: Arc::from([column]),
                batches: AtomicUsize::new(0),
                rows: AtomicUsize::new(0),
            }),
            snapshots: AtomicUsize::new(0),
        })
    }

    pub fn scan(self: &Arc<Self>) -> Rel {
        rel::scan(TableRef::new("t", "tracked", self.clone()))
    }
}

impl Operator<ColumnBatch> for TrackingRange {
    fn next(&mut self) -> CoreResult<Option<ColumnBatch>> {
        let out = self.inner.next()?;
        if let Some(b) = &out {
            self.snapshot.batches.fetch_add(1, Ordering::SeqCst);
            self.snapshot.rows.fetch_add(b.num_rows(), Ordering::SeqCst);
        }
        Ok(out)
    }
}

impl RangeScan for TrackingSnapshot {
    fn row_count(&self) -> usize {
        self.columns[0].len()
    }

    fn scan_range(
        self: Arc<Self>,
        batch_size: usize,
        start: usize,
        len: usize,
    ) -> CoreResult<BatchOp> {
        Ok(Box::new(TrackingRange {
            inner: SlicedColumns::new_range(self.columns.clone(), batch_size, start, len),
            snapshot: self,
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

pub fn plus_one(plan: Rel) -> Rel {
    let v = RexNode::input(0, RelType::not_null(TypeKind::Integer));
    let e = RexNode::call(Op::Plus, vec![v, RexNode::lit_int(1)]);
    rel::project(plan, vec![e], vec!["v1".into()])
}

/// `func(args)` over `plan`, per `partition`, in `order`, on the default
/// frame (RANGE from the partition's start to the current row's last
/// peer), so an aggregate's value does not depend on the order ties
/// arrive in. A window has no batch kernel: the batch engine runs it
/// alone on rows, over `plan` built on batches.
pub fn over(
    plan: Rel,
    func: WinFunc,
    args: Vec<usize>,
    partition: Vec<usize>,
    order: Vec<FieldCollation>,
) -> Rel {
    let ty = match func {
        WinFunc::Agg(a) => a.ret_type(args.first().map(|&c| &plan.row_type().field(c).ty)),
        WinFunc::RowNumber | WinFunc::Rank => RelType::not_null(TypeKind::Integer),
    };
    let wf = WindowFn {
        func,
        args,
        partition,
        frame: WindowFrame::default_frame(),
        order,
        name: "w".into(),
        ty,
    };
    rel::window(plan, vec![wf])
}

/// A catalog of one table in schema `hr`.
pub fn one_table(name: &str, row_type: RowType, rows: Vec<Row>) -> Arc<Catalog> {
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(name, MemTable::new(row_type, rows));
    catalog.add_schema("hr", s);
    catalog
}
// ---------------------------------------------------------------------
// The SQL corpus
// ---------------------------------------------------------------------

/// Reads over `sales(id, region, amount)` and `regions(id, name)`.
pub const CORPUS: &[&str] = &[
    "SELECT id, region, amount FROM sales WHERE amount > 200 ORDER BY region, amount DESC, id",
    "SELECT region, COUNT(*) AS c, SUM(amount) AS s FROM sales GROUP BY region",
    "SELECT COUNT(*) AS c, SUM(amount) AS s, MIN(amount) AS lo FROM sales",
    "SELECT region, AVG(amount) AS a FROM sales WHERE amount < 200 GROUP BY region ORDER BY region",
    "SELECT id, amount FROM sales ORDER BY amount DESC, id LIMIT 11",
    "SELECT r.name, COUNT(*) AS c FROM sales AS s JOIN regions AS r ON s.region = r.id \
     WHERE s.amount > 10 GROUP BY r.name",
    "SELECT a.id, b.id FROM sales AS a JOIN sales AS b ON a.amount = b.amount \
     WHERE a.region = 3 AND b.region = 5 ORDER BY a.id, b.id",
];

/// Maintained views, each defined as a corpus read (by index), so the
/// planner substitutes the view for that read.
pub const VIEWS: &[(&str, usize)] = &[("by_region", 1), ("totals", 2)];

/// Writes that touch every chunk: a non-key UPDATE, an INSERT of a new
/// group, a DELETE, and an UPDATE that moves rows between groups.
pub const WRITES: &[&str] = &[
    "UPDATE sales SET amount = amount + 7 WHERE region = 2",
    "INSERT INTO sales VALUES (100000, 4, 333), (100001, 9, NULL)",
    "DELETE FROM sales WHERE amount < 20",
    "UPDATE sales SET region = 0 WHERE id < 300",
];

/// `sales` spans three chunks and is thinned by deleting every third
/// row before any statement runs; `regions` names regions 0–8.
pub fn shop() -> Arc<Catalog> {
    let n = 2 * CHUNK_ROWS as i64 + 808;
    let catalog = one_table(
        "sales",
        RowTypeBuilder::new()
            .add_not_null("id", TypeKind::Integer)
            .add_not_null("region", TypeKind::Integer)
            .add("amount", TypeKind::Integer)
            .build(),
        (0..n)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    Datum::Int(i % 9),
                    if i % 31 == 0 {
                        Datum::Null
                    } else {
                        Datum::Int(i % 250)
                    },
                ]
            })
            .collect(),
    );
    let thinned: Vec<DeltaOp> = (0..n as u64)
        .step_by(3)
        .map(|row_id| DeltaOp::Delete { row_id })
        .collect();
    let hr = catalog.schema("hr").unwrap();
    hr.table("sales").unwrap().apply_delta(&thinned).unwrap();
    hr.add_table(
        "regions",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add("name", TypeKind::Varchar)
                .build(),
            (0..9)
                .map(|i| vec![Datum::Int(i), Datum::str(format!("r{i}"))])
                .collect(),
        ),
    );
    catalog
}

/// [`shop`] with [`WRITES`] committed.
pub fn written_shop() -> Arc<Catalog> {
    let catalog = shop();
    let conn = cell_conn(&catalog, 1, None);
    for w in WRITES {
        conn.query(w).unwrap();
    }
    catalog
}

pub fn cell_conn(catalog: &Arc<Catalog>, workers: usize, bytes: Option<usize>) -> Connection {
    let mut conn = Connection::builder(catalog.clone())
        .workers(workers)
        .morsel_size(MORSEL)
        .build();
    conn.set_memory_budget(budget(bytes));
    conn
}

pub fn read_corpus(conn: &Connection) -> Vec<Vec<Row>> {
    CORPUS
        .iter()
        .map(|q| conn.query(q).unwrap_or_else(|e| panic!("{q}: {e}")).rows)
        .collect()
}

/// The connection's optimized plan for `sql`, run by the row engine.
pub fn sql_row_oracle(conn: &Connection, sql: &str) -> Vec<Row> {
    let plan = conn.optimize(&conn.parse_to_rel(sql).unwrap()).unwrap();
    let mut ctx = ExecContext::new();
    rcalcite_enumerable::register_executors(&mut ctx);
    ctx.execute_collect(&plan).unwrap()
}

/// The corpus on `catalog`: the row oracle agrees as a multiset, and
/// every cell is byte-identical to serial unbounded.
pub fn corpus_identical_in_every_cell(catalog: &Arc<Catalog>) {
    let reference = cell_conn(catalog, 1, None);
    let want = read_corpus(&reference);
    for (q, rows) in CORPUS.iter().zip(&want) {
        let oracle = sql_row_oracle(&reference, q);
        assert_eq!(sorted(oracle), sorted(rows.clone()), "oracle: {q}");
    }
    for (workers, bytes) in cells() {
        let got = read_corpus(&cell_conn(catalog, workers, bytes));
        for ((q, got), want) in CORPUS.iter().zip(got).zip(&want) {
            assert_eq!(&got, want, "workers={workers} budget={bytes:?}: {q}");
        }
    }
}
