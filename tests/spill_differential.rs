//! Differential testing of out-of-core execution: every plan run under a
//! bounded memory budget — tiny (one spill page), partial-fit, and
//! comfortable — must produce output **byte-identical** to unbounded
//! in-memory execution, at one worker and four. Also pins the
//! accounting contract: a generous budget never touches disk (asserted
//! through the spill tracker), a tiny budget on an oversized working
//! set does, and a budget too small to hold one spill page fails the
//! query with an execution error instead of spilling garbage.

use proptest::prelude::*;
use rcalcite_core::buffer::{MemoryBudget, PAGE_SIZE};
use rcalcite_core::catalog::{MemTable, TableRef};
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::exec::{ExecContext, Parallelism};
use rcalcite_core::rel::{self, AggCall, AggFunc, JoinKind, Rel};
use rcalcite_core::rex::{Op, RexNode};
use rcalcite_core::traits::FieldCollation;
use rcalcite_core::types::{RelType, RowTypeBuilder, TypeKind};
use rcalcite_enumerable::EnumerableExecutor;
use rcalcite_sql::Connection;
use std::sync::Arc;

/// A context with an explicit budget (`None` = unbounded), overriding
/// whatever `RCALCITE_TEST_MEM_BUDGET` the harness environment set so
/// each ladder rung tests exactly the budget it names.
fn spill_ctx(workers: usize, budget: Option<usize>) -> ExecContext {
    let mut c = ExecContext::new();
    c.register(Arc::new(EnumerableExecutor::batched_interpreter()));
    c.set_parallelism(Parallelism::new(workers, 64));
    c.set_memory_budget(budget.map_or_else(MemoryBudget::unbounded, MemoryBudget::bytes));
    c
}

/// The connection's optimized plan for `sql`, run by the row engine.
fn sql_row_oracle(conn: &Connection, sql: &str) -> Vec<Row> {
    let plan = conn.optimize(&conn.parse_to_rel(sql).unwrap()).unwrap();
    let mut ctx = ExecContext::new();
    rcalcite_enumerable::register_executors(&mut ctx);
    ctx.execute_collect(&plan).unwrap()
}

/// The budget ladder: one spill page (everything spills), a partial
/// fit, a comfortable bound (accounting engages, nothing spills), and
/// unbounded.
fn budget_ladder() -> [Option<usize>; 4] {
    [
        Some(PAGE_SIZE),
        Some(8 * PAGE_SIZE),
        Some(4 * 1024 * 1024),
        None,
    ]
}

/// A base table large enough that its columnar working set (~400 KiB)
/// dwarfs the tiny budgets: 4000 rows, NULLs in both nullable columns,
/// string keys, enough distinct values for joins and grouping.
fn big_scan() -> Rel {
    let rows: Vec<Row> = (0..4000)
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
    let t = MemTable::new(
        RowTypeBuilder::new()
            .add_not_null("x", TypeKind::Integer)
            .add("y", TypeKind::Integer)
            .add("s", TypeKind::Varchar)
            .build(),
        rows,
    );
    rel::scan(TableRef::new("t", "big", t))
}

fn int_ty() -> RelType {
    RelType::nullable(TypeKind::Integer)
}

/// Budgeted execution must be byte-identical to unbounded in-memory
/// execution at every rung of the ladder, serial and parallel.
fn assert_spill_identical(plan: &Rel) {
    let reference = spill_ctx(1, None).execute_collect(plan).unwrap();
    for budget in budget_ladder() {
        for workers in [1usize, 4] {
            let ctx = spill_ctx(workers, budget);
            let got = ctx.execute_collect(plan).unwrap();
            assert_eq!(got, reference, "budget={budget:?} workers={workers}");
        }
    }
}

#[test]
fn joins_identical_across_budgets() {
    let dim = {
        let t = MemTable::new(
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
        );
        rel::scan(TableRef::new("t", "dim", t))
    };
    let equi = RexNode::input(1, int_ty()).eq(RexNode::input(3, int_ty()));
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
            let plan = rel::join(big_scan(), dim.clone(), kind, cond.clone());
            assert_spill_identical(&plan);
        }
    }
    // Self-join: the build side itself is bigger than the tiny budgets,
    // so the grace partitions recurse or load partition-at-a-time.
    let plan = rel::join(
        big_scan(),
        big_scan(),
        JoinKind::Inner,
        RexNode::input(1, int_ty()).eq(RexNode::input(4, int_ty())),
    );
    let reference = spill_ctx(1, None).execute_collect(&plan).unwrap();
    for budget in [Some(PAGE_SIZE), Some(8 * PAGE_SIZE)] {
        let got = spill_ctx(1, budget).execute_collect(&plan).unwrap();
        assert_eq!(got, reference, "self-join budget={budget:?}");
    }
}

#[test]
fn aggregates_identical_across_budgets() {
    let rt = big_scan().row_type().clone();
    let plan = rel::aggregate(
        big_scan(),
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
    assert_spill_identical(&plan);
    // Wide grouping (y × s: many groups) with a distinct aggregate —
    // the state that actually outgrows small budgets.
    let plan = rel::aggregate(
        big_scan(),
        vec![1, 2],
        vec![
            AggCall::count_star("c"),
            AggCall::new(AggFunc::Count, vec![0], true, "dx", &rt),
        ],
    );
    assert_spill_identical(&plan);
    // Global aggregate (single group, state never outgrows anything —
    // the budget must not perturb it).
    let plan = rel::aggregate(
        big_scan(),
        vec![],
        vec![
            AggCall::count_star("c"),
            AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt),
        ],
    );
    assert_spill_identical(&plan);
}

// ---------------------------------------------------------------------
// Keys: grace routing and chunk merges run on the key kernel's hash
// ---------------------------------------------------------------------

/// Arity of [`keyed_scan`]: (i INT, d DOUBLE, s VARCHAR, t DATE,
/// ts TIMESTAMP NOT NULL, r INT NOT NULL).
const KEYED_ARITY: usize = 6;

/// `n` rows whose key columns collide across lanes — Int values that
/// equal Doubles, `-0.0` beside `0.0`, NaN, the empty string, NULLs,
/// `DATE`/`TIMESTAMP` columns (no typed vector). A partition routed by
/// the Int hash of `1` must be where the Double `1.0` lands too.
fn keyed_scan(name: &str, n: i64, salt: i64) -> Rel {
    let rows: Vec<Row> = (0..n)
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
    let t = MemTable::new(
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

/// Key shapes as (left columns, right columns).
const KEY_SHAPES: [(&[usize], &[usize]); 8] = [
    (&[0], &[1]),
    (&[1], &[0]),
    (&[1], &[1]),
    (&[2], &[2]),
    (&[3], &[3]),
    (&[4], &[4]),
    (&[1, 2], &[0, 2]),
    (&[0, 2, 3], &[0, 2, 3]),
];

#[test]
fn keyed_joins_identical_across_budgets() {
    // Both sides exceed the small budgets, so build rows partition by
    // the kernel's hash, spill, and re-split under the next salt.
    for (shape, (lk, rk)) in KEY_SHAPES.iter().enumerate() {
        let mut conj: Vec<RexNode> = lk
            .iter()
            .zip(*rk)
            .map(|(&l, &r)| {
                RexNode::input(l, int_ty()).eq(RexNode::input(KEYED_ARITY + r, int_ty()))
            })
            .collect();
        if shape % 2 == 1 {
            conj.push(RexNode::call(
                Op::Le,
                vec![
                    RexNode::input(5, int_ty()),
                    RexNode::input(KEYED_ARITY + 5, int_ty()),
                ],
            ));
        }
        let cond = RexNode::and_all(conj);
        for kind in [
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::Right,
            JoinKind::Full,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let plan = rel::join(
                keyed_scan("probe", 700, 0),
                keyed_scan("build", 500, 31),
                kind,
                cond.clone(),
            );
            assert_spill_identical(&plan);
        }
    }
    // Three keys (`r`) holding a thousand build rows each: a partition cannot
    // shrink by re-splitting (the recursion floor loads it anyway) and
    // candidates must still come out in build order. And an empty build
    // side under a budget.
    let on_r = RexNode::input(5, int_ty()).eq(RexNode::input(KEYED_ARITY + 5, int_ty()));
    for kind in [JoinKind::Inner, JoinKind::Full, JoinKind::Anti] {
        let plan = rel::join(
            keyed_scan("probe", 60, 0),
            keyed_scan("build", 3_000, 5),
            kind,
            on_r.clone(),
        );
        assert_spill_identical(&plan);
        let empty = rel::filter(
            keyed_scan("build", 500, 31),
            RexNode::input(5, int_ty()).gt(RexNode::lit_int(99)),
        );
        let plan = rel::join(keyed_scan("probe", 700, 0), empty, kind, on_r.clone());
        assert_spill_identical(&plan);
    }
}

#[test]
fn keyed_aggregates_identical_across_budgets() {
    let base = keyed_scan("facts", 2_000, 3);
    let rt = base.row_type().clone();
    for (lk, _) in KEY_SHAPES {
        let plan = rel::aggregate(
            base.clone(),
            lk.to_vec(),
            vec![
                AggCall::count_star("c"),
                AggCall::new(AggFunc::Sum, vec![5], false, "s", &rt),
                AggCall::new(AggFunc::Count, vec![5], true, "dc", &rt),
            ],
        );
        assert_spill_identical(&plan);
    }
}

#[test]
fn sorts_identical_across_budgets() {
    // Heavy collation ties (17 distinct x over 4000 rows): the run
    // merge must reproduce the serial stable sort exactly.
    for (offset, fetch) in [
        (None, None),
        (Some(7), None),
        (None, Some(25)),
        (Some(3), Some(10)),
    ] {
        let plan = rel::sort_limit(
            big_scan(),
            vec![FieldCollation::asc(0), FieldCollation::desc(1)],
            offset,
            fetch,
        );
        assert_spill_identical(&plan);
    }
}

#[test]
fn generous_budget_never_touches_disk() {
    let rt = big_scan().row_type().clone();
    // Wide grouping with a distinct set per group: enough state to
    // outgrow one page, so the tiny-budget leg spills the aggregate too.
    let plan = rel::aggregate(
        rel::sort_limit(big_scan(), vec![FieldCollation::desc(1)], None, None),
        vec![1, 2],
        vec![
            AggCall::new(AggFunc::Sum, vec![0], false, "s", &rt),
            AggCall::new(AggFunc::Count, vec![0], true, "dx", &rt),
        ],
    );
    // Unbounded and comfortably-bounded runs stay in memory...
    for budget in [None, Some(16 * 1024 * 1024)] {
        let ctx = spill_ctx(1, budget);
        ctx.execute_collect(&plan).unwrap();
        assert!(
            ctx.spill_tracker().stayed_in_memory(),
            "budget={budget:?} wrote spill bytes"
        );
        assert!(ctx.spill_tracker().events().is_empty());
    }
    // ...while one spill page forces every build operator to disk.
    let ctx = spill_ctx(1, Some(PAGE_SIZE));
    ctx.execute_collect(&plan).unwrap();
    assert!(!ctx.spill_tracker().stayed_in_memory());
    let ops: Vec<&str> = ctx.spill_tracker().events().iter().map(|e| e.op).collect();
    assert!(ops.contains(&"sort"), "{ops:?}");
    assert!(ops.contains(&"aggregate"), "{ops:?}");
    assert!(ctx.spill_tracker().bytes_read() > 0);
}

#[test]
fn budget_below_one_page_is_an_execution_error() {
    let plan = rel::sort_limit(big_scan(), vec![FieldCollation::asc(1)], None, None);
    let err = spill_ctx(1, Some(1024)).execute_collect(&plan).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("too small"), "{msg}");
    assert!(msg.contains("spill page"), "{msg}");
}

#[test]
fn sql_pipeline_identical_across_budget_and_workers() {
    let catalog = rcalcite_core::catalog::Catalog::new();
    let s = rcalcite_core::catalog::Schema::new();
    s.add_table(
        "sales",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("region", TypeKind::Integer)
                .add("amount", TypeKind::Integer)
                .build(),
            (0..3000)
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
        "SELECT a.region, a.amount FROM sales AS a JOIN sales AS b ON a.amount = b.amount \
         WHERE b.region = 3 ORDER BY a.amount, a.region",
    ];
    let reference = Connection::builder(catalog.clone()).workers(1).build();
    for q in queries {
        assert_eq!(
            reference.query(q).unwrap().rows,
            sql_row_oracle(&reference, q),
            "row engine: {q}"
        );
    }
    for budget in [PAGE_SIZE, 8 * PAGE_SIZE] {
        for workers in [1usize, 4] {
            let conn = Connection::builder(catalog.clone())
                .workers(workers)
                .morsel_size(64)
                .memory_budget(budget)
                .build();
            for q in queries {
                assert_eq!(
                    conn.query(q).unwrap(),
                    reference.query(q).unwrap(),
                    "budget={budget} workers={workers}: {q}"
                );
            }
        }
    }
}

/// Ledger finding 11: with `workers > 1` a full sort used to run as a
/// per-worker run merge that held no reservation, so it never charged
/// or spilled against the budget while EXPLAIN still predicted runs.
/// A full `ORDER BY` now always executes as the budget-accounting
/// serial sort over its (parallel) child chain.
#[test]
fn parallel_full_sort_charges_and_spills_against_the_budget() {
    let catalog = rcalcite_core::catalog::Catalog::new();
    let s = rcalcite_core::catalog::Schema::new();
    s.add_table(
        "wide",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add_not_null("k", TypeKind::Integer)
                .add("v", TypeKind::Integer)
                .build(),
            (0..200_000i64)
                .map(|i| {
                    vec![
                        Datum::Int(i),
                        Datum::Int((i * 7919) % 1013),
                        if i % 41 == 0 {
                            Datum::Null
                        } else {
                            Datum::Int((i * 31) % 977)
                        },
                    ]
                })
                .collect(),
        ),
    );
    catalog.add_schema("hr", s);
    let sql = "SELECT id, k, v FROM wide WHERE k >= 0 ORDER BY k, v DESC";
    let mut reference = Connection::builder(catalog.clone()).workers(1).build();
    reference.set_memory_budget(MemoryBudget::unbounded());
    let expected = reference.query(sql).unwrap();
    assert_eq!(expected.rows.len(), 200_000);
    assert!(reference.spill_stats().stayed_in_memory());

    // ~5.3 MiB of sort input (three Int columns) against 4 MiB; ANALYZE
    // so EXPLAIN's estimate sees that the filter keeps every row.
    let conn = Connection::builder(catalog)
        .workers(2)
        .memory_budget(4 * 1024 * 1024)
        .build();
    conn.execute("ANALYZE").unwrap();
    assert_eq!(conn.query(sql).unwrap(), expected);
    let sort_runs: usize = conn
        .spill_stats()
        .events()
        .iter()
        .filter(|e| e.op == "sort")
        .map(|e| e.spilled)
        .sum();
    assert!(sort_runs >= 1, "{:?}", conn.spill_stats().events());
    // EXPLAIN describes that plan: predicted sort runs, and a serial Sort
    // over the chain's ordered gather rather than a per-worker run merge.
    let text = conn.explain(sql).unwrap();
    assert!(text.contains("-- spill: sort"), "{text}");
    assert!(text.contains("Gather[ordered, workers=2]"), "{text}");
    assert!(!text.contains("Merge[k-way"), "{text}");
}

/// With `workers > 1`, a GROUP BY over a join big enough to get an
/// exchange used to run as per-worker partial aggregates behind a
/// round-robin scatter, which held no reservation, so it never charged
/// or spilled against the budget. It now runs as the serial,
/// budget-accounting aggregate over the join's ordered gather.
#[test]
fn parallel_join_aggregate_charges_and_spills_against_the_budget() {
    let catalog = rcalcite_core::catalog::Catalog::new();
    let s = rcalcite_core::catalog::Schema::new();
    s.add_table(
        "sales",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("product_id", TypeKind::Integer)
                .add_not_null("amount", TypeKind::Integer)
                .build(),
            (0..40_000i64)
                .map(|i| vec![Datum::Int((i * 7919) % 5_000), Datum::Int(i % 97)])
                .collect(),
        ),
    );
    s.add_table(
        "products",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("product_id", TypeKind::Integer)
                .add_not_null("name", TypeKind::Varchar)
                .build(),
            (0..5_000i64)
                .map(|i| vec![Datum::Int(i), Datum::str(format!("product-{i:05}"))])
                .collect(),
        ),
    );
    catalog.add_schema("hr", s);
    // `amount + 1` puts a Project between the join and the aggregate.
    let sql = "SELECT p.name, COUNT(*) AS c, SUM(s.amount + 1) AS total \
               FROM sales AS s JOIN products AS p ON s.product_id = p.product_id \
               GROUP BY p.name";
    let mut reference = Connection::builder(catalog.clone()).workers(1).build();
    reference.set_memory_budget(MemoryBudget::unbounded());
    let expected = reference.query(sql).unwrap();
    assert_eq!(expected.rows.len(), 5_000);

    let conn = Connection::builder(catalog)
        .workers(2)
        .morsel_size(4096)
        .memory_budget(4 * PAGE_SIZE)
        .build();
    let text = conn.explain(sql).unwrap();
    assert!(text.contains("Gather[ordered, workers=2, probe]"), "{text}");
    assert_eq!(conn.query(sql).unwrap(), expected);
    let ops: Vec<&str> = conn.spill_stats().events().iter().map(|e| e.op).collect();
    assert!(ops.contains(&"aggregate"), "{ops:?}");
    assert_eq!(conn.memory_budget().used(), 0);
}

// ---------------------------------------------------------------------
// Property tests: random chains, budgeted ≡ unbounded
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum OpSpec {
    FilterCmp {
        col: usize,
        cmp: usize,
        lit: i64,
    },
    Sort {
        col: usize,
        desc: bool,
        offset: usize,
    },
    Aggregate {
        group: usize,
        func: usize,
        arg: usize,
        distinct: bool,
    },
}

const CMPS: [Op; 6] = [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge];
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
        ((0usize..3), any::<bool>(), (0usize..9)).prop_map(|(col, desc, offset)| OpSpec::Sort {
            col,
            desc,
            offset
        }),
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
        OpSpec::Sort {
            col: c,
            desc,
            offset,
        } => {
            let fc = if *desc {
                FieldCollation::desc(col(*c))
            } else {
                FieldCollation::asc(col(*c))
            };
            // Always a full sort (no fetch): the spillable shape.
            rel::sort_limit(plan, vec![fc], Some(*offset), None)
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random build-then-stream chains: one spill page of budget is
    /// byte-identical to unbounded execution (matching error-ness for
    /// chains whose arithmetic faults on the string column).
    #[test]
    fn prop_budgeted_chains_identical(ops in proptest::collection::vec(op_spec(), 1..4)) {
        let mut plan = big_scan();
        for op in &ops {
            plan = apply_op(plan, op);
        }
        let reference = spill_ctx(1, None).execute_collect(&plan);
        for budget in [PAGE_SIZE, 8 * PAGE_SIZE] {
            let got = spill_ctx(1, Some(budget)).execute_collect(&plan);
            match (&got, &reference) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "error-ness diverged at budget={}", budget),
            }
        }
    }
}
