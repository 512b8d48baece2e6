//! Differential testing of the two enumerable executors: every
//! proptest-generated plan must produce the same multiset of rows (or
//! the same error-ness) through the row-at-a-time interpreter and the
//! vectorized batch path. Tables include NULLs, empty inputs and
//! overflow-adjacent integers so the engines' NULL handling, selection
//! masks and checked arithmetic are held equal.

use proptest::prelude::*;
use rcalcite_core::catalog::{MemTable, RangeScan, Table, TableRef};
use rcalcite_core::datum::{Column, Datum, Row};
use rcalcite_core::error::Result as CoreResult;
use rcalcite_core::exec::{BatchIter, ExecContext, Parallelism};
use rcalcite_core::rel::{self, AggCall, AggFunc, JoinKind, Rel};
use rcalcite_core::rex::{Op, RexNode};
use rcalcite_core::traits::FieldCollation;
use rcalcite_core::types::{RelType, RowType, RowTypeBuilder, TypeKind};
use rcalcite_enumerable::{execute_batches, EnumerableExecutor};
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

/// Executes a plan through both engines; asserts identical error-ness
/// and, on success, identical row multisets.
fn assert_engines_agree(plan: &Rel) -> Result<(), TestCaseError> {
    let row = row_ctx().execute_collect(plan);
    let batch = batch_ctx().execute_collect(plan);
    match (row, batch) {
        (Ok(mut a), Ok(mut b)) => {
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
        (Err(_), Err(_)) => {}
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "error-ness diverged for {:?}: row={:?} batch={:?}",
                plan,
                a.map(|r| r.len()),
                b.map(|r| r.len())
            )))
        }
    }
    Ok(())
}

/// One generated cell for the nullable integer column: small values,
/// NULLs, and overflow-adjacent extremes.
fn nullable_int() -> impl Strategy<Value = Datum> {
    prop_oneof![
        (0i64..50).prop_map(Datum::Int),
        Just(Datum::Null),
        Just(Datum::Int(i64::MAX)),
        Just(Datum::Int(i64::MIN + 1)),
        Just(Datum::Int(i64::MAX - 1)),
    ]
}

fn nullable_str() -> impl Strategy<Value = Datum> {
    prop_oneof![
        (0i64..5).prop_map(|i| Datum::str(format!("s{i}"))),
        Just(Datum::Null),
    ]
}

/// A generated base table: (x INT NOT NULL, y INT, s VARCHAR). Length
/// range starts at 0 so empty inputs are always in play.
fn table_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        ((0i64..8), nullable_int(), nullable_str()).prop_map(|(x, y, s)| vec![Datum::Int(x), y, s]),
        0..24,
    )
}

fn base_table(rows: Vec<Row>) -> Rel {
    rel::values(
        RowTypeBuilder::new()
            .add_not_null("x", TypeKind::Integer)
            .add("y", TypeKind::Integer)
            .add("s", TypeKind::Varchar)
            .build(),
        rows,
    )
}

fn int_ty() -> RelType {
    RelType::nullable(TypeKind::Integer)
}

/// A unary operator applied on top of a plan, as plain data.
#[derive(Clone, Debug)]
enum OpSpec {
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

fn op_spec() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        ((0usize..3), (0usize..6), (-2i64..60)).prop_map(|(col, cmp, lit)| OpSpec::FilterCmp {
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
        ((0usize..3), any::<bool>(), (0usize..4), (0usize..8)).prop_map(
            |(col, desc, offset, f)| OpSpec::Sort {
                col,
                desc,
                offset,
                fetch: if f < 6 { Some(f) } else { None },
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

const CMPS: [Op; 6] = [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge];
const ARITH: [Op; 3] = [Op::Plus, Op::Minus, Op::Times];
const AGGS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
];

/// Applies a spec to a plan, clamping column indexes to the current
/// arity so every generated spec yields a valid plan.
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
        OpSpec::FilterNull { col: c, negated } => {
            let e = RexNode::input(col(*c), int_ty());
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
            let exprs: Vec<RexNode> = cols
                .iter()
                .map(|c| RexNode::input(col(*c), int_ty()))
                .collect();
            let names = (0..exprs.len()).map(|i| format!("c{i}")).collect();
            rel::project(plan, exprs, names)
        }
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
        OpSpec::UnionSelf { all } => rel::union(vec![plan.clone(), plan], *all),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pipelines_agree(rows in table_rows(), ops in proptest::collection::vec(op_spec(), 1..5)) {
        let mut plan = base_table(rows);
        for op in &ops {
            plan = apply_op(plan, op);
        }
        assert_engines_agree(&plan)?;
    }

    #[test]
    fn joins_agree(
        left in table_rows(),
        right in table_rows(),
        kind in 0usize..6,
        on_nullable in any::<bool>(),
        post in op_spec(),
    ) {
        let kinds = [
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::Right,
            JoinKind::Full,
            JoinKind::Semi,
            JoinKind::Anti,
        ];
        let l = base_table(left);
        let r = base_table(right);
        // Join on the not-null key or the nullable column (NULL keys
        // must never match in either engine).
        let (lc, rc) = if on_nullable { (1, 4) } else { (0, 3) };
        let cond = RexNode::input(lc, int_ty()).eq(RexNode::input(rc, int_ty()));
        let plan = apply_op(rel::join(l, r, kinds[kind], cond), &post);
        assert_engines_agree(&plan)?;
    }

    #[test]
    fn set_ops_agree(
        left in table_rows(),
        right in table_rows(),
        all in any::<bool>(),
        minus in any::<bool>(),
        post in op_spec(),
    ) {
        // INTERSECT/EXCEPT now run as streaming hash-based batch kernels;
        // bag and set semantics must match the row engine exactly,
        // including NULL rows and duplicate multiplicities.
        let (l, r) = (base_table(left), base_table(right));
        let plan = if minus {
            rel::minus(vec![l, r], all)
        } else {
            rel::intersect(vec![l, r], all)
        };
        assert_engines_agree(&apply_op(plan, &post))?;
    }

    #[test]
    fn theta_joins_agree(left in table_rows(), right in table_rows(), cmp in 0usize..6) {
        let plan = rel::join(
            base_table(left),
            base_table(right),
            JoinKind::Inner,
            RexNode::call(
                CMPS[cmp].clone(),
                vec![RexNode::input(0, int_ty()), RexNode::input(3, int_ty())],
            ),
        );
        assert_engines_agree(&plan)?;
    }
}

// ---------------------------------------------------------------------
// Keys: the shapes the key kernel has a lane for, against the row oracle
// ---------------------------------------------------------------------

/// Arity of [`keyed_table`]: (i INT, d DOUBLE, s VARCHAR, t DATE,
/// ts TIMESTAMP NOT NULL, r INT NOT NULL).
const KEYED_ARITY: usize = 6;

/// One row of the keyed table. Every key column draws from a domain
/// small enough to collide and wide enough to hit the contract's
/// corners: Int values that equal Doubles (1 = 1.0), `-0.0` beside
/// `0.0`, NaN, the empty string, NULL in every nullable column, and two
/// kinds (`DATE`, `TIMESTAMP`) that have no typed vector.
fn keyed_row() -> impl Strategy<Value = Row> {
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

fn keyed_table(rows: Vec<Row>) -> Rel {
    rel::values(
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

/// Key shapes as (left columns, right columns): one typed lane each,
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

const JOIN_KINDS: [JoinKind; 6] = [
    JoinKind::Inner,
    JoinKind::Left,
    JoinKind::Right,
    JoinKind::Full,
    JoinKind::Semi,
    JoinKind::Anti,
];

/// `l.k1 = r.k1 AND …`, plus the residual `l.r <= r.r` when asked.
fn keyed_condition(shape: usize, residual: bool) -> RexNode {
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

/// `GROUP BY` the left columns of a key shape: COUNT(*), SUM(r) and
/// COUNT(DISTINCT r).
fn keyed_group(input: Rel, shape: usize) -> Rel {
    let rt = input.row_type().clone();
    rel::aggregate(
        input,
        KEY_SHAPES[shape].0.to_vec(),
        vec![
            AggCall::count_star("c"),
            AggCall::new(AggFunc::Sum, vec![5], false, "s", &rt),
            AggCall::new(AggFunc::Count, vec![5], true, "dc", &rt),
        ],
    )
}

/// Both engines, same rows *in the same order*: probe order with
/// candidates in build order for joins, first-seen order for groups.
fn assert_engines_agree_in_order(plan: &Rel) {
    let row = row_ctx().execute_collect(plan).unwrap();
    let batch = batch_ctx().execute_collect(plan).unwrap();
    assert_eq!(row.len(), batch.len());
    assert!(row == batch, "order or content diverged for {plan:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn keyed_joins_agree(
        left in proptest::collection::vec(keyed_row(), 0..40),
        right in proptest::collection::vec(keyed_row(), 0..40),
        shape in 0usize..KEY_SHAPES.len(),
        kind in 0usize..6,
        residual in any::<bool>(),
    ) {
        let plan = rel::join(
            keyed_table(left),
            keyed_table(right),
            JOIN_KINDS[kind],
            keyed_condition(shape, residual),
        );
        assert_engines_agree(&plan)?;
    }

    #[test]
    fn keyed_groups_agree(
        rows in proptest::collection::vec(keyed_row(), 0..60),
        shape in 0usize..KEY_SHAPES.len(),
    ) {
        assert_engines_agree(&keyed_group(keyed_table(rows), shape))?;
    }
}

#[test]
fn keyed_corner_cases_agree_in_order() {
    let row = |i: Datum, d: Datum, s: &str, r: i64| {
        vec![
            i,
            d,
            Datum::str(s),
            Datum::Date(0),
            Datum::Timestamp(0),
            Datum::Int(r),
        ]
    };
    // 1 = 1.0; -0.0 is not 0.0 (so it does not meet Int 0 either); NaN
    // meets NaN; NULL meets nothing but groups with NULL.
    let left = vec![
        row(Datum::Int(1), Datum::Double(0.0), "x", 0),
        row(Datum::Int(0), Datum::Double(-0.0), "x", 1),
        row(Datum::Null, Datum::Double(f64::NAN), "y", 2),
        row(Datum::Int(2), Datum::Null, "y", 0),
    ];
    let right = vec![
        row(Datum::Int(0), Datum::Double(1.0), "x", 1),
        row(Datum::Null, Datum::Double(-0.0), "y", 2),
        row(Datum::Int(2), Datum::Double(f64::NAN), "y", 0),
        row(Datum::Null, Datum::Double(0.0), "x", 0),
    ];
    for shape in 0..KEY_SHAPES.len() {
        for kind in JOIN_KINDS {
            for residual in [false, true] {
                assert_engines_agree_in_order(&rel::join(
                    keyed_table(left.clone()),
                    keyed_table(right.clone()),
                    kind,
                    keyed_condition(shape, residual),
                ));
            }
        }
        let both: Vec<Row> = left.iter().chain(&right).cloned().collect();
        assert_engines_agree_in_order(&keyed_group(keyed_table(both), shape));
    }
    let int_eq_double = rel::join(
        keyed_table(left.clone()),
        keyed_table(right.clone()),
        JoinKind::Inner,
        keyed_condition(1, false),
    );
    let got = batch_ctx().execute_collect(&int_eq_double).unwrap();
    // Int 1 = Double 1.0 and Int 0 = Double 0.0 — and nothing else.
    assert_eq!(got.len(), 2, "{got:?}");

    // An empty build side, for every kind (and an empty probe side).
    for kind in JOIN_KINDS {
        for (l, r) in [(left.clone(), vec![]), (vec![], right.clone())] {
            assert_engines_agree_in_order(&rel::join(
                keyed_table(l),
                keyed_table(r),
                kind,
                keyed_condition(0, false),
            ));
        }
    }
}

#[test]
fn one_key_holding_thousands_of_build_rows_keeps_candidate_order() {
    // 3 000 build rows share key 7 (beside 50 other keys): every probe
    // row of that key emits them in build order, with and without a
    // residual thinning them.
    let build: Vec<Row> = (0..3_050i64)
        .map(|n| {
            vec![
                Datum::Int(if n % 61 == 0 { n / 61 + 100 } else { 7 }),
                Datum::Null,
                Datum::str(format!("b{n}")),
                Datum::Date(0),
                Datum::Timestamp(0),
                Datum::Int(n % 3),
            ]
        })
        .collect();
    let probe: Vec<Row> = [7i64, 100, 7, 5]
        .iter()
        .enumerate()
        .map(|(n, &k)| {
            vec![
                Datum::Int(k),
                Datum::Null,
                Datum::str(format!("p{n}")),
                Datum::Date(0),
                Datum::Timestamp(0),
                Datum::Int(1),
            ]
        })
        .collect();
    for kind in JOIN_KINDS {
        for residual in [false, true] {
            assert_engines_agree_in_order(&rel::join(
                keyed_table(probe.clone()),
                keyed_table(build.clone()),
                kind,
                keyed_condition(0, residual),
            ));
        }
    }
}

#[test]
fn group_table_grows_past_seventy_thousand_groups() {
    // 75 000 distinct (Int, Str) groups, each seen twice, arriving in an
    // order that keeps creating groups while old ones are revisited.
    let n = 75_000i64;
    let rows: Vec<Row> = (0..2 * n)
        .map(|j| {
            let g = if j % 2 == 0 { j / 2 } else { n - 1 - j / 2 };
            vec![
                Datum::Int(g % 1_000),
                Datum::Null,
                Datum::str(format!("group-{}", g / 1_000)),
                Datum::Date(0),
                Datum::Timestamp(0),
                Datum::Int(j % 3),
            ]
        })
        .collect();
    let plan = keyed_group(keyed_table(rows), 7);
    assert_engines_agree_in_order(&plan);
    let got = batch_ctx().execute_collect(&plan).unwrap();
    assert_eq!(got.len(), n as usize);
    assert!(got.iter().all(|r| r[2] == Datum::Int(2)));
}

#[test]
fn overflow_adjacent_sum_errors_in_both_engines() {
    // Two i64::MAX values: SUM overflows. Both engines must fail (the
    // shared checked accumulator), not wrap or panic.
    let t = base_table(vec![
        vec![Datum::Int(1), Datum::Int(i64::MAX), Datum::Null],
        vec![Datum::Int(1), Datum::Int(i64::MAX), Datum::Null],
    ]);
    let rt = t.row_type().clone();
    let plan = rel::aggregate(
        t,
        vec![0],
        vec![AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt)],
    );
    assert!(row_ctx().execute_collect(&plan).is_err());
    assert!(batch_ctx().execute_collect(&plan).is_err());

    // i64::MAX + i64::MIN stays in range: both engines agree on the sum.
    let t = base_table(vec![
        vec![Datum::Int(1), Datum::Int(i64::MAX), Datum::Null],
        vec![Datum::Int(1), Datum::Int(i64::MIN + 1), Datum::Null],
    ]);
    let rt = t.row_type().clone();
    let plan = rel::aggregate(
        t,
        vec![0],
        vec![AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt)],
    );
    let a = row_ctx().execute_collect(&plan).unwrap();
    let b = batch_ctx().execute_collect(&plan).unwrap();
    assert_eq!(a, b);
    assert_eq!(a[0][1], Datum::Int(0));
}

#[test]
fn checked_arithmetic_matches_between_engines_at_extremes() {
    // Projection arithmetic is checked (the row engine's eval_arith
    // contract): overflow is an execution error in BOTH engines — the
    // typed batch kernel must neither wrap nor panic — and in-range
    // extremes still agree exactly.
    let overflowing = [
        (Op::Plus, i64::MAX, 1),
        (Op::Plus, i64::MIN + 1, -2),
        (Op::Minus, i64::MIN + 1, 2),
        (Op::Times, i64::MAX, 2),
        (Op::Times, i64::MIN + 1, -2),
    ];
    for (op, lhs, rhs) in overflowing {
        let t = base_table(vec![vec![Datum::Int(1), Datum::Int(lhs), Datum::Null]]);
        let e = RexNode::call(
            op.clone(),
            vec![RexNode::input(1, int_ty()), RexNode::lit_int(rhs)],
        );
        let plan = rel::project(t, vec![e], vec!["v".into()]);
        assert!(
            row_ctx().execute_collect(&plan).is_err(),
            "row engine must error for {lhs} {op:?} {rhs}"
        );
        assert!(
            batch_ctx().execute_collect(&plan).is_err(),
            "batch engine must error for {lhs} {op:?} {rhs}"
        );
    }

    let in_range = [
        (Op::Plus, i64::MAX, -1, i64::MAX - 1),
        (Op::Minus, i64::MIN + 1, 1, i64::MIN),
        (Op::Times, i64::MAX, 1, i64::MAX),
    ];
    for (op, lhs, rhs, want) in in_range {
        let t = base_table(vec![vec![Datum::Int(1), Datum::Int(lhs), Datum::Null]]);
        let e = RexNode::call(op, vec![RexNode::input(1, int_ty()), RexNode::lit_int(rhs)]);
        let plan = rel::project(t, vec![e], vec!["v".into()]);
        let a = row_ctx().execute_collect(&plan).unwrap();
        let b = batch_ctx().execute_collect(&plan).unwrap();
        assert_eq!(a, b);
        assert_eq!(a[0][0], Datum::Int(want));
    }
}

#[test]
fn empty_input_corner_cases_agree() {
    let empty = base_table(vec![]);
    let rt = empty.row_type().clone();
    for plan in [
        rel::filter(
            empty.clone(),
            RexNode::input(0, int_ty()).gt(RexNode::lit_int(0)),
        ),
        rel::aggregate(empty.clone(), vec![], vec![AggCall::count_star("c")]),
        rel::aggregate(
            empty.clone(),
            vec![0],
            vec![AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt)],
        ),
        rel::sort(empty.clone(), vec![FieldCollation::asc(1)]),
        rel::join(
            empty.clone(),
            empty.clone(),
            JoinKind::Full,
            RexNode::input(0, int_ty()).eq(RexNode::input(3, int_ty())),
        ),
        rel::union(vec![empty.clone(), empty], false),
    ] {
        let mut a = row_ctx().execute_collect(&plan).unwrap();
        let mut b = batch_ctx().execute_collect(&plan).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b, "empty-input divergence for {plan:?}");
    }
}

#[test]
fn three_way_set_ops_agree() {
    let mk = |vals: &[i64]| {
        base_table(
            vals.iter()
                .map(|&v| vec![Datum::Int(v), Datum::Null, Datum::Null])
                .collect(),
        )
    };
    let (a, b, c) = (
        mk(&[1, 1, 2, 3, 3, 3]),
        mk(&[1, 3, 3, 4]),
        mk(&[1, 1, 3, 5]),
    );
    for all in [false, true] {
        let plan = rel::intersect(vec![a.clone(), b.clone(), c.clone()], all);
        let mut x = row_ctx().execute_collect(&plan).unwrap();
        let mut y = batch_ctx().execute_collect(&plan).unwrap();
        x.sort();
        y.sort();
        assert_eq!(x, y, "3-way intersect all={all}");
        let plan = rel::minus(vec![a.clone(), b.clone(), c.clone()], all);
        let mut x = row_ctx().execute_collect(&plan).unwrap();
        let mut y = batch_ctx().execute_collect(&plan).unwrap();
        x.sort();
        y.sort();
        assert_eq!(x, y, "3-way minus all={all}");
    }
}

#[test]
fn top_k_fetch_offset_agree_with_row_engine() {
    // ORDER BY + FETCH runs as a bounded Top-K heap in the batch engine.
    // The selected rows — including which rows win among collation ties —
    // and their order must match the row engine's stable full sort for
    // every offset/fetch shape: ties, offset past the end, fetch 0.
    let rows: Vec<Row> = (0..300)
        .map(|i| {
            vec![
                Datum::Int(i % 5), // heavy ties on the sort key
                if i % 3 == 0 {
                    Datum::Null
                } else {
                    Datum::Int(i)
                },
                Datum::str(format!("s{}", i % 4)),
            ]
        })
        .collect();
    let configs = [
        (None, Some(0)),       // fetch 0: empty
        (Some(1000), Some(5)), // offset past the end: empty
        (Some(3), Some(7)),    // offset into ties
        (None, Some(10)),
        (Some(295), Some(50)), // fetch runs past the end
    ];
    for fc in [
        FieldCollation::asc(0),
        FieldCollation::desc(0),
        FieldCollation::asc(1), // NULLs in the key
        FieldCollation::desc(1),
    ] {
        for (offset, fetch) in configs {
            let plan = rel::sort_limit(base_table(rows.clone()), vec![fc.clone()], offset, fetch);
            let a = row_ctx().execute_collect(&plan).unwrap();
            let b = batch_ctx().execute_collect(&plan).unwrap();
            assert_eq!(a, b, "collation {fc:?} offset={offset:?} fetch={fetch:?}");
        }
    }
}

/// A `MemTable` of three chunks whose middle chunk holds a value that
/// does not fit the column's typed vector: that chunk's column is
/// `Generic` between two `Int` neighbours, so one scan serves batches of
/// both representations. Scan, sort, grouping and join must not care.
#[test]
fn a_generic_chunk_between_typed_neighbours_scans_sorts_and_joins() {
    use rcalcite_core::store::CHUNK_ROWS;
    use rcalcite_core::txn::DeltaOp;
    let n = (CHUNK_ROWS * 5 / 2) as i64;
    let row = |i: i64| {
        vec![
            Datum::Int(i % 97),
            Datum::Int(i),
            Datum::str(format!("s{}", i % 5)),
        ]
    };
    let mem = MemTable::new(
        RowTypeBuilder::new()
            .add_not_null("x", TypeKind::Integer)
            .add("y", TypeKind::Integer)
            .add("s", TypeKind::Varchar)
            .build(),
        (0..n).map(row).collect(),
    );
    let odd = CHUNK_ROWS as u64 + 10;
    mem.apply_delta(&[DeltaOp::Update {
        row_id: odd,
        row: vec![Datum::Int(3), Datum::Double(0.5), Datum::str("odd")],
    }])
    .unwrap();
    let mut reps = vec![];
    let snapshot = mem.scan_snapshot().unwrap().unwrap();
    let rows = snapshot.row_count();
    let mut batches = snapshot.scan_range(1024, 0, rows).unwrap();
    while let Some(cols) = batches.next_batch().unwrap() {
        reps.push(matches!(cols[1], Column::Generic(_)));
    }
    assert_eq!(reps.iter().filter(|generic| **generic).count(), 4);
    assert!(
        !reps[0] && !reps[reps.len() - 1],
        "only the middle chunk demoted"
    );

    let scan = || rel::scan(TableRef::new("t", "chunked", mem.clone()));
    let rt = scan().row_type().clone();
    let small = base_table(
        (0..97)
            .map(|i| vec![Datum::Int(i), Datum::Int(-i), Datum::Null])
            .collect(),
    );
    let plans = [
        scan(),
        rel::sort(
            scan(),
            vec![FieldCollation::desc(1), FieldCollation::asc(0)],
        ),
        rel::sort_limit(
            scan(),
            vec![FieldCollation::asc(1)],
            Some(CHUNK_ROWS - 3),
            Some(40),
        ),
        rel::aggregate(
            scan(),
            vec![0],
            vec![
                AggCall::count_star("c"),
                AggCall::new(AggFunc::Max, vec![1], false, "m", &rt),
            ],
        ),
        rel::join(
            scan(),
            small,
            JoinKind::Inner,
            RexNode::call(
                Op::Eq,
                vec![RexNode::input(0, int_ty()), RexNode::input(3, int_ty())],
            ),
        ),
    ];
    for plan in &plans {
        assert_engines_agree_in_order(plan);
    }
    let sorted = batch_ctx().execute_collect(&plans[1]).unwrap();
    assert_eq!(sorted.len(), n as usize);
    assert!(sorted.iter().any(|r| r[1] == Datum::Double(0.5)));
}

/// A table that counts how many batches its scan has served, so tests
/// can observe whether the pipeline pulls lazily or drains the scan.
/// Its snapshot makes it look like any 100 k-row range table, so the
/// tests below pin serial execution.
struct TrackingTable {
    row_type: RowType,
    snapshot: Arc<TrackingSnapshot>,
    served: Arc<AtomicUsize>,
}

impl TrackingTable {
    fn new(n: i64) -> TrackingTable {
        let served = Arc::new(AtomicUsize::new(0));
        TrackingTable {
            row_type: RowTypeBuilder::new()
                .add_not_null("v", TypeKind::Integer)
                .build(),
            snapshot: Arc::new(TrackingSnapshot {
                col: Column::from_datums(&TypeKind::Integer, (0..n).map(Datum::Int)),
                served: served.clone(),
            }),
            served,
        }
    }
}

struct TrackingSnapshot {
    col: Column,
    served: Arc<AtomicUsize>,
}

struct TrackingScan {
    snapshot: Arc<TrackingSnapshot>,
    pos: usize,
    end: usize,
    batch_size: usize,
}

impl RangeScan for TrackingSnapshot {
    fn row_count(&self) -> usize {
        self.col.len()
    }

    fn scan_range(
        self: Arc<Self>,
        batch_size: usize,
        start: usize,
        len: usize,
    ) -> CoreResult<Box<dyn BatchIter>> {
        let end = start.saturating_add(len).min(self.col.len());
        Ok(Box::new(TrackingScan {
            snapshot: self,
            pos: start,
            end,
            batch_size,
        }))
    }
}

impl BatchIter for TrackingScan {
    fn arity(&self) -> usize {
        1
    }

    fn next_batch(&mut self) -> CoreResult<Option<Vec<Column>>> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let take = self.batch_size.min(self.end - self.pos);
        let out = self.snapshot.col.slice(self.pos, take);
        self.pos += take;
        self.snapshot.served.fetch_add(1, Ordering::SeqCst);
        Ok(Some(vec![out]))
    }
}

impl Table for TrackingTable {
    fn row_type(&self) -> RowType {
        self.row_type.clone()
    }

    fn scan(&self) -> CoreResult<Box<dyn Iterator<Item = Row> + Send>> {
        let datums = self.snapshot.col.to_datums();
        Ok(Box::new(datums.into_iter().map(|d| vec![d])))
    }

    fn scan_snapshot(&self) -> CoreResult<Option<Arc<dyn RangeScan>>> {
        Ok(Some(self.snapshot.clone()))
    }
}

/// A serial batch context: the streaming contracts below are about the
/// serial pipeline (bounded parallel prefetch has its own test).
fn serial_batch_ctx() -> ExecContext {
    let mut ctx = batch_ctx();
    ctx.set_parallelism(Parallelism::serial());
    ctx
}

#[test]
fn scan_filter_project_pipelines_without_materializing() {
    // The peak-memory contract of the streaming tree: Scan→Filter→Project
    // over a 100k-row table is pulled one batch at a time — after k output
    // batches, the scan has served ~k input batches, never the whole
    // table. (The old engine drained all ~98 scan batches before the
    // first output batch existed.)
    const N: i64 = 100_000;
    let table = TrackingTable::new(N);
    let served = table.served.clone();
    let scan = rel::scan(TableRef::new("s", "big", Arc::new(table)));
    let plan = rel::project(
        rel::filter(
            scan,
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).ge(RexNode::lit_int(10)),
        ),
        vec![RexNode::call(
            Op::Plus,
            vec![
                RexNode::input(0, RelType::not_null(TypeKind::Integer)),
                RexNode::lit_int(1),
            ],
        )],
        vec!["v1".into()],
    );
    let ctx = serial_batch_ctx();

    let mut it = execute_batches(&plan, &ctx).unwrap();
    assert_eq!(served.load(Ordering::SeqCst), 0, "open() must not scan");
    let mut produced = 0usize;
    let mut total_rows = 0usize;
    while let Some(cols) = it.next_batch().unwrap() {
        produced += 1;
        total_rows += cols[0].len();
        // A handful of batches in flight at most: each output pull may
        // consume a few input batches (empty post-filter batches are
        // skipped), but the scan must never run ahead of the consumer.
        assert!(
            served.load(Ordering::SeqCst) <= produced + 4,
            "scan ran ahead: {} input batches served for {} output batches",
            served.load(Ordering::SeqCst),
            produced
        );
    }
    assert_eq!(total_rows, (N - 10) as usize);
    assert_eq!(served.load(Ordering::SeqCst), (N as usize).div_ceil(1024));
}

#[test]
fn top_k_consumes_stream_without_full_sort_memory() {
    // ORDER BY ... FETCH over 100k rows: the scan is fully consumed (a
    // sort must see every row) but the operator's state is the bounded
    // heap — the result is exactly the k smallest, served immediately.
    const N: i64 = 100_000;
    let table = TrackingTable::new(N);
    let scan = rel::scan(TableRef::new("s", "big", Arc::new(table)));
    let plan = rel::sort_limit(scan, vec![FieldCollation::desc(0)], Some(2), Some(3));
    let ctx = serial_batch_ctx();
    let rows: Vec<Row> =
        rcalcite_core::exec::collect_batches_to_rows(execute_batches(&plan, &ctx).unwrap())
            .unwrap();
    let want: Vec<Row> = (0..3).map(|i| vec![Datum::Int(N - 3 - i)]).collect();
    assert_eq!(rows, want);
}
