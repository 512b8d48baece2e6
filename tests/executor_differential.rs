//! The batch engine against the row-at-a-time oracle: generated
//! pipelines, joins, set operations and key-kernel lanes, and fixed
//! corner cases (NULL and colliding keys, overflow, empty inputs, a
//! generic chunk between typed ones, streaming without materializing).
//! Every case runs through the differential matrix (`matrix/mod.rs`), so
//! it also holds at every workers × budget cell.

mod matrix;

use matrix::*;
use proptest::prelude::*;
use rcalcite_core::catalog::{MemTable, Table, TableRef};
use rcalcite_core::datum::{Column, Datum, Row};
use rcalcite_core::rel::{self, AggCall, AggFunc, JoinKind};
use rcalcite_core::rex::{Op, RexNode};
use rcalcite_core::store::CHUNK_ROWS;
use rcalcite_core::traits::FieldCollation;
use rcalcite_core::txn::DeltaOp;
use rcalcite_core::types::{RelType, TypeKind};
use rcalcite_enumerable::execute_batches;
use std::sync::atomic::Ordering;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random operator chains over generated rows, as a `Values` input,
    /// which no exchange splits.
    #[test]
    fn pipelines_agree(
        rows in table_rows(),
        ops in proptest::collection::vec(op_spec(), 0..5),
    ) {
        let mut plan = rel::values(xys(), rows);
        for op in &ops {
            plan = apply_op(plan, op);
        }
        prop_check(&plan)?;
    }

    #[test]
    fn joins_agree(
        left in table_rows(),
        right in table_rows(),
        kind in 0usize..6,
        on_nullable in any::<bool>(),
        post in op_spec(),
    ) {
        // Join on the not-null key or the nullable column (NULL keys
        // must never match in either engine).
        let (lc, rc) = if on_nullable { (1, 4) } else { (0, 3) };
        let cond = RexNode::input(lc, int_ty()).eq(RexNode::input(rc, int_ty()));
        let plan = apply_op(rel::join(table(left), table(right), JOIN_KINDS[kind], cond), &post);
        prop_check(&plan)?;
    }

    /// INTERSECT/EXCEPT, bag and set semantics, NULL rows and duplicate
    /// multiplicities.
    #[test]
    fn set_ops_agree(
        left in table_rows(),
        right in table_rows(),
        all in any::<bool>(),
        minus in any::<bool>(),
        post in op_spec(),
    ) {
        let (l, r) = (table(left), table(right));
        let plan = if minus {
            rel::minus(vec![l, r], all)
        } else {
            rel::intersect(vec![l, r], all)
        };
        prop_check(&apply_op(plan, &post))?;
    }

    #[test]
    fn theta_joins_agree(left in table_rows(), right in table_rows(), cmp in 0usize..6) {
        let cond = RexNode::call(
            CMPS[cmp].clone(),
            vec![RexNode::input(0, int_ty()), RexNode::input(3, int_ty())],
        );
        prop_check(&rel::join(table(left), table(right), JoinKind::Inner, cond))?;
    }
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
        let cond = keyed_condition(shape, residual);
        prop_check(&rel::join(keyed("l", left), keyed("r", right), JOIN_KINDS[kind], cond))?;
    }

    #[test]
    fn keyed_groups_agree(
        rows in proptest::collection::vec(keyed_row(), 0..60),
        shape in 0usize..KEY_SHAPES.len(),
    ) {
        prop_check(&keyed_group(keyed("k", rows), shape))?;
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
    let join = |l: &[Row], r: &[Row], kind, shape, residual| {
        let cond = keyed_condition(shape, residual);
        rel::join(keyed("l", l.to_vec()), keyed("r", r.to_vec()), kind, cond)
    };
    for shape in 0..KEY_SHAPES.len() {
        for kind in JOIN_KINDS {
            for residual in [false, true] {
                check(&join(&left, &right, kind, shape, residual), true);
            }
        }
        let both: Vec<Row> = left.iter().chain(&right).cloned().collect();
        check(&keyed_group(keyed("k", both), shape), true);
    }
    // Int 1 = Double 1.0 and Int 0 = Double 0.0, and nothing else.
    let got = check(&join(&left, &right, JoinKind::Inner, 1, false), true);
    assert_eq!(got.len(), 2, "{got:?}");
    // An empty build side, for every kind (and an empty probe side).
    for kind in JOIN_KINDS {
        check(&join(&left, &[], kind, 0, false), true);
        check(&join(&[], &right, kind, 0, false), true);
    }
}

#[test]
fn one_key_holding_thousands_of_build_rows_keeps_candidate_order() {
    // 2 000 build rows share key 7 (beside 50 other keys): every probe
    // row of that key emits them in build order, with and without a
    // residual thinning them.
    let row = |k: i64, s: String, r: i64| {
        vec![
            Datum::Int(k),
            Datum::Null,
            Datum::str(s),
            Datum::Date(0),
            Datum::Timestamp(0),
            Datum::Int(r),
        ]
    };
    let build: Vec<Row> = (0..2_050i64)
        .map(|n| {
            row(
                if n % 41 == 0 { n / 41 + 100 } else { 7 },
                format!("b{n}"),
                n % 3,
            )
        })
        .collect();
    let probe: Vec<Row> = [7i64, 100, 7, 5]
        .iter()
        .enumerate()
        .map(|(n, &k)| row(k, format!("p{n}"), 1))
        .collect();
    for kind in JOIN_KINDS {
        for residual in [false, true] {
            let cond = keyed_condition(0, residual);
            let plan = rel::join(
                keyed("p", probe.clone()),
                keyed("b", build.clone()),
                kind,
                cond,
            );
            check(&plan, true);
        }
    }
}

#[test]
fn group_table_grows_past_seventy_thousand_groups() {
    // Group g's two rows arrive at positions 2g and 2(n - 1 - g), so
    // new groups keep arriving while old ones are revisited.
    let n = 72_000i64;
    let plan = many_groups(2 * n, |j| if j % 2 == 0 { j / 2 } else { n - 1 - j / 2 });
    let got = check(&plan, true);
    assert_eq!(got.len(), n as usize);
    assert!(got.iter().all(|r| r[2] == Datum::Int(2)));
}

#[test]
fn overflow_adjacent_sum_errors_in_both_engines() {
    let sum = |a: i64, b: i64| {
        let t = table(vec![
            vec![Datum::Int(1), Datum::Int(a), Datum::Null],
            vec![Datum::Int(1), Datum::Int(b), Datum::Null],
        ]);
        let rt = t.row_type().clone();
        let s = AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt);
        rel::aggregate(t, vec![0], vec![s])
    };
    // Two i64::MAX values: SUM overflows, and every cell fails (the
    // shared checked accumulator) rather than wrapping or panicking.
    assert_eq!(matrix(&sum(i64::MAX, i64::MAX), false), Ok(None));
    // i64::MAX + i64::MIN + 1 stays in range.
    let got = check(&sum(i64::MAX, i64::MIN + 1), true);
    assert_eq!(got[0][1], Datum::Int(0));
}

#[test]
fn checked_arithmetic_matches_between_engines_at_extremes() {
    // Projection arithmetic is checked: overflow is an execution error
    // everywhere (the typed batch kernel neither wraps nor panics), and
    // in-range extremes agree exactly.
    let arith = |op: Op, lhs: i64, rhs: i64| {
        let t = table(vec![vec![Datum::Int(1), Datum::Int(lhs), Datum::Null]]);
        let e = RexNode::call(op, vec![RexNode::input(1, int_ty()), RexNode::lit_int(rhs)]);
        rel::project(t, vec![e], vec!["v".into()])
    };
    for (op, lhs, rhs) in [
        (Op::Plus, i64::MAX, 1),
        (Op::Plus, i64::MIN + 1, -2),
        (Op::Minus, i64::MIN + 1, 2),
        (Op::Times, i64::MAX, 2),
        (Op::Times, i64::MIN + 1, -2),
    ] {
        let plan = arith(op.clone(), lhs, rhs);
        assert_eq!(matrix(&plan, false), Ok(None), "{lhs} {op:?} {rhs}");
    }
    for (op, lhs, rhs, want) in [
        (Op::Plus, i64::MAX, -1, i64::MAX - 1),
        (Op::Minus, i64::MIN + 1, 1, i64::MIN),
        (Op::Times, i64::MAX, 1, i64::MAX),
    ] {
        assert_eq!(check(&arith(op, lhs, rhs), true)[0][0], Datum::Int(want));
    }
}

#[test]
fn empty_input_corner_cases_agree() {
    let empty = || table(vec![]);
    let rt = xys();
    let on_x = RexNode::input(0, int_ty()).eq(RexNode::input(3, int_ty()));
    for plan in [
        rel::filter(empty(), RexNode::input(0, int_ty()).gt(RexNode::lit_int(0))),
        rel::aggregate(empty(), vec![], vec![AggCall::count_star("c")]),
        rel::aggregate(
            empty(),
            vec![0],
            vec![AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt)],
        ),
        rel::sort(empty(), vec![FieldCollation::asc(1)]),
        rel::join(empty(), empty(), JoinKind::Full, on_x),
        rel::union(vec![empty(), empty()], false),
    ] {
        check(&plan, false);
    }
}

#[test]
fn three_way_set_ops_agree() {
    let mk = |vals: &[i64]| {
        table(
            vals.iter()
                .map(|&v| vec![Datum::Int(v), Datum::Null, Datum::Null])
                .collect(),
        )
    };
    let inputs = || {
        vec![
            mk(&[1, 1, 2, 3, 3, 3]),
            mk(&[1, 3, 3, 4]),
            mk(&[1, 1, 3, 5]),
        ]
    };
    for all in [false, true] {
        check(&rel::intersect(inputs(), all), false);
        check(&rel::minus(inputs(), all), false);
    }
}

#[test]
fn top_k_fetch_offset_agree_with_row_engine() {
    // ORDER BY + FETCH runs as a bounded Top-K heap. The rows it keeps,
    // including which win among collation ties, and their order must
    // match the row engine's stable full sort for every offset/fetch
    // shape: ties, offset past the end, fetch 0.
    let rows: Vec<Row> = (0..300)
        .map(|i| {
            vec![
                Datum::Int(i % 5),
                if i % 3 == 0 {
                    Datum::Null
                } else {
                    Datum::Int(i)
                },
                Datum::str(format!("s{}", i % 4)),
            ]
        })
        .collect();
    for fc in [
        FieldCollation::asc(0),
        FieldCollation::desc(0),
        FieldCollation::asc(1), // NULLs in the key
        FieldCollation::desc(1),
    ] {
        for (offset, fetch) in [
            (None, Some(0)),
            (Some(1000), Some(5)),
            (Some(3), Some(7)),
            (None, Some(10)),
            (Some(295), Some(50)),
        ] {
            check(
                &rel::sort_limit(table(rows.clone()), vec![fc.clone()], offset, fetch),
                true,
            );
        }
    }
}

/// A `MemTable` of three chunks whose middle chunk holds a value that
/// does not fit the column's typed vector: that chunk's column is
/// `Generic` between two `Int` neighbours, so one scan serves batches of
/// both representations. Scan, sort, grouping and join must not care.
#[test]
fn a_generic_chunk_between_typed_neighbours_scans_sorts_and_joins() {
    let n = (CHUNK_ROWS * 5 / 2) as i64;
    let mem = MemTable::new(
        xys(),
        (0..n)
            .map(|i| {
                vec![
                    Datum::Int(i % 97),
                    Datum::Int(i),
                    Datum::str(format!("s{}", i % 5)),
                ]
            })
            .collect(),
    );
    mem.apply_delta(&[DeltaOp::Update {
        row_id: CHUNK_ROWS as u64 + 10,
        row: vec![Datum::Int(3), Datum::Double(0.5), Datum::str("odd")],
    }])
    .unwrap();
    let snapshot = mem.scan_snapshot().unwrap().unwrap();
    let rows = snapshot.row_count();
    let mut batches = snapshot.scan_range(1024, 0, rows).unwrap();
    batches.open().unwrap();
    let mut reps = vec![];
    while let Some(b) = batches.next().unwrap() {
        reps.push(matches!(b.column(1), Column::Generic(_)));
    }
    assert_eq!(reps.iter().filter(|generic| **generic).count(), 4);
    assert!(
        !reps[0] && !reps[reps.len() - 1],
        "only the middle chunk demoted"
    );

    let chunked = || rel::scan(TableRef::new("t", "chunked", mem.clone()));
    let rt = xys();
    let small = table(
        (0..97)
            .map(|i| vec![Datum::Int(i), Datum::Int(-i), Datum::Null])
            .collect(),
    );
    let on_x = RexNode::input(0, int_ty()).eq(RexNode::input(3, int_ty()));
    let by_y_desc = vec![FieldCollation::desc(1), FieldCollation::asc(0)];
    for plan in [
        chunked(),
        rel::sort_limit(
            chunked(),
            vec![FieldCollation::asc(1)],
            Some(CHUNK_ROWS - 3),
            Some(40),
        ),
        rel::aggregate(
            chunked(),
            vec![0],
            vec![
                AggCall::count_star("c"),
                AggCall::new(AggFunc::Max, vec![1], false, "m", &rt),
            ],
        ),
        rel::join(chunked(), small, JoinKind::Inner, on_x),
    ] {
        check(&plan, true);
    }
    let sorted = check(&rel::sort(chunked(), by_y_desc), true);
    assert_eq!(sorted.len(), n as usize);
    assert!(sorted.iter().any(|r| r[1] == Datum::Double(0.5)));
}

#[test]
fn scan_filter_project_pipelines_without_materializing() {
    // Scan→Filter→Project over 100 k rows is pulled one batch at a time
    // on the serial pipeline: after k output batches the scan has served
    // about k input batches, never the whole table.
    const N: i64 = 100_000;
    let table = TrackingTable::new(N);
    let served = || table.snapshot.batches.load(Ordering::SeqCst);
    let v = RexNode::input(0, RelType::not_null(TypeKind::Integer));
    let plan = plus_one(rel::filter(table.scan(), v.ge(RexNode::lit_int(10))));
    let ctx = fused_ctx(1, None);
    let mut it = execute_batches(&plan, &ctx).unwrap();
    it.open().unwrap();
    assert_eq!(served(), 0, "open() must not scan");
    let mut produced = 0usize;
    let mut total_rows = 0usize;
    while let Some(b) = it.next().unwrap() {
        produced += 1;
        total_rows += b.live_rows();
        // Each output pull may consume a few input batches (empty
        // post-filter batches are skipped), but the scan never runs
        // ahead of the consumer.
        assert!(
            served() <= produced + 4,
            "scan ran ahead: {} input batches served for {produced} output batches",
            served()
        );
    }
    assert_eq!(total_rows, (N - 10) as usize);
    assert_eq!(served(), (N as usize).div_ceil(1024));
}

#[test]
fn top_k_consumes_stream_without_full_sort_memory() {
    // ORDER BY … FETCH over 100 k rows consumes the whole scan but holds
    // only the bounded heap: the result is exactly the k largest.
    const N: i64 = 100_000;
    let plan = rel::sort_limit(
        TrackingTable::new(N).scan(),
        vec![FieldCollation::desc(0)],
        Some(2),
        Some(3),
    );
    let rows =
        rcalcite_core::exec::drain_rows(execute_batches(&plan, &fused_ctx(1, None)).unwrap())
            .unwrap();
    let want: Vec<Row> = (0..3).map(|i| vec![Datum::Int(N - 3 - i)]).collect();
    assert_eq!(rows, want);
}
