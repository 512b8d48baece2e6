//! Morsel-driven parallel execution: chains, aggregates, joins, key
//! lanes, sorts, a growing group table and a SQL corpus must be
//! byte-identical to serial execution at every worker count, and under
//! every memory budget at each of them, through the differential matrix
//! (`matrix/mod.rs`). Also covers bounded prefetch under a LIMIT and a
//! zero-column table that no exchange splits.

mod matrix;

use matrix::*;
use proptest::prelude::*;
use rcalcite_adapters::jdbc::JdbcAdapter;
use rcalcite_adapters::Pushdown;
use rcalcite_backends::memdb::MemDb;
use rcalcite_core::catalog::TableRef;
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::rel::{self, AggCall, AggFunc, WinFunc};
use rcalcite_core::rex::{Op, RexNode};
use rcalcite_core::traits::FieldCollation;
use rcalcite_sql::PostgresDialect;
use std::sync::atomic::Ordering;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random operator chains over the two-chunk [`base`] scan, which
    /// exchanges split into morsels.
    #[test]
    fn prop_parallel_chains_identical(ops in proptest::collection::vec(op_spec(), 0..4)) {
        let mut plan = base();
        for op in &ops {
            plan = apply_op(plan, op);
        }
        prop_check(&plan)?;
    }

    /// The same chains over a fixed `Values` base (no range scan, so no
    /// exchange): a parallel context must be just as deterministic.
    #[test]
    fn prop_parallel_scatter_identical(ops in proptest::collection::vec(op_spec(), 1..4)) {
        let rows: Vec<Row> = (0..180)
            .map(|i| {
                vec![
                    Datum::Int(i % 7),
                    if i % 11 == 0 { Datum::Null } else { Datum::Int(i % 90) },
                    Datum::str(format!("s{}", i % 3)),
                ]
            })
            .collect();
        let mut plan = rel::values(xys(), rows);
        for op in &ops {
            plan = apply_op(plan, op);
        }
        prop_check(&plan)?;
    }
}

#[test]
fn filter_project_chains_identical_across_worker_counts() {
    let plan = rel::project(
        rel::filter(base(), RexNode::input(1, int_ty()).gt(RexNode::lit_int(30))),
        vec![
            RexNode::input(0, int_ty()),
            RexNode::call(
                Op::Times,
                vec![RexNode::input(1, int_ty()), RexNode::lit_int(3)],
            ),
        ],
        vec!["x".into(), "y3".into()],
    );
    check(&plan, true);
    // A window over a chain of many morsels: the chain below the
    // row-only Window reads the table's snapshot, as the exchange does.
    let n = 20 * MORSEL as i64;
    let windowed = |t: &Arc<TrackingTable>| {
        over(
            plus_one(t.scan()),
            WinFunc::RowNumber,
            vec![],
            vec![],
            vec![FieldCollation::desc(0)],
        )
    };
    check(&windowed(&TrackingTable::new(n)), true);
    let table = TrackingTable::new(n);
    let rows = fused_ctx(4, None)
        .execute_collect(&windowed(&table))
        .unwrap();
    assert_eq!(rows.len(), n as usize);
    assert_eq!(table.snapshots.load(Ordering::SeqCst), 1);
    assert_eq!(table.snapshot.rows.load(Ordering::SeqCst), n as usize);
}

#[test]
fn aggregates_identical_across_worker_counts() {
    let rt = base().row_type().clone();
    let sum = |c: usize| AggCall::new(AggFunc::Sum, vec![c], false, "s", &rt);
    for plan in [
        // Grouped, with every accumulator.
        rel::aggregate(
            base(),
            vec![0],
            vec![
                AggCall::count_star("c"),
                sum(1),
                AggCall::new(AggFunc::Avg, vec![1], false, "a", &rt),
                AggCall::new(AggFunc::Min, vec![1], false, "mn", &rt),
                AggCall::new(AggFunc::Max, vec![1], false, "mx", &rt),
                AggCall::new(AggFunc::Count, vec![2], true, "dc", &rt),
            ],
        ),
        // Over a filtered chain, whose stages run on the workers.
        rel::aggregate(
            rel::filter(base(), RexNode::input(1, int_ty()).lt(RexNode::lit_int(60))),
            vec![0],
            vec![sum(1)],
        ),
        // A window over the grouped aggregate.
        over(
            rel::aggregate(base(), vec![0, 2], vec![sum(1)]),
            WinFunc::Agg(AggFunc::Sum),
            vec![2],
            vec![1],
            vec![FieldCollation::asc(0)],
        ),
    ] {
        check(&plan, false);
    }
}

#[test]
fn joins_identical_across_worker_counts() {
    // The theta join probes a slice of the base: its output is a
    // fraction of the cross product.
    let slice = || rel::filter(base(), RexNode::input(1, int_ty()).lt(RexNode::lit_int(8)));
    let theta = RexNode::input(0, int_ty()).lt(RexNode::input(3, int_ty()));
    for kind in JOIN_KINDS {
        check(&rel::join(slice(), dim(), kind, theta.clone()), false);
    }
    // A window over an equi-join, partitioned by the dimension's key.
    let equi = RexNode::input(1, int_ty()).eq(RexNode::input(3, int_ty()));
    let joined = rel::join(base(), dim(), rel::JoinKind::Inner, equi);
    check(
        &over(
            joined,
            WinFunc::Agg(AggFunc::Count),
            vec![0],
            vec![3],
            vec![FieldCollation::asc(0)],
        ),
        false,
    );
}

#[test]
fn keyed_joins_identical_across_worker_counts() {
    // Every key shape and join kind, every other one with a residual.
    // The build side outgrows one page: its rows partition by the
    // kernel's hash, spill, and re-split under the next salt. A
    // partition routed by the Int hash of 1 must hold the Double 1.0.
    for shape in 0..KEY_SHAPES.len() {
        for (k, kind) in JOIN_KINDS.into_iter().enumerate() {
            let cond = keyed_condition(shape, (shape + k) % 2 == 1);
            let plan = rel::join(
                keyed_scan("probe", 100, 0),
                keyed_scan("build", 450, 31),
                kind,
                cond,
            );
            check(&plan, true);
        }
    }
}

#[test]
fn keyed_aggregates_identical_across_worker_counts() {
    let facts = keyed_scan("facts", 900, 3);
    for shape in 0..KEY_SHAPES.len() {
        check(&keyed_group(facts.clone(), shape), true);
    }
}

#[test]
fn group_table_growth_identical_across_worker_counts() {
    // 72 000 groups, each seen once, in a stride-31 permutation.
    let n = 72_000i64;
    let got = check(&many_groups(n, |j| j * 31 % n), true);
    assert_eq!(got.len(), n as usize);
    assert!(got.iter().all(|r| r[2] == Datum::Int(1)));
}

#[test]
fn order_by_is_byte_identical_across_worker_counts() {
    // Heavy collation ties: each worker's Top-K and the merge of their
    // runs must reproduce the serial stable sort.
    for (offset, fetch) in [(None, Some(25)), (Some(3), Some(10))] {
        let plan = rel::sort_limit(
            base(),
            vec![FieldCollation::asc(0), FieldCollation::desc(1)],
            offset,
            fetch,
        );
        check(&plan, true);
    }
}

/// The SQL corpus on the thinned three-chunk `sales`, before any write.
#[test]
fn full_pipeline_identical_through_sql_connection() {
    corpus_identical_in_every_cell(&shop());
}

/// A zero-column memdb table behind the JDBC adapter's `Table`: it has
/// no columns for a snapshot to carry its row count, so every engine,
/// and every cell (which places no exchange over it), must count its
/// rows off the row scan.
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
    assert_eq!(check(&plan, true), vec![vec![Datum::Int(1000)]]);
}

#[test]
fn morsels_are_not_prefetched_past_limit() {
    let total = 100_000usize;
    let table = TrackingTable::new(total as i64);
    let plan = rel::sort_limit(plus_one(table.scan()), vec![], None, Some(5));
    let rows = fused_ctx(4, None).execute_collect(&plan).unwrap();
    assert_eq!(
        rows,
        (1..=5).map(|i| vec![Datum::Int(i)]).collect::<Vec<_>>()
    );
    // One snapshot sized the scan, and the workers sliced that one.
    assert_eq!(table.snapshots.load(Ordering::SeqCst), 1);
    // Backpressure bounds the workers' prefetch: the bounded exchange
    // channel plus in-flight morsels is worth a few dozen morsels, not
    // the whole table.
    let scanned = table.snapshot.rows.load(Ordering::SeqCst);
    assert!(
        scanned < total / 2,
        "LIMIT 5 let workers scan {scanned} of {total} rows"
    );
}
