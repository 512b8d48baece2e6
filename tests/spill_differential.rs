//! Out-of-core execution: aggregates, joins, key lanes, sorts and a SQL
//! corpus under every memory budget — one spill page, eight pages,
//! 4 MiB — must be byte-identical to unbounded in-memory execution at
//! every worker count, through the differential matrix
//! (`matrix/mod.rs`). Also pins the accounting contract: a generous
//! budget never touches disk, one page on an oversized working set
//! does, a budget below one spill page is an execution error, and
//! parallel plans charge and spill against the budget.

mod matrix;

use matrix::*;
use proptest::prelude::*;
use rcalcite_core::buffer::{MemoryBudget, PAGE_SIZE};
use rcalcite_core::catalog::MemTable;
use rcalcite_core::datum::Datum;
use rcalcite_core::rel::{self, AggCall, AggFunc, JoinKind, WinFunc};
use rcalcite_core::rex::RexNode;
use rcalcite_core::traits::FieldCollation;
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use rcalcite_sql::Connection;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random chains over a full sort of the two-chunk [`base`]: a
    /// build operator whose input outgrows the small budgets, with
    /// whatever the chain stacks on it.
    #[test]
    fn prop_budgeted_chains_identical(ops in proptest::collection::vec(op_spec(), 0..4)) {
        let mut plan = rel::sort(base(), vec![FieldCollation::asc(1)]);
        for op in &ops {
            plan = apply_op(plan, op);
        }
        prop_check(&plan)?;
    }
}

#[test]
fn aggregates_identical_across_budgets() {
    let rt = base().row_type().clone();
    let distinct = |c: usize| AggCall::new(AggFunc::Count, vec![c], true, "dc", &rt);
    for plan in [
        // Wide grouping (y × s) with a distinct aggregate: the state that
        // outgrows small budgets.
        rel::aggregate(
            base(),
            vec![1, 2],
            vec![AggCall::count_star("c"), distinct(0)],
        ),
        // Global: one group, partials merged across workers; the budget
        // must not perturb it.
        rel::aggregate(
            base(),
            vec![],
            vec![
                AggCall::count_star("c"),
                AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt),
                distinct(1),
            ],
        ),
    ] {
        check(&plan, false);
    }
    // A window over a 20 000-group aggregate: the aggregate below the
    // row-only Window runs on the batch engine, so one page spills it.
    let windowed = over(
        many_groups(60_000, |j| j % 20_000),
        WinFunc::RowNumber,
        vec![],
        vec![0],
        vec![FieldCollation::asc(1)],
    );
    assert_eq!(check(&windowed, true).len(), 20_000);
    let ctx = fused_ctx(1, Some(PAGE_SIZE));
    ctx.execute_collect(&windowed).unwrap();
    let ops: Vec<&str> = ctx.spill_tracker().events().iter().map(|e| e.op).collect();
    assert!(ops.contains(&"aggregate"), "{ops:?}");
    // The same aggregate directly over its scan: at every worker count
    // each worker's partial charges the budget, so one page spills it,
    // and every reservation is handed back.
    let grouped = many_groups(60_000, |j| j % 20_000);
    for workers in WORKERS {
        let ctx = fused_ctx(workers, Some(PAGE_SIZE));
        ctx.execute_collect(&grouped).unwrap();
        let ops: Vec<&str> = ctx.spill_tracker().events().iter().map(|e| e.op).collect();
        assert!(ops.contains(&"aggregate"), "workers={workers}: {ops:?}");
        assert_eq!(ctx.memory_budget().used(), 0, "workers={workers}");
    }
}

#[test]
fn joins_identical_across_budgets() {
    let equi = RexNode::input(1, int_ty()).eq(RexNode::input(3, int_ty()));
    for kind in JOIN_KINDS {
        check(&rel::join(base(), dim(), kind, equi.clone()), false);
    }
    // Self-join: the whole base is the build side and outgrows one page,
    // so grace partitions recurse or load a partition at a time; a
    // slice probes it, which keeps the output small.
    let on_y = RexNode::input(1, int_ty()).eq(RexNode::input(4, int_ty()));
    let probe = rel::filter(base(), RexNode::input(0, int_ty()).eq(RexNode::lit_int(3)));
    check(&rel::join(probe, base(), JoinKind::Inner, on_y), false);
}

#[test]
fn keyed_joins_identical_across_budgets() {
    // Three keys holding 500 build rows each, more than a page: a
    // partition cannot shrink by re-splitting, and candidates keep build
    // order. And an empty build side.
    let on_r = RexNode::input(5, int_ty()).eq(RexNode::input(KEYED_ARITY + 5, int_ty()));
    for kind in [JoinKind::Inner, JoinKind::Full, JoinKind::Anti] {
        let heavy = keyed_scan("build", 1_500, 5);
        check(
            &rel::join(keyed_scan("probe", 12, 0), heavy, kind, on_r.clone()),
            true,
        );
        let empty = rel::filter(
            keyed_scan("build", 450, 31),
            RexNode::input(5, int_ty()).gt(RexNode::lit_int(99)),
        );
        let plan = rel::join(keyed_scan("probe", 100, 0), empty, kind, on_r.clone());
        check(&plan, true);
    }
}

#[test]
fn keyed_aggregates_identical_across_budgets() {
    let facts = keyed_scan("facts", 2_000, 3);
    for shape in 0..KEY_SHAPES.len() {
        check(&keyed_group(facts.clone(), shape), true);
    }
}

#[test]
fn sorts_identical_across_budgets() {
    // Heavy collation ties: the merge of spilled runs must reproduce the
    // serial stable sort.
    for offset in [None, Some(7)] {
        let plan = rel::sort_limit(
            base(),
            vec![FieldCollation::asc(0), FieldCollation::desc(1)],
            offset,
            None,
        );
        check(&plan, true);
    }
}

#[test]
fn generous_budget_never_touches_disk() {
    let rt = xys();
    // Wide grouping with a distinct set per group: enough state to
    // outgrow one page, so the tiny-budget run spills the aggregate too.
    let plan = rel::aggregate(
        rel::sort_limit(base(), vec![FieldCollation::desc(1)], None, None),
        vec![1, 2],
        vec![
            AggCall::new(AggFunc::Sum, vec![0], false, "s", &rt),
            AggCall::new(AggFunc::Count, vec![0], true, "dx", &rt),
        ],
    );
    // Unbounded and comfortably bounded runs stay in memory...
    for bytes in [None, Some(16 * 1024 * 1024)] {
        let ctx = fused_ctx(1, bytes);
        ctx.execute_collect(&plan).unwrap();
        assert!(
            ctx.spill_tracker().stayed_in_memory(),
            "budget={bytes:?} wrote spill bytes"
        );
        assert!(ctx.spill_tracker().events().is_empty());
    }
    // ...while one spill page forces every build operator to disk.
    let ctx = fused_ctx(1, Some(PAGE_SIZE));
    ctx.execute_collect(&plan).unwrap();
    assert!(!ctx.spill_tracker().stayed_in_memory());
    let ops: Vec<&str> = ctx.spill_tracker().events().iter().map(|e| e.op).collect();
    assert!(ops.contains(&"sort"), "{ops:?}");
    assert!(ops.contains(&"aggregate"), "{ops:?}");
    assert!(ctx.spill_tracker().bytes_read() > 0);
}

#[test]
fn budget_below_one_page_is_an_execution_error() {
    let plan = rel::sort_limit(base(), vec![FieldCollation::asc(1)], None, None);
    let err = fused_ctx(1, Some(1024)).execute_collect(&plan).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("too small"), "{msg}");
    assert!(msg.contains("spill page"), "{msg}");
}

/// The SQL corpus on the thinned three-chunk `sales` after the `WRITES`
/// script committed.
#[test]
fn sql_pipeline_identical_across_budget_and_workers() {
    corpus_identical_in_every_cell(&written_shop());
}

/// A full `ORDER BY` with `workers > 1` executes as the
/// budget-accounting serial sort over its parallel child chain, so it
/// charges and spills against the budget, as EXPLAIN predicts.
#[test]
fn parallel_full_sort_charges_and_spills_against_the_budget() {
    let catalog = one_table(
        "wide",
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
    );
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
    let events = conn.spill_stats().events();
    let sort_runs: usize = events
        .iter()
        .filter(|e| e.op == "sort")
        .map(|e| e.spilled)
        .sum();
    assert!(sort_runs >= 1, "{events:?}");
    // EXPLAIN describes that plan: predicted sort runs, and a serial Sort
    // over the chain's ordered gather rather than a per-worker run merge.
    let text = conn.explain(sql).unwrap();
    assert!(text.contains("-- spill: sort"), "{text}");
    assert!(text.contains("Gather[ordered, workers=2]"), "{text}");
    assert!(!text.contains("Merge[k-way"), "{text}");
}

/// A GROUP BY over a join big enough for an exchange, with
/// `workers > 1`, runs as the serial budget-accounting aggregate over
/// the join's ordered gather, so it charges and spills.
#[test]
fn parallel_join_aggregate_charges_and_spills_against_the_budget() {
    let catalog = one_table(
        "sales",
        RowTypeBuilder::new()
            .add_not_null("product_id", TypeKind::Integer)
            .add_not_null("amount", TypeKind::Integer)
            .build(),
        (0..40_000i64)
            .map(|i| vec![Datum::Int((i * 7919) % 5_000), Datum::Int(i % 97)])
            .collect(),
    );
    catalog.schema("hr").unwrap().add_table(
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
