//! Vectorized, streaming batch execution for the enumerable convention.
//!
//! The row executor in [`crate::executor`] reproduces the paper's
//! iterator interface faithfully but pays per-row dispatch on every
//! operator. This module is the throughput path: plans compile into a
//! pull-based tree of streaming operators (the [`Operator`] open/next
//! contract from `rcalcite_core::exec`), each pulling one
//! [`ColumnBatch`] — typed column vectors of up to [`BATCH_SIZE`] rows
//! with a selection mask and its own row count — at a time from its
//! child. Scan, Values, Filter, Project, Union and Delta are fully
//! pipelined (memory stays bounded by the pipeline depth, not the table
//! size); HashJoin, Aggregate, Sort, Intersect and Minus are
//! build-then-stream: only the build side / operator state
//! materializes, and results stream out in batches.
//!
//! Two physical optimizations ride on the streaming shape:
//!
//! - **Scan→Filter→Project fusion** (always on): the plan builder
//!   collapses a Project over a Filter into one kernel invocation per
//!   batch. The filter's selection mask never materializes between the
//!   two — the projection evaluates directly over the masked batch,
//!   gathering only the columns it references.
//! - **Top-K sort**: `Sort` with a `fetch` keeps a bounded heap of
//!   `offset + fetch` rows instead of sorting the whole input, and a
//!   pure `LIMIT`/`OFFSET` (empty collation) streams and stops pulling
//!   its child as soon as the limit is satisfied.
//!
//! Every boundary speaks the same `BoxOperator<ColumnBatch>`: a table
//! snapshot's `scan_range`, a foreign child (the stream its executor
//! returns through the context) and [`execute_batches`] itself. Rows
//! enter only through [`RowsOp`] — literal rows, row-only tables, and
//! the row bridge: a node without a batch kernel (Window, IndexSeek,
//! IndexJoin) runs alone on the row engine, over inputs this engine
//! built and drained, and its rows are pivoted lazily, so a batched plan
//! always runs end to end. All kernels are pure per-batch functions
//! invoked by the streaming drivers — the shape **morsel-driven
//! parallelism** farms out: when the execution context asks for more
//! than one worker, the plan builder places the ordered gather over
//! Scan→Filter→Project chains, HashJoin probes, Aggregates and Top-K
//! sorts whose input is a table snapshot (see the "Morsel-driven
//! parallel execution" section below). Workers claim fixed-size morsels
//! of the snapshot, run the same pure kernels, and the gather (plus an
//! exact merge for aggregates and Top-K) recombines their output so
//! every parallel plan produces byte-identical results to serial
//! execution. Aggregate and Top-K are one operator each at every worker
//! count: serial is the one-worker case, a fold of the child stream.
//!
//! Semantics are pinned to the row engine: the generic expression path
//! routes through [`rcalcite_core::rex::eval_op_strict`] (the same code
//! row evaluation uses), sort routes through
//! [`crate::executor::compare_datums`], and aggregation reuses the row
//! executor's accumulators. The differential matrix in
//! `tests/matrix/mod.rs` holds the two engines equal.

use crate::aggregate::{AggSpec, AggregateOp, Windows};
use crate::executor::{compare_datums, compare_nullable, compare_rows, execute_node};
use crate::join::{HashJoinOp, JoinShared, ParallelHashJoinOp, JOIN_PARTITIONS};
use crate::keys::KeySet;
use rcalcite_core::buffer::{column_bytes, MemoryReservation, Run, RunCursor, SpillEnv};
use rcalcite_core::catalog::{RangeScan, TableRef};
use rcalcite_core::datum::{Column, Datum, Row};
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::exec::{
    concat_batches, drain_rows, split_to_batches, BatchOp, BatchesOp, BoxOperator, ChainOp,
    ColumnBatch, ExchangeItem, ExecContext, FilterMapOp, Operator, OrderedGatherOp, Parallelism,
    RowsOp, BATCH_SIZE,
};
use rcalcite_core::metadata::{window_start_field, MetadataQuery};
use rcalcite_core::rel::{AggCall, Rel, RelOp};
use rcalcite_core::rex::{eval_op_strict, BuiltinFn, Op, RexNode};
use rcalcite_core::traits::{Collation, FieldCollation};
use rcalcite_core::types::TypeKind;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Plan → operator tree
// ---------------------------------------------------------------------

/// Compiles a plan node into its streaming operator: a child in a
/// foreign convention is the stream its executor returns through the
/// context.
fn build_op(rel: &Rel, ctx: &ExecContext) -> Result<BatchOp> {
    let child = |i: usize| -> Result<BatchOp> { build_input(rel, i, ctx) };
    match &rel.op {
        RelOp::Scan { table } => Ok(Box::new(ScanOp {
            table: table.clone(),
            batches: None,
        })),
        RelOp::Values { tuples, row_type } => {
            Ok(Box::new(RowsOp::new(tuples.clone(), row_type.kinds())))
        }
        // Expressions resolve their dynamic parameters against the
        // context's bindings before entering a kernel, so the compiled
        // plan is reusable across executions of a prepared statement.
        RelOp::Filter { condition } => Ok(fused(child(0)?, Some(ctx.bind(condition)?), None)),
        RelOp::Project { exprs, .. } => {
            let bound: Vec<RexNode> = exprs.iter().map(|e| ctx.bind(e)).collect::<Result<_>>()?;
            // Fusion pass: a Project directly over a Filter in the same
            // convention collapses into one kernel invocation per batch;
            // the selection mask flows straight into the projection.
            let c = rel.input(0);
            if c.convention == rel.convention {
                if let RelOp::Filter { condition } = &c.op {
                    let src = build_input(c, 0, ctx)?;
                    return Ok(fused(src, Some(ctx.bind(condition)?), Some(bound)));
                }
            }
            Ok(fused(child(0)?, None, Some(bound)))
        }
        RelOp::Join { kind, condition } => Ok(Box::new(HashJoinOp::new(
            child(0)?,
            child(1)?,
            rel.input(0).row_type().arity(),
            rel.input(1).row_type().arity(),
            *kind,
            ctx.bind(condition)?,
            rel.input(0).row_type().kinds(),
            rel.input(1).row_type().kinds(),
            rel.row_type().kinds(),
            ctx.spill_env().clone(),
        ))),
        RelOp::Aggregate { group, aggs } => {
            // A group key the input ascends on lets finished windows
            // flush (§7.2): the same metadata the validator requires of
            // a streaming GROUP BY.
            let windows = MetadataQuery::standard()
                .ascending_group_key(rel.input(0), group)
                .map(|(pos, order)| {
                    Windows::new(pos, order, origin_column(rel.input(0), group[pos]))
                });
            Ok(Box::new(AggregateOp::new(
                FoldInput::Stream(child(0)?),
                agg_spec(rel, group, aggs, ctx),
                windows,
            )))
        }
        RelOp::Sort {
            collation,
            offset,
            fetch,
        } => {
            let input = child(0)?;
            if collation.is_empty() {
                return Ok(match (offset, fetch) {
                    // A no-op sort is the identity.
                    (None, None) => input,
                    // Pure LIMIT/OFFSET: stream, stop pulling once done.
                    _ => Box::new(LimitOp::new(input, offset.unwrap_or(0), *fetch)),
                });
            }
            match fetch {
                // ORDER BY ... LIMIT: bounded Top-K heap of offset+fetch
                // rows; the full input never materializes.
                Some(f) => Ok(Box::new(TopKOp::new(
                    FoldInput::Stream(input),
                    collation.clone(),
                    offset.unwrap_or(0),
                    *f,
                    rel.row_type().kinds(),
                ))),
                None => Ok(Box::new(FullSortOp::new(
                    input,
                    collation.clone(),
                    offset.unwrap_or(0),
                    rel.row_type().kinds(),
                    ctx.spill_env().clone(),
                ))),
            }
        }
        RelOp::Union { all } => {
            let children: Vec<BatchOp> = (0..rel.inputs.len())
                .map(|i| build_input(rel, i, ctx))
                .collect::<Result<_>>()?;
            let chain: BatchOp = Box::new(ChainOp::new(children));
            if *all {
                Ok(chain)
            } else {
                // Streaming dedup: state is the set of rows seen, keyed
                // on every column; a batch keeps the rows that added a
                // key.
                let mut seen = KeySet::default();
                Ok(Box::new(FilterMapOp::new(chain, move |b: ColumnBatch| {
                    let mut b = b.compact();
                    let (_, fresh) =
                        seen.intern(&b.columns().iter().collect::<Vec<_>>(), b.num_rows());
                    Ok((!fresh.is_empty()).then(|| {
                        b.set_selection(fresh);
                        b
                    }))
                })))
            }
        }
        RelOp::Intersect { all } => {
            let rights = (1..rel.inputs.len())
                .map(|i| build_input(rel, i, ctx))
                .collect::<Result<_>>()?;
            Ok(Box::new(IntersectOp::new(child(0)?, rights, *all)))
        }
        RelOp::Minus { all } => {
            let rights = (1..rel.inputs.len())
                .map(|i| build_input(rel, i, ctx))
                .collect::<Result<_>>()?;
            Ok(Box::new(MinusOp::new(child(0)?, rights, *all)))
        }
        // A stream's delta is its rows in arrival order: the identity.
        // What keeps a streaming plan from blocking is below it — an
        // aggregate on an ascending key flushes each finished window.
        RelOp::Delta => child(0),
        // Convert: the foreign subtree's stream, through the context.
        RelOp::Convert { .. } => ctx.execute(rel),
        // No batch operator (Window, IndexSeek, IndexJoin): run this
        // node alone on rows and pivot its output lazily.
        _ => Ok(Box::new(RowBridgeOp {
            rel: rel.clone(),
            ctx: ctx.clone(),
            rows: None,
        })),
    }
}

/// The spec of Aggregate node `rel` with keys `group` and calls `aggs`.
fn agg_spec(rel: &Rel, group: &[usize], aggs: &[AggCall], ctx: &ExecContext) -> AggSpec {
    AggSpec {
        group: group.to_vec(),
        aggs: aggs.to_vec(),
        out_kinds: rel.row_type().kinds(),
        spill: ctx.spill_env().clone(),
    }
}

/// The name of the stored column field `i` of `rel` derives from,
/// followed through bare references and window starts; else `rel`'s own
/// field name.
fn origin_column(rel: &Rel, i: usize) -> String {
    let below = match &rel.op {
        RelOp::Project { exprs, .. } => exprs[i]
            .as_input_ref()
            .or_else(|| window_start_field(&exprs[i])),
        RelOp::Filter { .. } | RelOp::Sort { .. } | RelOp::Delta | RelOp::Convert { .. } => Some(i),
        _ => None,
    };
    match below {
        Some(j) => origin_column(rel.input(0), j),
        None => rel.row_type().field(i).name.clone(),
    }
}

/// Executes a plan on the batch engine as an unopened stream, whatever
/// executor the context registers for the plan's convention: each pull
/// runs one batch through the operator tree, so consumers control how
/// much is in flight. Parallel exchange operators are placed when the
/// context asks for more than one worker and a node's shape supports
/// them; everything else compiles to the serial streaming operators.
pub fn execute_batches(rel: &Rel, ctx: &ExecContext) -> Result<BatchOp> {
    let p = ctx.parallelism();
    if p.is_parallel() {
        if let Some(op) = build_parallel(rel, ctx, p)? {
            return Ok(op);
        }
    }
    build_op(rel, ctx)
}

/// Builds input `i` of `rel`; a child in a foreign convention is that
/// convention's executor's stream.
fn build_input(rel: &Rel, i: usize, ctx: &ExecContext) -> Result<BatchOp> {
    let c = rel.input(i);
    if c.convention == rel.convention || matches!(c.op, RelOp::Convert { .. }) {
        execute_batches(c, ctx)
    } else {
        ctx.execute(c)
    }
}

/// Wraps the fused filter+project kernel into a streaming operator.
fn fused(child: BatchOp, predicate: Option<RexNode>, exprs: Option<Vec<RexNode>>) -> BatchOp {
    Box::new(FilterMapOp::new(child, move |b: ColumnBatch| {
        fused_filter_project(predicate.as_ref(), exprs.as_deref(), b)
    }))
}

// ---------------------------------------------------------------------
// Source operators: Scan, row bridge
// ---------------------------------------------------------------------

/// Streams a base table: one slice of its
/// [`rcalcite_core::catalog::Table::scan_snapshot`] per pull (the
/// in-repo stores hand out their `Arc`'d version, so nothing is copied
/// beyond the slice). A table without a snapshot — a row-only adapter, a
/// zero-column table — streams its row scan through a [`RowsOp`].
struct ScanOp {
    table: TableRef,
    batches: Option<BatchOp>,
}

impl Operator<ColumnBatch> for ScanOp {
    fn open(&mut self) -> Result<()> {
        let table = &self.table.table;
        let mut batches: BatchOp = match table.scan_snapshot()? {
            Some(snapshot) => {
                let rows = snapshot.row_count();
                snapshot.scan_range(BATCH_SIZE, 0, rows)?
            }
            None => Box::new(RowsOp::new(table.scan()?, table.row_type().kinds())),
        };
        batches.open()?;
        self.batches = Some(batches);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        self.batches.as_mut().expect("ScanOp not opened").next()
    }
}

/// Runs the row operator of a node without a batch kernel at `open`,
/// over its inputs built on this engine and drained, and pivots its rows
/// one batch at a time, so a lazy row source stays lazy.
struct RowBridgeOp {
    rel: Rel,
    ctx: ExecContext,
    rows: Option<RowsOp>,
}

impl Operator<ColumnBatch> for RowBridgeOp {
    fn open(&mut self) -> Result<()> {
        let (rel, ctx) = (&self.rel, &self.ctx);
        let rows = execute_node(rel, ctx, &|i| {
            Ok(Box::new(drain_rows(build_input(rel, i, ctx)?)?.into_iter()))
        })?;
        self.rows = Some(RowsOp::new(rows, self.rel.row_type().kinds()));
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        self.rows.as_mut().expect("RowBridgeOp not opened").next()
    }
}

// ---------------------------------------------------------------------
// Fused Filter/Project kernel
// ---------------------------------------------------------------------

/// The fused per-batch kernel: filter (optional) then project
/// (optional) in one pass. The selection computed by the filter never
/// materializes as an intermediate batch — the projection evaluates
/// over the mask, gathering only the columns it references. Returns
/// `None` when the filter selects nothing (the batch is dropped).
fn fused_filter_project(
    predicate: Option<&RexNode>,
    exprs: Option<&[RexNode]>,
    b: ColumnBatch,
) -> Result<Option<ColumnBatch>> {
    let mut b = b.compact();
    let sel: Option<Vec<usize>> = match predicate {
        None => None,
        Some(cond) => {
            let sel = filter_selection(cond, &b);
            if sel.is_empty() {
                return Ok(None);
            }
            // A full selection is represented as "no mask".
            (sel.len() < b.num_rows()).then_some(sel)
        }
    };
    match exprs {
        None => {
            if let Some(sel) = sel {
                b.set_selection(sel);
            }
            Ok(Some(b))
        }
        Some(exprs) => {
            let n = sel.as_ref().map_or(b.num_rows(), Vec::len);
            let columns: Vec<Column> = exprs
                .iter()
                .map(|e| eval_batch_sel(e, &b, sel.as_deref()))
                .collect::<Result<_>>()?;
            Ok(Some(ColumnBatch::with_len(columns, n)))
        }
    }
}

/// Evaluates a filter predicate over a dense batch, returning the live
/// row indexes. The row engine's filter drops rows whose predicate
/// errors (`matches!(cond.eval(row), Ok(true))`); reproduce that by
/// re-evaluating per row when the vectorized pass fails.
fn filter_selection(condition: &RexNode, b: &ColumnBatch) -> Vec<usize> {
    match eval_batch(condition, b) {
        Ok(Column::Bool { values, valid }) => (0..b.num_rows())
            .filter(|&i| valid[i] && values[i])
            .collect(),
        Ok(col) => (0..b.num_rows())
            .filter(|&i| col.get(i) == Datum::Bool(true))
            .collect(),
        Err(_) => (0..b.num_rows())
            .filter(|&i| matches!(condition.eval(&b.row(i)), Ok(Datum::Bool(true))))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Vectorized expression evaluation
// ---------------------------------------------------------------------

/// Evaluates an expression over every row of a dense batch.
pub(crate) fn eval_batch(e: &RexNode, b: &ColumnBatch) -> Result<Column> {
    eval_batch_sel(e, b, None)
}

/// Evaluates an expression over the selected rows of a dense batch,
/// producing a dense column of `sel.len()` values (all rows when `sel`
/// is `None`). Only the live rows are ever evaluated, so errors surface
/// exactly where row execution would surface them. Fast paths run typed
/// loops; everything else goes through the generic per-row path built
/// on the same [`eval_op_strict`] the row engine uses.
fn eval_batch_sel(e: &RexNode, b: &ColumnBatch, sel: Option<&[usize]>) -> Result<Column> {
    debug_assert!(b.selection().is_none(), "eval_batch needs a dense batch");
    let n = sel.map_or(b.num_rows(), <[usize]>::len);
    match e {
        RexNode::InputRef { index, .. } => Ok(match sel {
            None => b.column(*index).clone(),
            Some(s) => b.column(*index).gather(s),
        }),
        RexNode::Literal { value, .. } => Ok(Column::repeat(value, n)),
        RexNode::DynamicParam { index, .. } => Err(CalciteError::execution(format!(
            "unbound dynamic parameter ?{index} reached a batch kernel; \
             bind values through the execution context"
        ))),
        RexNode::Call { op, args, .. } => match op {
            // Lazy operators: the row engine short-circuits them, so an
            // eagerly-evaluated argument may error where row execution
            // would not. Combine vectorized when all arguments evaluate
            // cleanly; otherwise redo the whole call row-by-row (which
            // short-circuits exactly like the row engine).
            Op::And | Op::Or | Op::Case | Op::Func(BuiltinFn::Coalesce) => {
                let argcols: Result<Vec<Column>> =
                    args.iter().map(|a| eval_batch_sel(a, b, sel)).collect();
                match argcols {
                    Ok(cols) => eval_lazy_vector(op, &cols, n),
                    Err(_) => eval_rowwise(e, b, sel),
                }
            }
            _ => {
                let cols: Vec<Column> = args
                    .iter()
                    .map(|a| eval_batch_sel(a, b, sel))
                    .collect::<Result<_>>()?;
                eval_strict_vector(e, &cols, n)
            }
        },
    }
}

/// Row-by-row evaluation of one expression over the live rows of a
/// dense batch — the exact row-engine semantics, used as the fallback.
fn eval_rowwise(e: &RexNode, b: &ColumnBatch, sel: Option<&[usize]>) -> Result<Column> {
    let n = sel.map_or(b.num_rows(), <[usize]>::len);
    let mut out = Column::for_kind_with_capacity(&e.ty().kind, n);
    let mut eval_at = |i: usize| -> Result<()> {
        out.push(e.eval(&b.row(i))?);
        Ok(())
    };
    match sel {
        None => {
            for i in 0..b.num_rows() {
                eval_at(i)?;
            }
        }
        Some(s) => {
            for &i in s {
                eval_at(i)?;
            }
        }
    }
    Ok(out)
}

/// Three-valued combination of pre-evaluated lazy-operator arguments.
/// Operands are walked per row in argument order, so short-circuiting —
/// including which rows surface a non-boolean-operand error — matches
/// the row engine's `eval_call` exactly.
fn eval_lazy_vector(op: &Op, cols: &[Column], n: usize) -> Result<Column> {
    let mut out = Column::for_kind_with_capacity(&TypeKind::Boolean, n);
    match op {
        Op::And => {
            for i in 0..n {
                let mut saw_null = false;
                let mut val = Some(true);
                for c in cols {
                    match c.get(i) {
                        Datum::Bool(false) => {
                            val = Some(false);
                            break;
                        }
                        Datum::Null => saw_null = true,
                        Datum::Bool(true) => {}
                        v => {
                            return Err(CalciteError::execution(format!(
                                "AND operand is not boolean: {v}"
                            )))
                        }
                    }
                }
                out.push(match val {
                    Some(false) => Datum::Bool(false),
                    _ if saw_null => Datum::Null,
                    _ => Datum::Bool(true),
                });
            }
        }
        Op::Or => {
            for i in 0..n {
                let mut saw_null = false;
                let mut val = Some(false);
                for c in cols {
                    match c.get(i) {
                        Datum::Bool(true) => {
                            val = Some(true);
                            break;
                        }
                        Datum::Null => saw_null = true,
                        Datum::Bool(false) => {}
                        v => {
                            return Err(CalciteError::execution(format!(
                                "OR operand is not boolean: {v}"
                            )))
                        }
                    }
                }
                out.push(match val {
                    Some(true) => Datum::Bool(true),
                    _ if saw_null => Datum::Null,
                    _ => Datum::Bool(false),
                });
            }
        }
        Op::Case => {
            let mut out_case = Column::Generic(Vec::with_capacity(n));
            for i in 0..n {
                let mut j = 0;
                let mut v = Datum::Null;
                while j + 1 < cols.len() {
                    if cols[j].get(i) == Datum::Bool(true) {
                        v = cols[j + 1].get(i);
                        j = usize::MAX;
                        break;
                    }
                    j += 2;
                }
                if j != usize::MAX && j < cols.len() {
                    v = cols[j].get(i);
                }
                out_case.push(v);
            }
            return Ok(out_case);
        }
        Op::Func(BuiltinFn::Coalesce) => {
            let mut out_c = Column::Generic(Vec::with_capacity(n));
            for i in 0..n {
                let v = cols
                    .iter()
                    .map(|c| c.get(i))
                    .find(|d| !d.is_null())
                    .unwrap_or(Datum::Null);
                out_c.push(v);
            }
            return Ok(out_c);
        }
        _ => unreachable!("not a lazy operator"),
    }
    Ok(out)
}

/// Strict-operator application over argument columns: typed loops for
/// the hot shapes, per-row [`eval_op_strict`] for the rest. Integer
/// arithmetic is checked, matching `eval_arith` in the row engine.
fn eval_strict_vector(e: &RexNode, cols: &[Column], n: usize) -> Result<Column> {
    let RexNode::Call { op, ty, .. } = e else {
        unreachable!()
    };

    // IS [NOT] NULL are not strict: evaluate on validity directly.
    match op {
        Op::IsNull => {
            return Ok(Column::Bool {
                values: (0..n).map(|i| cols[0].is_null(i)).collect(),
                valid: vec![true; n],
            })
        }
        Op::IsNotNull => {
            return Ok(Column::Bool {
                values: (0..n).map(|i| !cols[0].is_null(i)).collect(),
                valid: vec![true; n],
            })
        }
        _ => {}
    }

    // Typed fast paths over the two-argument numeric shapes.
    if cols.len() == 2 {
        if let (
            Column::Int {
                values: xs,
                valid: xv,
            },
            Column::Int {
                values: ys,
                valid: yv,
            },
        ) = (&cols[0], &cols[1])
        {
            match op {
                Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                    let mut values = Vec::with_capacity(n);
                    let mut valid = Vec::with_capacity(n);
                    for i in 0..n {
                        let ok = xv[i] && yv[i];
                        valid.push(ok);
                        values.push(
                            ok && match op {
                                Op::Eq => xs[i] == ys[i],
                                Op::Ne => xs[i] != ys[i],
                                Op::Lt => xs[i] < ys[i],
                                Op::Le => xs[i] <= ys[i],
                                Op::Gt => xs[i] > ys[i],
                                Op::Ge => xs[i] >= ys[i],
                                _ => unreachable!(),
                            },
                        );
                    }
                    return Ok(Column::Bool { values, valid });
                }
                // Checked arithmetic: overflow is an execution error on
                // the live row, exactly as the row engine's `eval_arith`.
                Op::Plus | Op::Minus | Op::Times => {
                    let mut values = Vec::with_capacity(n);
                    let mut valid = Vec::with_capacity(n);
                    for i in 0..n {
                        let ok = xv[i] && yv[i];
                        valid.push(ok);
                        values.push(if ok {
                            match op {
                                Op::Plus => xs[i].checked_add(ys[i]),
                                Op::Minus => xs[i].checked_sub(ys[i]),
                                Op::Times => xs[i].checked_mul(ys[i]),
                                _ => unreachable!(),
                            }
                            .ok_or_else(|| {
                                CalciteError::execution(format!("integer overflow in {op:?}"))
                            })?
                        } else {
                            0
                        });
                    }
                    return Ok(Column::Int { values, valid });
                }
                _ => {}
            }
        }
        if let (
            Column::Double {
                values: xs,
                valid: xv,
            },
            Column::Double {
                values: ys,
                valid: yv,
            },
        ) = (&cols[0], &cols[1])
        {
            match op {
                Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                    // Mirror Datum's total order on doubles.
                    let mut values = Vec::with_capacity(n);
                    let mut valid = Vec::with_capacity(n);
                    for i in 0..n {
                        let ok = xv[i] && yv[i];
                        valid.push(ok);
                        let c = xs[i].total_cmp(&ys[i]);
                        values.push(
                            ok && match op {
                                Op::Eq => c.is_eq(),
                                Op::Ne => c.is_ne(),
                                Op::Lt => c.is_lt(),
                                Op::Le => c.is_le(),
                                Op::Gt => c.is_gt(),
                                Op::Ge => c.is_ge(),
                                _ => unreachable!(),
                            },
                        );
                    }
                    return Ok(Column::Bool { values, valid });
                }
                Op::Plus | Op::Minus | Op::Times => {
                    let mut values = Vec::with_capacity(n);
                    let mut valid = Vec::with_capacity(n);
                    for i in 0..n {
                        let ok = xv[i] && yv[i];
                        valid.push(ok);
                        values.push(if ok {
                            match op {
                                Op::Plus => xs[i] + ys[i],
                                Op::Minus => xs[i] - ys[i],
                                Op::Times => xs[i] * ys[i],
                                _ => unreachable!(),
                            }
                        } else {
                            0.0
                        });
                    }
                    return Ok(Column::Double { values, valid });
                }
                _ => {}
            }
        }
        if let (
            Column::Str {
                values: xs,
                valid: xv,
            },
            Column::Str {
                values: ys,
                valid: yv,
            },
        ) = (&cols[0], &cols[1])
        {
            if matches!(op, Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge) {
                let mut values = Vec::with_capacity(n);
                let mut valid = Vec::with_capacity(n);
                for i in 0..n {
                    let ok = xv[i] && yv[i];
                    valid.push(ok);
                    let c = xs[i].cmp(&ys[i]);
                    values.push(
                        ok && match op {
                            Op::Eq => c.is_eq(),
                            Op::Ne => c.is_ne(),
                            Op::Lt => c.is_lt(),
                            Op::Le => c.is_le(),
                            Op::Gt => c.is_gt(),
                            Op::Ge => c.is_ge(),
                            _ => unreachable!(),
                        },
                    );
                }
                return Ok(Column::Bool { values, valid });
            }
        }
    }

    // Generic path: strict NULL rule + the row engine's own operator
    // implementation, applied per row over the argument columns.
    let mut out = Column::for_kind_with_capacity(&ty.kind, n);
    let mut vals: Vec<Datum> = Vec::with_capacity(cols.len());
    for i in 0..n {
        vals.clear();
        vals.extend(cols.iter().map(|c| c.get(i)));
        if vals.iter().any(Datum::is_null) {
            out.push_null();
        } else {
            out.push(eval_op_strict(op, &vals, ty)?);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Out-of-core spill machinery
// ---------------------------------------------------------------------
//
// The build-then-stream operators (hash join, aggregate, full sort)
// account their build state against the context's `MemoryBudget` and
// degrade to spilling variants when a reservation fails:
//
// - hash join → hybrid hash: the build side hash-partitions on its equi
//   keys; partitions that fit stay resident, the rest spill to runs and
//   are probed partition-at-a-time after the streamed probe, recursing
//   with a re-salted hash when a partition still doesn't fit.
// - aggregate → partial-state spill: the accumulator table (one per
//   worker) serializes as a chunk and resets; chunks merge on read
//   through the exact `AggState::merge`.
// - sort → external merge sort: sorted runs spill, a k-way merge streams
//   them back in collation order.
//
// Every spilled entry carries a `u64` sequence key reproducing the exact
// serial output order, so spilling stays byte-identical to in-memory
// execution (the invariant the budget cells of `tests/matrix/mod.rs`
// pin).

/// Estimated heap footprint of a dense batch, for budget accounting.
pub(crate) fn batch_bytes(b: &ColumnBatch) -> usize {
    64 + b.columns().iter().map(column_bytes).sum::<usize>()
}

/// How a [`RunMerger`] orders its sources' heads.
pub(crate) enum MergeCmp {
    /// By the `u64` entry key alone (ties resolved to the first source —
    /// join output runs never share a key across runs).
    Key,
    /// By collation over the rows, then entry key (the external-sort
    /// order; keys are unique input sequences, so the order is total).
    Rows(Collation),
}

/// One source of a k-way merge: a spill run, or an in-memory sorted run
/// (a full sort's tail, a parallel Top-K worker's heap).
pub(crate) enum MergeFeed {
    Run(RunCursor),
    Mem(std::vec::IntoIter<(u64, Row)>),
}

impl MergeFeed {
    fn next(&mut self) -> Result<Option<(u64, Row)>> {
        match self {
            MergeFeed::Run(c) => c.next_entry(),
            MergeFeed::Mem(it) => Ok(it.next()),
        }
    }
}

/// Streaming k-way merge over sorted `(key, row)` sources. One head
/// entry per source is resident; a linear min-scan picks the next entry
/// (source count is small — spill partitions or sort runs).
pub(crate) struct RunMerger {
    feeds: Vec<MergeFeed>,
    heads: Vec<Option<(u64, Row)>>,
    cmp: MergeCmp,
    primed: bool,
}

impl RunMerger {
    pub(crate) fn new(feeds: Vec<MergeFeed>, cmp: MergeCmp) -> RunMerger {
        let heads = feeds.iter().map(|_| None).collect();
        RunMerger {
            feeds,
            heads,
            cmp,
            primed: false,
        }
    }

    fn less(&self, a: &(u64, Row), b: &(u64, Row)) -> bool {
        match &self.cmp {
            MergeCmp::Key => a.0 < b.0,
            MergeCmp::Rows(collation) => cmp_entries(collation, a, b) == Ordering::Less,
        }
    }

    fn next_entry(&mut self) -> Result<Option<(u64, Row)>> {
        if !self.primed {
            for i in 0..self.feeds.len() {
                self.heads[i] = self.feeds[i].next()?;
            }
            self.primed = true;
        }
        let mut best: Option<usize> = None;
        for i in 0..self.heads.len() {
            if let Some(h) = &self.heads[i] {
                // Strict `less` keeps equal keys in source order, which
                // preserves FIFO within each run.
                if best.is_none_or(|b| self.less(h, self.heads[b].as_ref().unwrap())) {
                    best = Some(i);
                }
            }
        }
        let Some(b) = best else {
            return Ok(None);
        };
        let entry = self.heads[b].take().unwrap();
        self.heads[b] = self.feeds[b].next()?;
        Ok(Some(entry))
    }

    /// Drains up to `BATCH_SIZE` rows into a batch (`None` when done).
    pub(crate) fn next_batch(&mut self, kinds: &[TypeKind]) -> Result<Option<ColumnBatch>> {
        let mut rows: Vec<Row> = Vec::new();
        while rows.len() < BATCH_SIZE {
            match self.next_entry()? {
                Some((_, r)) => rows.push(r),
                None => break,
            }
        }
        if rows.is_empty() {
            return Ok(None);
        }
        Ok(Some(ColumnBatch::from_rows(kinds, &rows)))
    }
}

// ---------------------------------------------------------------------
// Sort: streaming LIMIT, bounded Top-K, full sort
// ---------------------------------------------------------------------

/// Pure `LIMIT`/`OFFSET` (no collation): streams through, trimming
/// batches, and stops pulling its child once the fetch is satisfied —
/// the rest of the input is never produced.
struct LimitOp {
    child: BatchOp,
    skip: usize,
    remaining: Option<usize>,
    done: bool,
}

impl LimitOp {
    fn new(child: BatchOp, offset: usize, fetch: Option<usize>) -> LimitOp {
        LimitOp {
            child,
            skip: offset,
            remaining: fetch,
            done: false,
        }
    }
}

impl Operator<ColumnBatch> for LimitOp {
    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        if self.done || self.remaining == Some(0) {
            return Ok(None);
        }
        loop {
            let Some(b) = self.child.next()? else {
                self.done = true;
                return Ok(None);
            };
            let b = b.compact();
            if self.skip >= b.num_rows() {
                self.skip -= b.num_rows();
                continue;
            }
            let start = std::mem::take(&mut self.skip);
            let avail = b.num_rows() - start;
            let take = self.remaining.map_or(avail, |r| avail.min(r));
            if let Some(r) = &mut self.remaining {
                *r -= take;
            }
            let out = if start == 0 && take == b.num_rows() {
                b
            } else {
                b.slice(start, take)
            };
            return Ok(Some(out));
        }
    }
}

/// A bounded Top-K heap over rows: keeps the `k` smallest entries under
/// `(collation key, input sequence)`. The sequence tiebreak reproduces
/// the stable sort of the row engine, so both engines select the same
/// rows among collation ties.
struct TopK {
    k: usize,
    collation: Collation,
    /// Binary max-heap: the worst kept entry sits at index 0.
    heap: Vec<(u64, Row)>,
}

fn cmp_entries(collation: &Collation, a: &(u64, Row), b: &(u64, Row)) -> Ordering {
    compare_rows(&a.1, &b.1, collation).then(a.0.cmp(&b.0))
}

impl TopK {
    fn new(k: usize, collation: Collation) -> TopK {
        TopK {
            k,
            collation,
            heap: Vec::with_capacity(k.min(BATCH_SIZE)),
        }
    }

    /// Offers row `i` of a dense batch. The candidate is compared to the
    /// current worst straight from the columns, so rejected rows (the
    /// common case once the heap fills) are never materialized.
    fn offer(&mut self, b: &ColumnBatch, i: usize, seq: u64) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() == self.k {
            let worst = &self.heap[0];
            let mut ord = Ordering::Equal;
            for fc in &self.collation {
                ord = compare_datums(fc, &b.column(fc.field).get(i), &worst.1[fc.field]);
                if ord != Ordering::Equal {
                    break;
                }
            }
            if ord.then(seq.cmp(&worst.0)) != Ordering::Less {
                return;
            }
            self.heap[0] = (seq, b.row(i));
            self.sift_down(0);
        } else {
            self.heap.push((seq, b.row(i)));
            self.sift_up(self.heap.len() - 1);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if cmp_entries(&self.collation, &self.heap[i], &self.heap[parent]) == Ordering::Greater
            {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            for c in [l, r] {
                if c < self.heap.len()
                    && cmp_entries(&self.collation, &self.heap[c], &self.heap[largest])
                        == Ordering::Greater
                {
                    largest = c;
                }
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }

    /// The kept entries in collation order (ties in input order), with
    /// their input sequence numbers — what the k-way merge consumes.
    fn into_sorted_entries(self) -> Vec<(u64, Row)> {
        let TopK {
            collation,
            mut heap,
            ..
        } = self;
        heap.sort_by(|a, b| cmp_entries(&collation, a, b));
        heap
    }
}

/// `ORDER BY ... [OFFSET o] FETCH f`, at every worker count: each worker
/// (one, over a stream) fills a Top-K heap of `o + f` rows from its share
/// of the input, and the spill layer's [`RunMerger`] recombines the
/// heaps under the collation, then streams the survivors. Memory is
/// O(workers × (o + f)), not O(input).
struct TopKOp {
    input: FoldInput,
    collation: Collation,
    offset: usize,
    fetch: usize,
    out_kinds: Vec<TypeKind>,
    out: BatchOp,
}

impl TopKOp {
    fn new(
        input: FoldInput,
        collation: Collation,
        offset: usize,
        fetch: usize,
        out_kinds: Vec<TypeKind>,
    ) -> TopKOp {
        TopKOp {
            input,
            collation,
            offset,
            fetch,
            out_kinds,
            out: Box::new(BatchesOp::new([])),
        }
    }
}

impl Operator<ColumnBatch> for TopKOp {
    fn open(&mut self) -> Result<()> {
        let k = self.offset.saturating_add(self.fetch);
        let heaps = self.input.fold(
            || TopK::new(k, self.collation.clone()),
            |topk: &mut TopK, b: ColumnBatch, seq0| {
                for i in 0..b.num_rows() {
                    topk.offer(&b, i, seq0 + i as u64);
                }
                Ok(())
            },
        )?;
        let feeds = heaps
            .into_iter()
            .map(|topk| MergeFeed::Mem(topk.into_sorted_entries().into_iter()))
            .collect();
        // `(collation, input sequence)` is the serial stable sort's order,
        // so the merged rows are byte-identical at every worker count.
        let mut merger = RunMerger::new(feeds, MergeCmp::Rows(self.collation.clone()));
        let mut rows = vec![];
        let mut skip = self.offset;
        while rows.len() < self.fetch {
            let Some((_, row)) = merger.next_entry()? else {
                break;
            };
            if skip > 0 {
                skip -= 1;
            } else {
                rows.push(row);
            }
        }
        self.out = Box::new(RowsOp::new(rows, std::mem::take(&mut self.out_kinds)));
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        self.out.next()
    }
}

/// Sorts a group of batches in memory and returns `(seq, row)` entries,
/// where `seq` is the row's arrival index (`seq0` + position in the
/// group). The stable index sort means entries come out ordered by
/// `(collation, seq)` — exactly the total order the external merge
/// reproduces across runs.
fn sort_group_entries(
    batches: Vec<ColumnBatch>,
    arity: usize,
    collation: &Collation,
    seq0: u64,
) -> Vec<(u64, Row)> {
    let b = concat_batches(batches, arity);
    sort_indexes(&b, collation)
        .into_iter()
        .map(|i| (seq0 + i as u64, b.row(i)))
        .collect()
}

/// Full sort (no fetch), at every worker count: materializes the input
/// (the sort itself needs every row; a parallel child chain arrives in
/// serial order through its ordered gather), sorts an index vector
/// through [`sort_indexes`] and streams the result in batch-sized
/// chunks. Under a bounded [`MemoryBudget`] this becomes an
/// external merge sort: when the accumulated input outgrows the budget
/// it is sorted and flushed as a run, and the runs (plus the in-memory
/// tail) k-way merge on read. Every entry carries its arrival sequence,
/// so the merge order `(collation, seq)` is the same total order the
/// in-memory stable sort produces — spilled output is byte-identical.
struct FullSortOp {
    child: BatchOp,
    collation: Collation,
    offset: usize,
    out_kinds: Vec<TypeKind>,
    spill: SpillEnv,
    merge: Option<(RunMerger, usize)>,
    #[allow(dead_code)] // holds the in-memory tail's budget reservation
    reservation: Option<MemoryReservation>,
    out: VecDeque<ColumnBatch>,
}

impl FullSortOp {
    fn new(
        child: BatchOp,
        collation: Collation,
        offset: usize,
        out_kinds: Vec<TypeKind>,
        spill: SpillEnv,
    ) -> FullSortOp {
        FullSortOp {
            child,
            collation,
            offset,
            out_kinds,
            spill,
            merge: None,
            reservation: None,
            out: VecDeque::new(),
        }
    }
}

impl Operator<ColumnBatch> for FullSortOp {
    fn open(&mut self) -> Result<()> {
        self.child.open()?;
        let arity = self.out_kinds.len();
        let bounded = self.spill.budget.is_bounded();
        let mut res = MemoryReservation::new(self.spill.budget.clone());
        let kinds = Arc::new(self.out_kinds.clone());
        let mut pending: Vec<ColumnBatch> = vec![];
        let mut runs: Vec<Run> = vec![];
        let mut seq_base = 0u64;
        while let Some(b) = self.child.next()? {
            let b = b.compact();
            let grew = !bounded || res.try_grow(batch_bytes(&b));
            pending.push(b);
            if !grew {
                self.spill.budget.require_spillable()?;
                // Sort what we hold (including the batch that failed to
                // reserve) and flush it as one run.
                let group = std::mem::take(&mut pending);
                let entries = sort_group_entries(group, arity, &self.collation, seq_base);
                seq_base += entries.len() as u64;
                let mut w = self.spill.run_writer("sort", Arc::clone(&kinds))?;
                for (k, row) in entries {
                    w.push(k, row)?;
                }
                runs.push(w.finish()?);
                res.release_all();
            }
        }
        if runs.is_empty() {
            // Exact in-memory path (the pre-spill code), reservation held
            // for the operator's lifetime.
            let b = concat_batches(pending, arity);
            let idx = sort_indexes(&b, &self.collation);
            let start = self.offset.min(idx.len());
            let idx = &idx[start..];
            if idx.is_empty() {
                return Ok(());
            }
            let sorted = ColumnBatch::with_len(
                b.columns().iter().map(|c| c.gather(idx)).collect(),
                idx.len(),
            );
            self.out = split_to_batches(sorted).into();
            self.reservation = Some(res);
            return Ok(());
        }
        let tail = sort_group_entries(pending, arity, &self.collation, seq_base);
        self.spill.tracker.record(
            "sort",
            runs.len(),
            runs.len() + usize::from(!tail.is_empty()),
        );
        let mut feeds: Vec<MergeFeed> = runs
            .into_iter()
            .map(|r| MergeFeed::Run(r.cursor()))
            .collect();
        if !tail.is_empty() {
            feeds.push(MergeFeed::Mem(tail.into_iter()));
        }
        self.merge = Some((
            RunMerger::new(feeds, MergeCmp::Rows(self.collation.clone())),
            self.offset,
        ));
        self.reservation = Some(res);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        if let Some((merger, skip)) = &mut self.merge {
            while *skip > 0 {
                if merger.next_entry()?.is_none() {
                    return Ok(None);
                }
                *skip -= 1;
            }
            return merger.next_batch(&self.out_kinds);
        }
        Ok(self.out.pop_front())
    }
}

/// Rows `a` and `c` of one key column under its collation: two indexed
/// loads and a native compare over the typed vectors — the same order,
/// NULL placement included, as [`compare_datums`] over the two datums
/// (which `Generic` columns still go through, by reference).
fn compare_at(fc: &FieldCollation, col: &Column, a: usize, c: usize) -> Ordering {
    match col {
        Column::Int { values, valid } => {
            compare_nullable(fc, !valid[a], !valid[c], || values[a].cmp(&values[c]))
        }
        Column::Double { values, valid } => {
            compare_nullable(fc, !valid[a], !valid[c], || values[a].total_cmp(&values[c]))
        }
        Column::Bool { values, valid } => {
            compare_nullable(fc, !valid[a], !valid[c], || values[a].cmp(&values[c]))
        }
        Column::Str { values, valid } => {
            compare_nullable(fc, !valid[a], !valid[c], || values[a].cmp(&values[c]))
        }
        Column::Generic(v) => compare_datums(fc, &v[a], &v[c]),
    }
}

/// The permutation that stably sorts a dense batch under `collation`
/// (identity for an empty collation) — the one sort kernel: the
/// collation resolves once to its key columns, and every comparison
/// runs over their typed vectors without materializing a [`Datum`].
fn sort_indexes(b: &ColumnBatch, collation: &Collation) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..b.num_rows()).collect();
    let keys: Vec<(&FieldCollation, &Column)> = collation
        .iter()
        .map(|fc| (fc, b.column(fc.field)))
        .collect();
    if !keys.is_empty() {
        idx.sort_by(|&a, &c| {
            keys.iter()
                .map(|(fc, col)| compare_at(fc, col, a, c))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
    }
    idx
}

// ---------------------------------------------------------------------
// Set operations: Intersect / Minus (build rights, stream left)
// ---------------------------------------------------------------------

/// Drains `op` into a multiset keyed on every column: the distinct rows
/// (interned into `keys`, whose ids index the result) and how often each
/// occurred.
fn count_rows(op: &mut BatchOp, keys: &mut KeySet, counts: &mut Vec<usize>) -> Result<()> {
    while let Some(b) = op.next()? {
        let b = b.compact();
        let (ids, _) = keys.intern(&b.columns().iter().collect::<Vec<_>>(), b.num_rows());
        counts.resize(keys.len(), 0);
        for id in ids {
            counts[id as usize] += 1;
        }
    }
    Ok(())
}

/// INTERSECT [ALL]: the right inputs build per-row counts (the multiset
/// minimum across sides); the left input then streams through, each
/// batch emitting its surviving rows. Matches the row engine's bag/set
/// semantics exactly.
struct IntersectOp {
    left: BatchOp,
    rights: Vec<BatchOp>,
    all: bool,
    /// The rows of the first right input, with how many of each the
    /// output may still emit.
    keys: KeySet,
    quota: Vec<usize>,
}

impl IntersectOp {
    fn new(left: BatchOp, rights: Vec<BatchOp>, all: bool) -> Self {
        IntersectOp {
            left,
            rights,
            all,
            keys: KeySet::default(),
            quota: vec![],
        }
    }
}

impl Operator<ColumnBatch> for IntersectOp {
    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        for (i, r) in self.rights.iter_mut().enumerate() {
            r.open()?;
            if i == 0 {
                count_rows(r, &mut self.keys, &mut self.quota)?;
                continue;
            }
            // Later inputs cap the counts; rows they lack drop to zero
            // (rows only they hold get ids past `quota` and are ignored).
            let mut counts = vec![0; self.quota.len()];
            count_rows(r, &mut self.keys, &mut counts)?;
            for (q, c) in self.quota.iter_mut().zip(counts) {
                *q = (*q).min(c);
            }
        }
        if !self.all {
            for q in &mut self.quota {
                *q = (*q).min(1);
            }
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        while let Some(b) = self.left.next()? {
            let mut b = b.compact();
            let ids = self
                .keys
                .lookup(&b.columns().iter().collect::<Vec<_>>(), b.num_rows());
            let keep: Vec<usize> = (0..b.num_rows())
                .filter(|&i| match self.quota.get_mut(ids[i] as usize) {
                    Some(q) if *q > 0 => {
                        *q -= 1;
                        true
                    }
                    _ => false,
                })
                .collect();
            if !keep.is_empty() {
                b.set_selection(keep);
                return Ok(Some(b));
            }
        }
        Ok(None)
    }
}

/// EXCEPT [ALL]: the right inputs build a removal-count multiset; the
/// left input streams through it. In DISTINCT mode any right-side
/// presence removes the row entirely and survivors dedup; in ALL mode
/// each right occurrence cancels one left occurrence.
struct MinusOp {
    left: BatchOp,
    rights: Vec<BatchOp>,
    all: bool,
    /// Right-side rows first (ids below `removed.len()`), then — in
    /// DISTINCT mode — the left rows already emitted.
    keys: KeySet,
    removed: Vec<usize>,
}

impl MinusOp {
    fn new(left: BatchOp, rights: Vec<BatchOp>, all: bool) -> Self {
        MinusOp {
            left,
            rights,
            all,
            keys: KeySet::default(),
            removed: vec![],
        }
    }
}

impl Operator<ColumnBatch> for MinusOp {
    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        for r in &mut self.rights {
            r.open()?;
            count_rows(r, &mut self.keys, &mut self.removed)?;
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        while let Some(b) = self.left.next()? {
            let mut b = b.compact();
            let cols: Vec<&Column> = b.columns().iter().collect();
            let keep: Vec<usize> = if self.all {
                // Each right occurrence cancels one left occurrence.
                let ids = self.keys.lookup(&cols, b.num_rows());
                (0..b.num_rows())
                    .filter(|&i| match self.removed.get_mut(ids[i] as usize) {
                        Some(n) if *n > 0 => {
                            *n -= 1;
                            false
                        }
                        _ => true,
                    })
                    .collect()
            } else {
                // A row survives when it is new to the set: neither on
                // the right side nor emitted before.
                self.keys.intern(&cols, b.num_rows()).1
            };
            if !keep.is_empty() {
                b.set_selection(keep);
                return Ok(Some(b));
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// Morsel-driven parallel execution
// ---------------------------------------------------------------------
//
// Parallel work comes only from table snapshots. When the context's
// [`Parallelism`] asks for more than one worker, the plan builder looks
// for a Filter/Project chain over a scan whose snapshot spans at least
// two morsels. Its workers claim morsels (row ranges of that one
// snapshot) from an atomic dispenser and run the fused stage kernels;
// the one exchange, [`OrderedGatherOp`], runs them on threads and hands
// their output over in serial order. Four shapes sit on it:
//
// - **Chains**: the gather's output is the chain's, byte-identical to
//   serial execution.
// - **HashJoin**: the build side materializes once and is shared behind
//   an `Arc` (matched-flags are atomics); workers probe per morsel, and
//   the outer-join right pad follows once every worker has finished.
// - **Aggregate** and **Top-K** (`ORDER BY … FETCH`): the operator is
//   the serial one, [`AggregateOp`] or [`TopKOp`], fed the chain's
//   morsels ([`FoldInput::Morsels`]) instead of a stream. Each worker
//   folds its share into one state — a partial aggregate that charges
//   the memory budget and spills its chunks, or a heap ordered by
//   (collation, input sequence) — and the gather hands the states over
//   in worker order. Partial aggregates merge exactly (distinct
//   aggregates replay unseen argument tuples) and emit groups in
//   first-seen sequence order; a k-way merge under the heap's
//   comparator recombines the heaps. Both reproduce serial order.
//
// Every other node runs serially above whatever exchange its child has.
// A full sort is the serial [`FullSortOp`] over its chain's gather, and
// an aggregate over a join is [`AggregateOp`] over the join's gather.
// Only the join's shared build holds no reservation. Inputs that are not
// snapshot scans (foreign subtrees, `Values`, zero-column tables) are
// not parallelized.

/// One compiled chain stage: an optional filter fused with an optional
/// projection, executed as a single kernel pass per batch.
struct CompiledStage {
    predicate: Option<RexNode>,
    exprs: Option<Vec<RexNode>>,
}

/// Applies the stage kernels bottom-up; `None` means the batch was
/// entirely filtered out.
fn apply_stages(stages: &[CompiledStage], mut b: ColumnBatch) -> Result<Option<ColumnBatch>> {
    for s in stages {
        match fused_filter_project(s.predicate.as_ref(), s.exprs.as_deref(), b)? {
            Some(out) => b = out,
            None => return Ok(None),
        }
    }
    Ok(Some(b))
}

/// The matched shape of a parallelizable pipeline segment: zero or more
/// Filter/Project stages (top-down) over a scan whose snapshot the
/// workers slice.
struct ChainShape<'a> {
    /// Filter/Project nodes, outermost first.
    stages: Vec<&'a Rel>,
    table: &'a TableRef,
    /// The snapshot that sized the scan. Its workers slice this one, so
    /// the rows EXPLAIN prints are the rows scanned.
    snapshot: Arc<dyn RangeScan>,
}

/// Matches the Filter/Project* chain hanging below `rel` (inclusive), in
/// `rel`'s convention, down to a scan. Returns `None` for any other
/// bottom, and when the scan is too small to be worth spawning threads
/// for (fewer than two morsels of input).
fn match_chain<'a>(rel: &'a Rel, p: Parallelism) -> Option<ChainShape<'a>> {
    let mut stages = vec![];
    let mut cur = rel;
    while matches!(cur.op, RelOp::Filter { .. } | RelOp::Project { .. })
        && cur.input(0).convention == cur.convention
    {
        stages.push(cur);
        cur = cur.input(0);
    }
    let RelOp::Scan { table } = &cur.op else {
        return None;
    };
    // A snapshot that fails here is taken again by the serial scan,
    // which reports the error where it runs.
    let snapshot = table.table.scan_snapshot().ok().flatten()?;
    (snapshot.row_count() >= p.morsel_size.saturating_mul(2)).then_some(ChainShape {
        stages,
        table,
        snapshot,
    })
}

/// The parallelizable input of an exchange consumer: the matched chain
/// of `rel.input(0)`, in `rel`'s own convention.
fn child_shape<'a>(rel: &'a Rel, p: Parallelism) -> Option<ChainShape<'a>> {
    let c = rel.input(0);
    if c.convention == rel.convention {
        match_chain(c, p)
    } else {
        None
    }
}

/// Compiles matched stage nodes (top-down) into bottom-up kernel
/// stages, collapsing Project-over-Filter into one fused kernel — the
/// same physical optimization the serial tree applies.
fn compile_stages(stages: &[&Rel], ctx: &ExecContext) -> Result<Vec<CompiledStage>> {
    let mut out = vec![];
    let mut it = stages.iter().rev().peekable();
    while let Some(node) = it.next() {
        match &node.op {
            RelOp::Filter { condition } => {
                let predicate = Some(ctx.bind(condition)?);
                let fused_project = match it.peek().map(|n| &n.op) {
                    Some(RelOp::Project { exprs, .. }) => {
                        it.next();
                        Some(exprs.iter().map(|e| ctx.bind(e)).collect::<Result<_>>()?)
                    }
                    _ => None,
                };
                out.push(CompiledStage {
                    predicate,
                    exprs: fused_project,
                });
            }
            RelOp::Project { exprs, .. } => out.push(CompiledStage {
                predicate: None,
                exprs: Some(exprs.iter().map(|e| ctx.bind(e)).collect::<Result<_>>()?),
            }),
            other => {
                return Err(CalciteError::internal(format!(
                    "non-stage node {other:?} in a parallel chain"
                )))
            }
        }
    }
    Ok(out)
}

/// Everything needed to spawn the workers of one exchange: compiled
/// stages plus the snapshot they slice.
#[derive(Clone)]
pub(crate) struct SourceSeed {
    stages: Arc<Vec<CompiledStage>>,
    snapshot: Arc<dyn RangeScan>,
}

fn seed_from(shape: ChainShape<'_>, ctx: &ExecContext) -> Result<SourceSeed> {
    Ok(SourceSeed {
        stages: Arc::new(compile_stages(&shape.stages, ctx)?),
        snapshot: shape.snapshot,
    })
}

impl SourceSeed {
    /// Builds one worker per thread. They share the snapshot the
    /// placement took (one per execution) and one morsel dispenser.
    pub(crate) fn into_workers(
        self,
        kernel: WorkerKernel,
        p: Parallelism,
    ) -> Vec<BoxOperator<ExchangeItem<ColumnBatch>>> {
        let next = Arc::new(AtomicUsize::new(0));
        (0..p.workers)
            .map(|_| {
                Box::new(ChainWorker {
                    snapshot: self.snapshot.clone(),
                    next: next.clone(),
                    morsel_size: p.morsel_size,
                    stages: self.stages.clone(),
                    kernel: kernel.clone(),
                    pending: VecDeque::new(),
                }) as BoxOperator<ExchangeItem<ColumnBatch>>
            })
            .collect()
    }

    /// The ordered gather over workers that each fold their whole share
    /// of the morsels into one value (a partial aggregate, a Top-K heap),
    /// starting from `init()`. It yields the values in worker order.
    pub(crate) fn into_fold_gather<S, F>(
        self,
        p: Parallelism,
        init: impl Fn() -> S,
        step: F,
    ) -> OrderedGatherOp<S>
    where
        S: Send + 'static,
        F: FnMut(&mut S, ColumnBatch, u64) -> Result<()> + Clone + Send + 'static,
    {
        let workers = self
            .into_workers(WorkerKernel::Emit, p)
            .into_iter()
            .enumerate()
            .map(|(index, inner)| {
                Box::new(FoldWorker {
                    index,
                    inner,
                    state: Some(init()),
                    step: step.clone(),
                    done: false,
                }) as BoxOperator<ExchangeItem<S>>
            })
            .collect();
        OrderedGatherOp::new(workers)
    }
}

/// The input of an operator that folds all of it into state before it
/// emits anything (an aggregate, a Top-K heap): a stream, or the morsels
/// of the scan chain [`place`] matched below it.
pub(crate) enum FoldInput {
    Stream(BatchOp),
    Morsels(SourceSeed, Parallelism),
}

impl FoldInput {
    /// Folds the whole input, one state per worker starting from
    /// `init()`, and returns the states in worker order. A stream is one
    /// fold, run in the calling thread. `step` gets each dense batch with
    /// the input sequence number of its first row, which ascends in
    /// serial order.
    pub(crate) fn fold<S, F>(&mut self, init: impl Fn() -> S, mut step: F) -> Result<Vec<S>>
    where
        S: Send + 'static,
        F: FnMut(&mut S, ColumnBatch, u64) -> Result<()> + Clone + Send + 'static,
    {
        match self {
            FoldInput::Stream(child) => {
                child.open()?;
                let (mut state, mut seq) = (init(), 0);
                while let Some(b) = child.next()? {
                    let b = b.compact();
                    let rows = b.num_rows() as u64;
                    step(&mut state, b, seq)?;
                    seq += rows;
                }
                Ok(vec![state])
            }
            FoldInput::Morsels(seed, p) => {
                let mut gather = seed.clone().into_fold_gather(*p, init, step);
                gather.open()?;
                let mut states = vec![];
                while let Some(state) = gather.next()? {
                    states.push(state);
                }
                Ok(states)
            }
        }
    }
}

/// What a chain worker does with each post-stage batch.
#[derive(Clone)]
pub(crate) enum WorkerKernel {
    /// Pass it through (plain chain under an ordered gather).
    Emit,
    /// Probe it against the shared join build side.
    Probe(Arc<JoinShared>),
}

/// One worker of a parallel exchange: claims morsels (row ranges of the
/// shared snapshot) from the shared dispenser until it runs dry, runs
/// the pure stage kernels (and probe, if any), and emits tagged batches
/// plus end-of-morsel markers for the ordered gather. Scan and kernel
/// errors are embedded as tagged items so they surface exactly where
/// serial execution would surface them.
struct ChainWorker {
    snapshot: Arc<dyn RangeScan>,
    next: Arc<AtomicUsize>,
    morsel_size: usize,
    stages: Arc<Vec<CompiledStage>>,
    kernel: WorkerKernel,
    pending: VecDeque<ExchangeItem<ColumnBatch>>,
}

fn run_worker_kernel(
    stages: &[CompiledStage],
    kernel: &WorkerKernel,
    b: ColumnBatch,
) -> Result<Vec<ColumnBatch>> {
    let Some(b) = apply_stages(stages, b)? else {
        return Ok(vec![]);
    };
    match kernel {
        WorkerKernel::Emit => Ok(vec![b]),
        WorkerKernel::Probe(shared) => shared.probe_chunks(b.compact()),
    }
}

impl ChainWorker {
    /// Queues morsel `m` (rows `[start, start + len)`) as tagged output
    /// chunks, counting them in `chunk`. On failure, `chunk` is the
    /// position serial execution would surface the error at.
    fn run_morsel(&mut self, m: usize, start: usize, len: usize, chunk: &mut usize) -> Result<()> {
        let mut batches = self.snapshot.clone().scan_range(BATCH_SIZE, start, len)?;
        batches.open()?;
        while let Some(b) = batches.next()? {
            for out in run_worker_kernel(&self.stages, &self.kernel, b)? {
                self.pending
                    .push_back(ExchangeItem::Batch((m, *chunk), out));
                *chunk += 1;
            }
        }
        Ok(())
    }
}

impl Operator<ExchangeItem<ColumnBatch>> for ChainWorker {
    fn next(&mut self) -> Result<Option<ExchangeItem<ColumnBatch>>> {
        loop {
            if let Some(item) = self.pending.pop_front() {
                return Ok(Some(item));
            }
            let total = self.snapshot.row_count();
            let m = self.next.fetch_add(1, AtomicOrdering::Relaxed);
            let Some(start) = m.checked_mul(self.morsel_size).filter(|s| *s < total) else {
                return Ok(None);
            };
            let len = self.morsel_size.min(total - start);
            let mut chunk = 0;
            if let Err(e) = self.run_morsel(m, start, len, &mut chunk) {
                self.pending.push_back(ExchangeItem::Error((m, chunk), e));
            }
            self.pending.push_back(ExchangeItem::MorselEnd(m));
        }
    }
}

/// One worker of an exchange whose consumer wants one value per worker.
/// It folds every batch its chain emits into `state` through `step`,
/// with the batch's first input sequence number (`morsel << 32 | row
/// offset`, the serial order), then emits the state, or the first error,
/// at `(index, 0)` and ends morsel `index`. So the ordered gather hands
/// the values over in worker order, and no worker's result or error can
/// land in another's slot.
struct FoldWorker<S, F> {
    index: usize,
    inner: BoxOperator<ExchangeItem<ColumnBatch>>,
    state: Option<S>,
    step: F,
    done: bool,
}

impl<S, F: FnMut(&mut S, ColumnBatch, u64) -> Result<()>> FoldWorker<S, F> {
    fn fold(&mut self, mut state: S) -> Result<S> {
        self.inner.open()?;
        let (mut morsel, mut offset) = (0, 0u64);
        while let Some(item) = self.inner.next()? {
            match item {
                ExchangeItem::Batch((m, _), b) => {
                    if m != morsel {
                        morsel = m;
                        offset = 0;
                    }
                    let b = b.compact();
                    let rows = b.num_rows() as u64;
                    (self.step)(&mut state, b, ((m as u64) << 32) | offset)?;
                    offset += rows;
                }
                ExchangeItem::Error(_, e) => return Err(e),
                ExchangeItem::MorselEnd(_) => {}
            }
        }
        Ok(state)
    }
}

impl<S, F> Operator<ExchangeItem<S>> for FoldWorker<S, F>
where
    S: Send,
    F: FnMut(&mut S, ColumnBatch, u64) -> Result<()> + Send,
{
    fn next(&mut self) -> Result<Option<ExchangeItem<S>>> {
        let tag = (self.index, 0);
        if let Some(state) = self.state.take() {
            return Ok(Some(match self.fold(state) {
                Ok(state) => ExchangeItem::Batch(tag, state),
                Err(e) => ExchangeItem::Error(tag, e),
            }));
        }
        if self.done {
            return Ok(None);
        }
        self.done = true;
        Ok(Some(ExchangeItem::MorselEnd(self.index)))
    }
}

// ----------------------- exchange placement --------------------------

/// One placement decision of the parallel planner. Computed by
/// [`place`] and consumed by *both* the operator builder and the
/// EXPLAIN renderer, so the rendered exchange plan is the executed one
/// by construction.
enum Placement<'a> {
    /// A chain root: workers run the fused stage kernels per morsel,
    /// the ordered gather reassembles serial batch order.
    Chain(ChainShape<'a>),
    /// Partial aggregation per worker + exact merge: [`AggregateOp`] over
    /// morsels.
    Aggregate(ChainShape<'a>),
    /// Shared-build hash/theta join with parallel probe over the left.
    Join(ChainShape<'a>),
    /// Per-worker bounded Top-K heaps + k-way merge under the collation:
    /// [`TopKOp`] over morsels.
    TopK(ChainShape<'a>),
}

/// The single source of truth for where exchanges go; `None` means the
/// node executes serially (its children may still parallelize through
/// the recursive serial builder).
fn place(rel: &Rel, p: Parallelism) -> Option<Placement<'_>> {
    match &rel.op {
        RelOp::Filter { .. } | RelOp::Project { .. } => match_chain(rel, p).map(Placement::Chain),
        RelOp::Aggregate { .. } => child_shape(rel, p).map(Placement::Aggregate),
        RelOp::Join { .. } => child_shape(rel, p).map(Placement::Join),
        // Only a fetch bounds per-worker sort state; a full sort stays a
        // serial `FullSortOp` and parallelizes through its child chain.
        RelOp::Sort {
            collation,
            fetch: Some(_),
            ..
        } if !collation.is_empty() => child_shape(rel, p).map(Placement::TopK),
        _ => None,
    }
}

/// Builds the exchange operator tree for a placed node.
fn build_parallel(rel: &Rel, ctx: &ExecContext, p: Parallelism) -> Result<Option<BatchOp>> {
    let Some(placement) = place(rel, p) else {
        return Ok(None);
    };
    Ok(Some(match placement {
        Placement::Chain(shape) => {
            let seed = seed_from(shape, ctx)?;
            Box::new(OrderedGatherOp::new(
                seed.into_workers(WorkerKernel::Emit, p),
            ))
        }
        Placement::Aggregate(shape) => {
            let RelOp::Aggregate { group, aggs } = &rel.op else {
                unreachable!("place() pairs Placement::Aggregate with Aggregate nodes")
            };
            Box::new(AggregateOp::new(
                FoldInput::Morsels(seed_from(shape, ctx)?, p),
                agg_spec(rel, group, aggs, ctx),
                None,
            ))
        }
        Placement::Join(shape) => {
            let RelOp::Join { kind, condition } = &rel.op else {
                unreachable!("place() pairs Placement::Join with Join nodes")
            };
            let seed = seed_from(shape, ctx)?;
            let right = build_input(rel, 1, ctx)?;
            Box::new(ParallelHashJoinOp::new(
                seed,
                right,
                *kind,
                ctx.bind(condition)?,
                rel.input(0).row_type().arity(),
                rel.input(1).row_type().arity(),
                p,
            ))
        }
        Placement::TopK(shape) => {
            let RelOp::Sort {
                collation,
                offset,
                fetch: Some(fetch),
            } = &rel.op
            else {
                unreachable!("place() pairs Placement::TopK with fetch-bounded Sort nodes")
            };
            Box::new(TopKOp::new(
                FoldInput::Morsels(seed_from(shape, ctx)?, p),
                collation.clone(),
                offset.unwrap_or(0),
                *fetch,
                rel.row_type().kinds(),
            ))
        }
    }))
}

// ------------------------- EXPLAIN rendering -------------------------

/// Renders the exchange placement the parallel batch engine uses for
/// `rel` under `p` — Gather/Exchange/Merge nodes annotated with their
/// partitioning — or `None` when no exchange applies anywhere in the
/// plan. The SQL layer appends this to EXPLAIN output.
pub fn explain_parallel(rel: &Rel, p: Parallelism) -> Option<String> {
    if !p.is_parallel() {
        return None;
    }
    let mut out = String::new();
    let placed = fmt_parallel(rel, p, 0, &mut out);
    placed.then_some(out)
}

fn pindent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn pnode(out: &mut String, depth: usize, rel: &Rel) {
    use std::fmt::Write;
    pindent(out, depth);
    let _ = writeln!(out, "{} [{}]", rel.op.payload_digest(), rel.convention);
}

fn fmt_chain(shape: &ChainShape<'_>, p: Parallelism, depth: usize, out: &mut String) {
    use std::fmt::Write;
    for (i, stage) in shape.stages.iter().enumerate() {
        pnode(out, depth + i, stage);
    }
    pindent(out, depth + shape.stages.len());
    let rows = shape.snapshot.row_count();
    let _ = writeln!(
        out,
        "Exchange[range: {}, {} rows = {} morsels x {}]",
        shape.table.qualified_name(),
        rows,
        rows.div_ceil(p.morsel_size.max(1)),
        p.morsel_size
    );
}

/// Recursive renderer over the same [`place`] decisions the builder
/// consumes, so EXPLAIN cannot drift from execution. Returns whether
/// any exchange was placed in the subtree.
fn fmt_parallel(rel: &Rel, p: Parallelism, depth: usize, out: &mut String) -> bool {
    use std::fmt::Write;
    match place(rel, p) {
        Some(Placement::Chain(shape)) => {
            pindent(out, depth);
            let _ = writeln!(out, "Gather[ordered, workers={}]", p.workers);
            fmt_chain(&shape, p, depth + 1, out);
            true
        }
        Some(Placement::Aggregate(shape)) => {
            pindent(out, depth);
            let _ = writeln!(
                out,
                "Merge[partial-aggregate, workers={}, first-seen order]",
                p.workers
            );
            pnode(out, depth + 1, rel);
            fmt_chain(&shape, p, depth + 2, out);
            true
        }
        Some(Placement::Join(shape)) => {
            pindent(out, depth);
            let _ = writeln!(out, "Gather[ordered, workers={}, probe]", p.workers);
            pnode(out, depth + 1, rel);
            fmt_chain(&shape, p, depth + 2, out);
            pindent(out, depth + 2);
            let _ = writeln!(out, "Broadcast[build side, shared across workers]");
            fmt_parallel(rel.input(1), p, depth + 3, out);
            true
        }
        Some(Placement::TopK(shape)) => {
            pindent(out, depth);
            let _ = writeln!(out, "Merge[k-way under collation, workers={}]", p.workers);
            pnode(out, depth + 1, rel);
            fmt_chain(&shape, p, depth + 2, out);
            true
        }
        None => {
            pnode(out, depth, rel);
            let mut any = false;
            for i in &rel.inputs {
                any |= fmt_parallel(i, p, depth + 1, out);
            }
            any
        }
    }
}

/// Renders the spill decisions EXPLAIN reports under a bounded memory
/// budget: for each build-then-stream operator whose estimated build
/// state (planner metadata: row count × average row size) exceeds the
/// budget, one line describing how the operator degrades — hash join
/// partitions spilled, aggregate partial chunks, sort runs. A join that
/// `p` places in parallel spills nothing: its line starts `--
/// unbudgeted:` instead and says the shared build is not charged, so a
/// `-- spill:` line always predicts a spill. Returns `None` when the
/// budget is unbounded or everything is estimated to fit.
pub fn explain_spill(
    rel: &Rel,
    mq: &rcalcite_core::metadata::MetadataQuery,
    budget: &rcalcite_core::buffer::MemoryBudget,
    p: Parallelism,
) -> Option<String> {
    let limit = budget.limit()?;
    let mut out = String::new();
    fmt_spill(rel, mq, limit, p, &mut out);
    (!out.is_empty()).then_some(out)
}

fn kib(bytes: f64) -> u64 {
    (bytes / 1024.0).ceil() as u64
}

fn fmt_spill(
    rel: &Rel,
    mq: &rcalcite_core::metadata::MetadataQuery,
    budget: usize,
    p: Parallelism,
    out: &mut String,
) {
    use std::fmt::Write;
    let b = budget as f64;
    match &rel.op {
        RelOp::Join { .. } => {
            // The executors always build on input(1); the planner's join
            // cost charges build memory to that side, so with ANALYZEd
            // statistics commute has already oriented the smaller input
            // here and this estimate reflects the real build state.
            let build = rel.input(1);
            let est = mq.row_count(build) * mq.average_row_size(build);
            if est > b && p.is_parallel() && matches!(place(rel, p), Some(Placement::Join(_))) {
                // A join placed in parallel shares one unreserved build.
                let _ = writeln!(
                    out,
                    "-- unbudgeted: hash_join build shared by {} workers, not charged against the budget (est {} KiB build > budget {} KiB)",
                    p.workers,
                    kib(est),
                    kib(b)
                );
            } else if est > b {
                // Partitions that keep their budget share resident; the
                // rest spill — the same fraction the hybrid-hash build
                // settles into.
                let resident = ((b / est) * JOIN_PARTITIONS as f64).floor() as usize;
                let spilled = JOIN_PARTITIONS - resident.min(JOIN_PARTITIONS - 1);
                let _ = writeln!(
                    out,
                    "-- spill: hash_join {spilled}/{JOIN_PARTITIONS} partitions (est {} KiB build > budget {} KiB)",
                    kib(est),
                    kib(b)
                );
            }
        }
        RelOp::Aggregate { .. } => {
            // Aggregate state is one entry per output group.
            let est = mq.row_count(rel) * (mq.average_row_size(rel) + 48.0);
            if est > b {
                let chunks = (est / b).ceil() as u64;
                let _ = writeln!(
                    out,
                    "-- spill: aggregate {chunks} partial chunks (est {} KiB state > budget {} KiB)",
                    kib(est),
                    kib(b)
                );
            }
        }
        RelOp::Sort {
            collation,
            fetch: None,
            ..
        } if !collation.is_empty() => {
            // Top-K (with fetch) keeps a bounded heap and never spills;
            // only the full sort materializes its input.
            let input = rel.input(0);
            let est = mq.row_count(input) * mq.average_row_size(input);
            if est > b {
                let runs = (est / b).ceil() as u64;
                let _ = writeln!(
                    out,
                    "-- spill: sort {runs} runs (est {} KiB > budget {} KiB)",
                    kib(est),
                    kib(b)
                );
            }
        }
        _ => {}
    }
    for i in &rel.inputs {
        fmt_spill(i, mq, budget, p, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::EnumerableExecutor;
    use rcalcite_core::catalog::{MemTable, TableRef};
    use rcalcite_core::rel::{self, AggCall, AggFunc, JoinKind};
    use rcalcite_core::traits::FieldCollation;
    use rcalcite_core::types::{RelType, RowTypeBuilder, TypeKind};
    use std::sync::Arc;

    fn ctx_row() -> ExecContext {
        let mut c = ExecContext::new();
        crate::register_executors(&mut c);
        c
    }

    fn ctx_batch() -> ExecContext {
        let mut c = ExecContext::new();
        c.register(Arc::new(EnumerableExecutor::interpreter()));
        c
    }

    fn emp() -> Rel {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("deptno", TypeKind::Integer)
                .add("sal", TypeKind::Integer)
                .build(),
            vec![
                vec![Datum::Int(10), Datum::Int(100)],
                vec![Datum::Int(10), Datum::Int(200)],
                vec![Datum::Int(20), Datum::Int(300)],
                vec![Datum::Int(20), Datum::Null],
            ],
        );
        rel::scan(TableRef::new("hr", "emp", t))
    }

    fn both(plan: &Rel) -> (Vec<Row>, Vec<Row>) {
        let mut a = ctx_row().execute_collect(plan).unwrap();
        let mut b = ctx_batch().execute_collect(plan).unwrap();
        a.sort();
        b.sort();
        (a, b)
    }

    #[test]
    fn filter_project_match_row_engine() {
        let plan = rel::project(
            rel::filter(
                emp(),
                RexNode::input(1, RelType::nullable(TypeKind::Integer)).gt(RexNode::lit_int(150)),
            ),
            vec![
                RexNode::input(0, RelType::not_null(TypeKind::Integer)),
                RexNode::call(
                    Op::Plus,
                    vec![
                        RexNode::input(1, RelType::nullable(TypeKind::Integer)),
                        RexNode::lit_int(1),
                    ],
                ),
            ],
            vec!["deptno".into(), "sal1".into()],
        );
        let (a, b) = both(&plan);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn join_kinds_match_row_engine() {
        let dept = {
            let t = MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("deptno", TypeKind::Integer)
                    .add("name", TypeKind::Varchar)
                    .build(),
                vec![
                    vec![Datum::Int(10), Datum::str("eng")],
                    vec![Datum::Int(30), Datum::str("ops")],
                ],
            );
            rel::scan(TableRef::new("hr", "dept", t))
        };
        let int_ty = RelType::not_null(TypeKind::Integer);
        let cond = RexNode::input(0, int_ty.clone()).eq(RexNode::input(2, int_ty.clone()));
        for kind in [
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::Right,
            JoinKind::Full,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let plan = rel::join(emp(), dept.clone(), kind, cond.clone());
            let (a, b) = both(&plan);
            assert_eq!(a, b, "join kind {kind:?}");
        }
        // Theta join (no equi keys) falls back to nested loops.
        let theta = RexNode::input(0, int_ty.clone()).lt(RexNode::input(2, int_ty));
        let plan = rel::join(emp(), dept, JoinKind::Inner, theta);
        let (a, b) = both(&plan);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn join_output_streams_in_bounded_chunks() {
        // High-multiplicity probe (2 left rows × 2000 right matches) and
        // a mostly-unmatched right side: output must arrive in
        // ≤ BATCH_SIZE batches, never one unbounded gather.
        let int_ty = RelType::not_null(TypeKind::Integer);
        let left = rel::values(
            RowTypeBuilder::new()
                .add_not_null("k", TypeKind::Integer)
                .build(),
            vec![vec![Datum::Int(1)], vec![Datum::Int(1)]],
        );
        let right = rel::values(
            RowTypeBuilder::new()
                .add_not_null("k", TypeKind::Integer)
                .add_not_null("v", TypeKind::Integer)
                .build(),
            (0..3000)
                .map(|i| vec![Datum::Int(if i < 2000 { 1 } else { 2 }), Datum::Int(i)])
                .collect(),
        );
        let cond = RexNode::input(0, int_ty.clone()).eq(RexNode::input(1, int_ty));
        for (kind, want_rows) in [
            (JoinKind::Inner, 4000),
            // 4000 matches + 1000 unmatched right, NULL-padded.
            (JoinKind::Full, 5000),
        ] {
            let plan = rel::join(left.clone(), right.clone(), kind, cond.clone());
            let ctx = ctx_batch();
            let mut it = execute_batches(&plan, &ctx).unwrap();
            it.open().unwrap();
            let mut total = 0;
            while let Some(b) = it.next().unwrap() {
                assert!(b.live_rows() <= BATCH_SIZE, "oversized join batch");
                total += b.live_rows();
            }
            assert_eq!(total, want_rows, "join kind {kind:?}");
            let (a, b) = both(&plan);
            assert_eq!(a, b, "join kind {kind:?}");
        }
    }

    #[test]
    fn aggregate_fast_and_generic_paths_match() {
        let rt = emp().row_type().clone();
        // Fast path: single Int key, simple aggs.
        let plan = rel::aggregate(
            emp(),
            vec![0],
            vec![
                AggCall::count_star("c"),
                AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt),
                AggCall::new(AggFunc::Avg, vec![1], false, "a", &rt),
                AggCall::new(AggFunc::Min, vec![1], false, "mn", &rt),
                AggCall::new(AggFunc::Max, vec![1], false, "mx", &rt),
            ],
        );
        let (a, b) = both(&plan);
        assert_eq!(a, b);
        // Generic path: distinct aggregate.
        let plan = rel::aggregate(
            emp(),
            vec![],
            vec![AggCall::new(AggFunc::Count, vec![0], true, "dc", &rt)],
        );
        let (a, b) = both(&plan);
        assert_eq!(a, b);
        assert_eq!(a, vec![vec![Datum::Int(2)]]);
    }

    #[test]
    fn sort_null_ordering_agrees_with_compare_rows() {
        // The regression for the NULLS-LAST contract: the batch sort
        // kernel (typed Int path and generic path) and `compare_rows`
        // must place NULLs identically for ASC and DESC.
        for fc in [FieldCollation::asc(1), FieldCollation::desc(1)] {
            let plan = rel::sort(emp(), vec![fc.clone()]);
            let rows_row = ctx_row().execute_collect(&plan).unwrap();
            let rows_batch = ctx_batch().execute_collect(&plan).unwrap();
            assert_eq!(rows_row, rows_batch, "collation {fc:?}");
            // NULL lands last in both directions by default.
            assert!(rows_batch.last().unwrap()[1].is_null());
            // And agrees with a direct compare_rows sort.
            let mut manual = ctx_row().execute_collect(&emp()).unwrap();
            manual.sort_by(|a, b| compare_rows(a, b, &vec![fc.clone()]));
            assert_eq!(manual, rows_batch);
        }
        // Generic (non-Int) sort path: string column with NULL.
        let t = MemTable::new(
            RowTypeBuilder::new().add("s", TypeKind::Varchar).build(),
            vec![
                vec![Datum::Null],
                vec![Datum::str("b")],
                vec![Datum::str("a")],
            ],
        );
        let plan = rel::sort(
            rel::scan(TableRef::new("s", "t", t)),
            vec![FieldCollation::asc(0)],
        );
        let rows_row = ctx_row().execute_collect(&plan).unwrap();
        let rows_batch = ctx_batch().execute_collect(&plan).unwrap();
        assert_eq!(rows_row, rows_batch);
        assert!(rows_batch[2][0].is_null());
    }

    #[test]
    fn limit_offset_and_union() {
        let plan = rel::sort_limit(emp(), vec![FieldCollation::desc(1)], Some(1), Some(2));
        let (a, b) = both(&plan);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        let u = rel::union(vec![emp(), emp()], true);
        let (a, b) = both(&u);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        let u = rel::union(vec![emp(), emp()], false);
        let (a, b) = both(&u);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn top_k_heap_is_bounded_and_stable() {
        // The heap never holds more than k entries, and collation ties
        // resolve by input order — the same rows a stable full sort
        // followed by a LIMIT would keep.
        let collation = vec![FieldCollation::asc(0)];
        let mut topk = TopK::new(5, collation.clone());
        let b = ColumnBatch::from_rows(
            &[TypeKind::Integer, TypeKind::Integer],
            &(0..1000)
                .map(|i| vec![Datum::Int(i % 7), Datum::Int(i)])
                .collect::<Vec<_>>(),
        );
        for i in 0..b.num_rows() {
            topk.offer(&b, i, i as u64);
            assert!(topk.heap.len() <= 5, "heap exceeded k");
        }
        let rows: Vec<Row> = topk
            .into_sorted_entries()
            .into_iter()
            .map(|e| e.1)
            .collect();
        // Smallest key is 0 (at seq 0, 7, 14, ...); the five kept rows
        // are the first five such inputs, in input order.
        let expect: Vec<Row> = (0..5)
            .map(|j| vec![Datum::Int(0), Datum::Int(j * 7)])
            .collect();
        assert_eq!(rows, expect);
    }

    #[test]
    fn top_k_matches_full_sort_with_ties() {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("k", TypeKind::Integer)
                .add_not_null("seq", TypeKind::Integer)
                .build(),
            (0..500)
                .map(|i| vec![Datum::Int(i % 3), Datum::Int(i)])
                .collect(),
        );
        let scan = rel::scan(TableRef::new("s", "t", t));
        for (offset, fetch) in [
            (None, Some(7)),
            (Some(2), Some(7)),
            (Some(0), Some(0)),
            (Some(1000), Some(3)),
            (None, Some(500)),
        ] {
            let plan = rel::sort_limit(scan.clone(), vec![FieldCollation::asc(0)], offset, fetch);
            let a = ctx_row().execute_collect(&plan).unwrap();
            let b = ctx_batch().execute_collect(&plan).unwrap();
            assert_eq!(a, b, "offset={offset:?} fetch={fetch:?}");
        }
    }

    #[test]
    fn pure_limit_stops_pulling_early() {
        // LIMIT with no collation is fully streaming: the scan must not
        // be drained past the batches the limit needs.
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("v", TypeKind::Integer)
                .build(),
            (0..10_000).map(|i| vec![Datum::Int(i)]).collect(),
        );
        let plan = rel::sort_limit(
            rel::scan(TableRef::new("s", "t", t)),
            vec![],
            Some(3),
            Some(5),
        );
        let ctx = ctx_batch();
        let mut it = execute_batches(&plan, &ctx).unwrap();
        it.open().unwrap();
        let first = it.next().unwrap().unwrap();
        assert_eq!(first.num_rows(), 5);
        assert_eq!(first.column(0).get(0), Datum::Int(3));
        assert!(it.next().unwrap().is_none());
    }

    #[test]
    fn intersect_and_minus_batch_kernels_match_row_engine() {
        let rt = RowTypeBuilder::new()
            .add_not_null("a", TypeKind::Integer)
            .add("b", TypeKind::Integer)
            .build();
        let left = rel::values(
            rt.clone(),
            vec![
                vec![Datum::Int(1), Datum::Int(1)],
                vec![Datum::Int(1), Datum::Int(1)],
                vec![Datum::Int(2), Datum::Null],
                vec![Datum::Int(2), Datum::Null],
                vec![Datum::Int(3), Datum::Int(3)],
            ],
        );
        let right = rel::values(
            rt,
            vec![
                vec![Datum::Int(1), Datum::Int(1)],
                vec![Datum::Int(2), Datum::Null],
                vec![Datum::Int(2), Datum::Null],
                vec![Datum::Int(4), Datum::Int(4)],
            ],
        );
        for all in [false, true] {
            let i = rel::intersect(vec![left.clone(), right.clone()], all);
            let (a, b) = both(&i);
            assert_eq!(a, b, "intersect all={all}");
            let m = rel::minus(vec![left.clone(), right.clone()], all);
            let (a, b) = both(&m);
            assert_eq!(a, b, "minus all={all}");
        }
        // Spot-check DISTINCT semantics directly.
        let m = rel::minus(vec![left.clone(), right.clone()], false);
        let (rows, _) = both(&m);
        assert_eq!(rows, vec![vec![Datum::Int(3), Datum::Int(3)]]);
    }

    /// `SELECT` of no columns from the 2 400 rows of 0..2 500 with
    /// `v >= 100`: a zero-arity plan spanning three batches.
    fn zero_arity_projection() -> Rel {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("v", TypeKind::Integer)
                .build(),
            (0..2500).map(|i| vec![Datum::Int(i)]).collect(),
        );
        let v = RexNode::input(0, RelType::not_null(TypeKind::Integer));
        let kept = rel::filter(
            rel::scan(TableRef::new("s", "t", t)),
            v.ge(RexNode::lit_int(100)),
        );
        rel::project(kept, vec![], vec![])
    }

    #[test]
    fn zero_arity_and_empty_inputs() {
        let (a, b) = both(&rel::one_row());
        assert_eq!(a, b);
        assert_eq!(a, vec![Vec::<Datum>::new()]);
        let (a, b) = both(&zero_arity_projection());
        assert_eq!(a, b);
        assert_eq!(a, vec![Vec::<Datum>::new(); 2400]);
        let empty = rel::empty(emp().row_type().clone());
        let plan = rel::aggregate(empty, vec![], vec![AggCall::count_star("c")]);
        let (a, b) = both(&plan);
        assert_eq!(a, b);
        assert_eq!(a, vec![vec![Datum::Int(0)]]);
    }

    #[test]
    fn window_falls_back_to_row_engine() {
        use rcalcite_core::rel::{FrameBound, WinFunc, WindowFn, WindowFrame};
        let wf = WindowFn {
            func: WinFunc::Agg(AggFunc::Sum),
            args: vec![1],
            partition: vec![0],
            order: vec![FieldCollation::asc(1)],
            frame: WindowFrame::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow),
            name: "running".into(),
            ty: RelType::nullable(TypeKind::Integer),
        };
        let plan = rel::window(emp(), vec![wf]);
        let (a, b) = both(&plan);
        assert_eq!(a, b);
    }

    #[test]
    fn non_boolean_lazy_operands_error_like_row_engine() {
        // AND over a non-boolean operand is an execution error in the row
        // engine; the vectorized path must not silently ignore it.
        let cond = RexNode::call(
            Op::And,
            vec![
                RexNode::input(0, RelType::not_null(TypeKind::Integer)),
                RexNode::true_lit(),
            ],
        );
        let plan = rel::project(emp(), vec![cond], vec!["v".into()]);
        assert!(ctx_row().execute_collect(&plan).is_err());
        assert!(ctx_batch().execute_collect(&plan).is_err());
        // In a Filter both engines swallow the per-row error and drop
        // every row.
        let cond = RexNode::call(
            Op::And,
            vec![
                RexNode::input(0, RelType::not_null(TypeKind::Integer)),
                RexNode::true_lit(),
            ],
        );
        let plan = rel::filter(emp(), cond);
        let (a, b) = both(&plan);
        assert_eq!(a, b);
        assert!(a.is_empty());
    }

    #[test]
    fn semi_join_residual_errors_on_later_candidates() {
        // Left row equi-matches two right rows; the residual divides by
        // the right value, which is 0 on the SECOND candidate. The row
        // engine evaluates every candidate's residual, so both engines
        // must error even though the first candidate already matched.
        let left = rel::values(
            RowTypeBuilder::new()
                .add_not_null("k", TypeKind::Integer)
                .build(),
            vec![vec![Datum::Int(1)]],
        );
        let right = rel::values(
            RowTypeBuilder::new()
                .add_not_null("k", TypeKind::Integer)
                .add_not_null("d", TypeKind::Integer)
                .build(),
            vec![
                vec![Datum::Int(1), Datum::Int(1)],
                vec![Datum::Int(1), Datum::Int(0)],
            ],
        );
        let int_ty = RelType::not_null(TypeKind::Integer);
        let cond = RexNode::and_all(vec![
            RexNode::input(0, int_ty.clone()).eq(RexNode::input(1, int_ty.clone())),
            RexNode::call(
                Op::Divide,
                vec![RexNode::lit_int(10), RexNode::input(2, int_ty)],
            )
            .gt(RexNode::lit_int(0)),
        ]);
        let plan = rel::join(left, right, JoinKind::Semi, cond);
        assert!(ctx_row().execute_collect(&plan).is_err());
        assert!(ctx_batch().execute_collect(&plan).is_err());
    }

    #[test]
    fn execute_batches_exposes_batch_iter() {
        let plan = rel::filter(
            emp(),
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).eq(RexNode::lit_int(10)),
        );
        let ctx = ctx_batch();
        let mut it = execute_batches(&plan, &ctx).unwrap();
        it.open().unwrap();
        let first = it.next().unwrap().unwrap();
        assert_eq!((first.arity(), first.live_rows()), (2, 2));
        assert!(it.next().unwrap().is_none());
        // Zero-arity plans keep their row count in every batch, and the
        // drain a `ResultSet` runs — `to_rows` per batch — yields one
        // empty row per live row.
        for (plan, n) in [(rel::one_row(), 1), (zero_arity_projection(), 2400)] {
            let mut it = execute_batches(&plan, &ctx).unwrap();
            it.open().unwrap();
            let (mut live, mut rows) = (vec![], vec![]);
            while let Some(b) = it.next().unwrap() {
                assert_eq!(b.arity(), 0);
                live.push(b.live_rows());
                rows.extend(b.to_rows());
            }
            assert_eq!(live.iter().sum::<usize>(), n);
            assert!(live.iter().all(|&l| (1..=BATCH_SIZE).contains(&l)));
            assert_eq!(rows, vec![Vec::<Datum>::new(); n]);
        }
    }

    #[test]
    fn selection_mask_survives_until_compaction() {
        let b = ColumnBatch::from_rows(
            &[TypeKind::Integer],
            &[
                vec![Datum::Int(1)],
                vec![Datum::Int(2)],
                vec![Datum::Int(3)],
            ],
        );
        let mut b2 = b.clone();
        b2.set_selection(vec![0, 2]);
        assert_eq!(b2.live_rows(), 2);
        assert_eq!(b2.num_rows(), 3);
        let dense = b2.compact();
        assert_eq!(
            dense.to_rows(),
            vec![vec![Datum::Int(1)], vec![Datum::Int(3)]]
        );
    }

    fn ctx_parallel(workers: usize, morsel: usize) -> ExecContext {
        let mut c = ExecContext::new();
        c.register(Arc::new(EnumerableExecutor::interpreter()));
        c.set_parallelism(Parallelism::new(workers, morsel));
        c
    }

    /// A wide table (multiple morsels at morsel_size 16) with NULLs.
    fn big_table() -> Rel {
        let rows: Vec<Row> = (0..500)
            .map(|i| {
                vec![
                    Datum::Int(i % 13),
                    if i % 11 == 0 {
                        Datum::Null
                    } else {
                        Datum::Int(i)
                    },
                ]
            })
            .collect();
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("k", TypeKind::Integer)
                .add("v", TypeKind::Integer)
                .build(),
            rows,
        );
        rel::scan(TableRef::new("s", "big", t))
    }

    fn filter_project_plan(src: Rel) -> Rel {
        rel::project(
            rel::filter(
                src,
                RexNode::input(1, RelType::nullable(TypeKind::Integer)).gt(RexNode::lit_int(100)),
            ),
            vec![
                RexNode::input(0, RelType::not_null(TypeKind::Integer)),
                RexNode::call(
                    Op::Plus,
                    vec![
                        RexNode::input(1, RelType::nullable(TypeKind::Integer)),
                        RexNode::lit_int(1),
                    ],
                ),
            ],
            vec!["k".into(), "v1".into()],
        )
    }

    #[test]
    fn parallel_chain_is_byte_identical_to_serial() {
        let plan = filter_project_plan(big_table());
        let serial = ctx_batch().execute_collect(&plan).unwrap();
        for workers in [2, 3, 4, 7] {
            let par = ctx_parallel(workers, 16).execute_collect(&plan).unwrap();
            assert_eq!(par, serial, "workers={workers}");
        }
        // Serial fallback when the table is smaller than two morsels.
        let par = ctx_parallel(4, 100_000).execute_collect(&plan).unwrap();
        assert_eq!(par, serial);
    }

    #[test]
    fn parallel_aggregate_preserves_serial_group_order() {
        let rt = big_table().row_type().clone();
        let plan = rel::aggregate(
            filter_project_plan(big_table()),
            vec![0],
            vec![
                AggCall::count_star("c"),
                AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt),
                AggCall::new(AggFunc::Avg, vec![1], false, "a", &rt),
                AggCall::new(AggFunc::Min, vec![1], false, "mn", &rt),
                AggCall::new(AggFunc::Max, vec![1], false, "mx", &rt),
            ],
        );
        let serial = ctx_batch().execute_collect(&plan).unwrap();
        for workers in [2, 4, 7] {
            let par = ctx_parallel(workers, 16).execute_collect(&plan).unwrap();
            assert_eq!(par, serial, "workers={workers}");
        }
        // Distinct aggregates merge exactly (seen-set replay).
        let plan = rel::aggregate(
            big_table(),
            vec![0],
            vec![AggCall::new(AggFunc::Count, vec![1], true, "dc", &rt)],
        );
        let serial = ctx_batch().execute_collect(&plan).unwrap();
        let par = ctx_parallel(4, 16).execute_collect(&plan).unwrap();
        assert_eq!(par, serial);
        // Global aggregate over an empty parallel-eligible filter result.
        let plan = rel::aggregate(
            rel::filter(
                big_table(),
                RexNode::input(1, RelType::nullable(TypeKind::Integer))
                    .gt(RexNode::lit_int(1_000_000)),
            ),
            vec![],
            vec![AggCall::count_star("c")],
        );
        let (a, b) = (
            ctx_batch().execute_collect(&plan).unwrap(),
            ctx_parallel(4, 16).execute_collect(&plan).unwrap(),
        );
        assert_eq!(a, b);
        assert_eq!(a, vec![vec![Datum::Int(0)]]);
    }

    #[test]
    fn parallel_join_matches_serial_for_all_kinds() {
        let dept = {
            let t = MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("k", TypeKind::Integer)
                    .add("name", TypeKind::Varchar)
                    .build(),
                (0..7)
                    .map(|i| vec![Datum::Int(i), Datum::str(format!("d{i}"))])
                    .collect(),
            );
            rel::scan(TableRef::new("s", "dept", t))
        };
        let int_ty = RelType::not_null(TypeKind::Integer);
        let equi = RexNode::input(0, int_ty.clone()).eq(RexNode::input(2, int_ty.clone()));
        let theta = RexNode::input(0, int_ty.clone()).lt(RexNode::input(2, int_ty));
        for cond in [equi, theta] {
            for kind in [
                JoinKind::Inner,
                JoinKind::Left,
                JoinKind::Right,
                JoinKind::Full,
                JoinKind::Semi,
                JoinKind::Anti,
            ] {
                let plan = rel::join(big_table(), dept.clone(), kind, cond.clone());
                let serial = ctx_batch().execute_collect(&plan).unwrap();
                for workers in [2, 4] {
                    let par = ctx_parallel(workers, 16).execute_collect(&plan).unwrap();
                    assert_eq!(par, serial, "kind={kind:?} workers={workers}");
                }
            }
        }
    }

    #[test]
    fn parallel_sort_and_topk_are_deterministic() {
        // Many collation ties (k = i % 13): the (collation, sequence)
        // merge must reproduce the serial stable sort exactly.
        for (offset, fetch) in [
            (None, None),
            (None, Some(9)),
            (Some(3), Some(9)),
            (Some(2), None),
        ] {
            let plan = rel::sort_limit(big_table(), vec![FieldCollation::asc(0)], offset, fetch);
            let serial = ctx_batch().execute_collect(&plan).unwrap();
            for workers in [2, 4, 7] {
                let par = ctx_parallel(workers, 16).execute_collect(&plan).unwrap();
                assert_eq!(par, serial, "offset={offset:?} fetch={fetch:?} w={workers}");
            }
        }
    }

    #[test]
    fn parallel_errors_surface_in_serial_position() {
        // Overflow occurs deep in the table; both serial and parallel
        // error. A LIMIT satisfied before the poison row must succeed in
        // both (workers may scan past it, but the ordered gather never
        // surfaces an error positioned after the cutoff).
        let rows: Vec<Row> = (0..300)
            .map(|i| vec![Datum::Int(if i == 250 { i64::MAX } else { i })])
            .collect();
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("v", TypeKind::Integer)
                .build(),
            rows,
        );
        let scan = rel::scan(TableRef::new("s", "poison", t));
        let plus = rel::project(
            scan,
            vec![RexNode::call(
                Op::Plus,
                vec![
                    RexNode::input(0, RelType::not_null(TypeKind::Integer)),
                    RexNode::lit_int(1),
                ],
            )],
            vec!["v1".into()],
        );
        assert!(ctx_batch().execute_collect(&plus).is_err());
        assert!(ctx_parallel(4, 16).execute_collect(&plus).is_err());
        // Under a LIMIT satisfied before the poison row, workers may
        // prefetch morsels containing the error, but the ordered gather
        // never surfaces an error positioned after the cutoff — the
        // query succeeds with the rows before it. (Error laziness under
        // LIMIT is batch-granularity-dependent: the serial engine's
        // 1024-row scan batch reaches the poison row here, a 16-row
        // morsel does not.)
        let limited = rel::sort_limit(plus, vec![], None, Some(5));
        let rows = ctx_parallel(4, 16).execute_collect(&limited).unwrap();
        let expect: Vec<Row> = (1..=5).map(|i| vec![Datum::Int(i)]).collect();
        assert_eq!(rows, expect);
    }

    #[test]
    fn parallel_outer_join_emits_no_pad_after_error() {
        // FULL join whose probe chain errors (overflow in the fused
        // projection): after the cursor surfaces the error, further
        // pulls must end the stream — never emit NULL-padded right rows
        // computed from incomplete matched flags.
        let rows: Vec<Row> = (0..200)
            .map(|i| vec![Datum::Int(if i % 3 == 0 { i64::MAX } else { i })])
            .collect();
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("v", TypeKind::Integer)
                .build(),
            rows,
        );
        let left = rel::project(
            rel::scan(TableRef::new("s", "poisoned", t)),
            vec![RexNode::call(
                Op::Plus,
                vec![
                    RexNode::input(0, RelType::not_null(TypeKind::Integer)),
                    RexNode::lit_int(1),
                ],
            )],
            vec!["v1".into()],
        );
        let right = rel::values(
            RowTypeBuilder::new()
                .add_not_null("k", TypeKind::Integer)
                .build(),
            (0..5).map(|i| vec![Datum::Int(i)]).collect(),
        );
        let cond = RexNode::input(0, RelType::not_null(TypeKind::Integer))
            .eq(RexNode::input(1, RelType::not_null(TypeKind::Integer)));
        let plan = rel::join(left, right, JoinKind::Full, cond);
        let ctx = ctx_parallel(4, 16);
        let mut it = execute_batches(&plan, &ctx).unwrap();
        it.open().unwrap();
        let mut saw_err = false;
        loop {
            match it.next() {
                Ok(Some(_)) => assert!(!saw_err, "batch emitted after error"),
                Ok(None) => break,
                Err(_) => saw_err = true,
            }
        }
        assert!(saw_err, "the poison row must surface an error");
    }

    #[test]
    fn explain_parallel_renders_exchange_nodes() {
        let plan = filter_project_plan(big_table());
        let text = explain_parallel(&plan, Parallelism::new(4, 16)).unwrap();
        assert!(text.contains("Gather[ordered, workers=4]"), "{text}");
        assert!(text.contains("Exchange[range: s.big, 500 rows"), "{text}");
        // Serial settings render nothing.
        assert!(explain_parallel(&plan, Parallelism::new(1, 16)).is_none());
        // Small tables place no exchange.
        assert!(explain_parallel(&plan, Parallelism::new(4, 100_000)).is_none());
        // Aggregate + sort shapes.
        let rt = big_table().row_type().clone();
        let agg = rel::aggregate(
            plan.clone(),
            vec![0],
            vec![AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt)],
        );
        let text = explain_parallel(&agg, Parallelism::new(4, 16)).unwrap();
        assert!(
            text.contains("Merge[partial-aggregate, workers=4"),
            "{text}"
        );
        // Top-K merges per-worker heaps; a full sort places no exchange of
        // its own and renders as the serial Sort over its chain's gather.
        let collation = vec![FieldCollation::asc(0)];
        let topk = rel::sort_limit(plan.clone(), collation.clone(), None, Some(10));
        let text = explain_parallel(&topk, Parallelism::new(4, 16)).unwrap();
        assert!(text.contains("Merge[k-way under collation"), "{text}");
        let sort = rel::sort(plan, collation);
        let text = explain_parallel(&sort, Parallelism::new(4, 16)).unwrap();
        assert!(!text.contains("Merge["), "{text}");
        let (sort_at, gather_at) = (text.find("Sort").unwrap(), text.find("Gather[").unwrap());
        assert!(sort_at < gather_at, "{text}");
    }

    #[test]
    fn checked_batch_arithmetic_matches_row_engine_at_extremes() {
        // Both the typed Int kernel and the row engine's eval_arith are
        // checked: overflow errors, in-range extremes agree.
        let t = rel::values(
            RowTypeBuilder::new()
                .add_not_null("x", TypeKind::Integer)
                .build(),
            vec![vec![Datum::Int(i64::MAX)]],
        );
        let int_ty = RelType::not_null(TypeKind::Integer);
        let plus_one = rel::project(
            t.clone(),
            vec![RexNode::call(
                Op::Plus,
                vec![RexNode::input(0, int_ty.clone()), RexNode::lit_int(1)],
            )],
            vec!["v".into()],
        );
        assert!(ctx_row().execute_collect(&plus_one).is_err());
        assert!(ctx_batch().execute_collect(&plus_one).is_err());
        let minus_one = rel::project(
            t,
            vec![RexNode::call(
                Op::Minus,
                vec![RexNode::input(0, int_ty), RexNode::lit_int(1)],
            )],
            vec!["v".into()],
        );
        let (a, b) = both(&minus_one);
        assert_eq!(a, b);
        assert_eq!(a, vec![vec![Datum::Int(i64::MAX - 1)]]);
    }

    // The sort kernel, differentially: over every column representation
    // (typed with NULLs, an all-NULL column, a `Generic` column of mixed
    // kinds) and every key shape, the permutation `sort_indexes` returns
    // is the stable sort by the row engine's `compare_rows`.
    mod sort_kernel {
        use super::*;
        use proptest::prelude::*;

        /// One row over a small value domain, so keys tie often and the
        /// stable-order contract is exercised: nullable Int / Double /
        /// Bool / Str, an always-NULL Int, and a mixed-kind column that
        /// demotes to `Column::Generic`.
        fn row_strategy() -> impl Strategy<Value = Row> {
            /// `s`, NULL one time in four.
            fn nullable(s: impl Strategy<Value = Datum>) -> impl Strategy<Value = Datum> {
                (0u8..4, s).prop_map(|(roll, d)| if roll == 0 { Datum::Null } else { d })
            }
            (
                nullable((-2i64..3).prop_map(Datum::Int)),
                nullable((-2i64..3).prop_map(|v| Datum::Double(v as f64 / 2.0))),
                nullable(any::<bool>().prop_map(Datum::Bool)),
                nullable((0i64..3).prop_map(|v| Datum::str(format!("s{v}")))),
                prop_oneof![
                    Just(Datum::Null),
                    (0i64..3).prop_map(Datum::Int),
                    (0i32..3).prop_map(Datum::Date),
                    (0i64..2).prop_map(|v| Datum::str(format!("g{v}"))),
                ],
            )
                .prop_map(|(i, d, b, s, g)| vec![i, d, b, s, Datum::Null, g])
        }

        const KINDS: [TypeKind; 6] = [
            TypeKind::Integer,
            TypeKind::Double,
            TypeKind::Boolean,
            TypeKind::Varchar,
            TypeKind::Integer,
            TypeKind::Date,
        ];

        fn key_strategy() -> impl Strategy<Value = FieldCollation> {
            (0usize..KINDS.len(), any::<bool>(), any::<bool>()).prop_map(
                |(field, descending, nulls_first)| FieldCollation {
                    field,
                    descending,
                    nulls_first,
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn permutation_is_the_stable_sort_by_compare_rows(
                rows in proptest::collection::vec(row_strategy(), 0..40),
                collation in proptest::collection::vec(key_strategy(), 1..4),
            ) {
                let b = ColumnBatch::from_rows(&KINDS, &rows);
                prop_assert!(matches!(b.column(5), Column::Generic(_)));
                let mut want: Vec<usize> = (0..rows.len()).collect();
                want.sort_by(|&a, &c| compare_rows(&rows[a], &rows[c], &collation));
                prop_assert_eq!(sort_indexes(&b, &collation), want);
            }
        }

        #[test]
        fn empty_collation_is_the_identity() {
            let b = ColumnBatch::from_rows(
                &[TypeKind::Integer],
                &[vec![Datum::Int(2)], vec![Datum::Int(1)]],
            );
            assert_eq!(sort_indexes(&b, &vec![]), vec![0, 1]);
        }
    }

    /// Spill I/O faults, injected through the temp-file seam: every
    /// spilling operator must surface a failed append or read as an
    /// error, hand its whole reservation back, and leave the context
    /// usable.
    mod spill_faults {
        use super::*;
        use rcalcite_core::buffer::{MemoryBudget, TempFileProvider, PAGE_SIZE};
        use std::fs::{File, OpenOptions};
        use std::sync::atomic::AtomicU64;

        /// Scratch files whose handle lacks one direction of access.
        enum FaultyTemp {
            /// Opened read-only: every spill append fails.
            ReadOnly,
            /// Opened write-only: every spill read fails.
            WriteOnly,
        }

        impl TempFileProvider for FaultyTemp {
            fn create_file(&self, label: &str) -> Result<File> {
                static N: AtomicU64 = AtomicU64::new(0);
                let n = N.fetch_add(1, AtomicOrdering::Relaxed);
                let path = std::env::temp_dir().join(format!(
                    "rcalcite-fault-{}-{n}-{label}.run",
                    std::process::id()
                ));
                let file = OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(&path)
                    .and_then(|f| match self {
                        FaultyTemp::WriteOnly => Ok(f),
                        FaultyTemp::ReadOnly => OpenOptions::new().read(true).open(&path),
                    });
                let _ = std::fs::remove_file(&path);
                file.map_err(|e| CalciteError::execution(e.to_string()))
            }
        }

        /// 4000 rows with unique keys: ~200 KiB of build state, far over
        /// one spill page.
        fn wide() -> Rel {
            let t = MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("k", TypeKind::Integer)
                    .add("s", TypeKind::Varchar)
                    .build(),
                (0..4000)
                    .map(|i| vec![Datum::Int(i), Datum::str(format!("row-{i}"))])
                    .collect(),
            );
            rel::scan(TableRef::new("s", "wide", t))
        }

        fn join_plan() -> Rel {
            let int_ty = RelType::not_null(TypeKind::Integer);
            let cond = RexNode::input(0, int_ty.clone()).eq(RexNode::input(2, int_ty));
            rel::join(wide(), wide(), JoinKind::Inner, cond)
        }

        fn aggregate_plan() -> Rel {
            rel::aggregate(wide(), vec![0], vec![AggCall::count_star("c")])
        }

        fn sort_plan() -> Rel {
            rel::sort(wide(), vec![FieldCollation::desc(0)])
        }

        fn fails_cleanly(plan: &Rel, workers: usize, temp: FaultyTemp) {
            let want = match temp {
                FaultyTemp::ReadOnly => "spill write failed",
                FaultyTemp::WriteOnly => "spill read failed",
            };
            let mut ctx = ctx_parallel(workers, 64);
            ctx.set_memory_budget(MemoryBudget::bytes(PAGE_SIZE));
            ctx.set_temp_provider(Arc::new(temp));
            let err = ctx.execute_collect(plan).unwrap_err().to_string();
            assert!(err.contains(want), "workers={workers}: {err}");
            assert_eq!(ctx.memory_budget().used(), 0);
            ctx.set_memory_budget(MemoryBudget::unbounded());
            assert_eq!(ctx.execute_collect(plan).unwrap().len(), 4000);
        }

        #[test]
        fn failed_appends_and_reads_surface_as_errors() {
            for temp in [|| FaultyTemp::ReadOnly, || FaultyTemp::WriteOnly] {
                fails_cleanly(&join_plan(), 1, temp());
                fails_cleanly(&aggregate_plan(), 1, temp());
                for workers in [1, 4] {
                    fails_cleanly(&sort_plan(), workers, temp());
                }
            }
        }
    }

    /// A panicking morsel worker, injected through the scan seam: the
    /// one exchange turns the dead thread into an error for every
    /// parallel shape, the budget gets every byte back, and the context
    /// answers the next query.
    mod worker_panics {
        use super::*;
        use rcalcite_core::buffer::{MemoryBudget, PAGE_SIZE};
        use rcalcite_core::catalog::Table;

        /// A table whose snapshot panics when a worker scans the morsel
        /// starting at row 64. The serial scan reads one range from row 0
        /// and never trips it.
        struct PanickyTable(Arc<dyn Table>);

        struct PanickyScan(Arc<dyn RangeScan>);

        impl RangeScan for PanickyScan {
            fn row_count(&self) -> usize {
                self.0.row_count()
            }

            fn scan_range(
                self: Arc<Self>,
                batch_size: usize,
                start: usize,
                len: usize,
            ) -> Result<BatchOp> {
                if start == 64 {
                    panic!("injected range-scan fault");
                }
                self.0.clone().scan_range(batch_size, start, len)
            }
        }

        impl Table for PanickyTable {
            fn row_type(&self) -> rcalcite_core::types::RowType {
                self.0.row_type()
            }

            fn scan(&self) -> Result<rcalcite_core::exec::RowIter> {
                self.0.scan()
            }

            fn scan_snapshot(&self) -> Result<Option<Arc<dyn RangeScan>>> {
                let snapshot = self.0.scan_snapshot()?;
                Ok(snapshot.map(|s| Arc::new(PanickyScan(s)) as Arc<dyn RangeScan>))
            }
        }

        /// `big_table()` behind a [`PanickyTable`].
        fn panicky_table() -> Rel {
            let base = big_table();
            let RelOp::Scan { table } = &base.op else {
                unreachable!("big_table is a scan")
            };
            let t = PanickyTable(table.table.clone());
            rel::scan(TableRef::new("s", "panicky", Arc::new(t)))
        }

        /// A chain, a grouped aggregate, a join probe and a Top-K over
        /// `src`.
        fn shapes(src: fn() -> Rel) -> Vec<Rel> {
            let int_ty = RelType::not_null(TypeKind::Integer);
            let dept = rel::values(
                RowTypeBuilder::new()
                    .add_not_null("k", TypeKind::Integer)
                    .build(),
                (0..7).map(|i| vec![Datum::Int(i)]).collect(),
            );
            let equi = RexNode::input(0, int_ty.clone()).eq(RexNode::input(2, int_ty));
            vec![
                filter_project_plan(src()),
                rel::aggregate(src(), vec![0], vec![AggCall::count_star("c")]),
                rel::join(src(), dept, JoinKind::Inner, equi),
                rel::sort_limit(src(), vec![FieldCollation::asc(0)], None, Some(9)),
            ]
        }

        #[test]
        fn every_parallel_shape_fails_cleanly_and_the_context_recovers() {
            let mut ctx = ctx_parallel(4, 16);
            ctx.set_memory_budget(MemoryBudget::bytes(8 * PAGE_SIZE));
            for (faulty, healthy) in shapes(panicky_table).iter().zip(shapes(big_table)) {
                let text = explain_parallel(faulty, ctx.parallelism()).unwrap();
                assert!(text.contains("Exchange[range: s.panicky"), "{text}");
                let err = ctx.execute_collect(faulty).unwrap_err().to_string();
                assert!(err.contains("panicked"), "{err}");
                assert_eq!(ctx.memory_budget().used(), 0);
                let want = ctx_batch().execute_collect(&healthy).unwrap();
                assert_eq!(ctx.execute_collect(&healthy).unwrap(), want);
            }
        }
    }
}
