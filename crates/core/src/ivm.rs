//! Incremental view maintenance (IVM): materialized views kept current by
//! propagating committed deltas through a compiled *delta plan* instead of
//! recomputing from scratch — O(|delta|) work per commit, near-O(1) reads
//! through the §6 view-substitution rewrite in [`crate::mv`].
//!
//! The design follows the classic signed-multiset (Z-set) formulation that
//! also underlies `crates/streams`' incremental aggregation: a change is a
//! bag of `(row, weight)` pairs with `+1` for an insert and `-1` for a
//! delete (an UPDATE is `-old +new`). Every relational operator has a
//! maintenance rule mapping an input delta to an output delta:
//!
//! * `Filter` keeps the rows passing the predicate, weights untouched.
//! * `Project` maps each row through the projection expressions.
//! * Inner `Join` uses the bilinear decomposition
//!   `Δ(L ⋈ R) = ΔL ⋈ R  ∪  L' ⋈ ΔR` — each side keeps a hash-bucketed
//!   multiset of the rows seen so far, so a delta on one side probes the
//!   other side's state in O(|delta|) (deltas arrive one leaf at a time,
//!   so exactly one side of any join changes per pass).
//! * `Aggregate` keeps per-group accumulators with *group-delta counting*:
//!   each group tracks its net row multiplicity, and a group whose count
//!   reaches zero retracts its output row entirely (the empty-group row of
//!   a global aggregate is never retracted, matching the executor, which
//!   always emits one row for `SELECT COUNT(*) ...` over an empty input).
//!   SUM/COUNT/AVG subtract exactly; MIN/MAX keep an ordered multiset of
//!   values so deleting the current extreme reveals the runner-up.
//!
//! Shapes without an exact, invertible rule — DISTINCT aggregates, SUM/AVG
//! over floating-point columns (subtraction is not an exact inverse),
//! outer/semi/anti joins, window functions, set operations, OFFSET/FETCH —
//! compile to a *refresh-only* view: reads fall back to the base plan once
//! a base table changes, until `REFRESH MATERIALIZED VIEW` recomputes it.
//!
//! Freshness is tracked with per-table data versions
//! ([`crate::catalog::Table::data_version`]): after every successful
//! maintenance pass the view records its base tables' versions, and
//! substitution asks [`MaintainedView::is_fresh`] — a mismatch (crash
//! recovery replayed the WAL, a write bypassed the commit feed, or
//! maintenance itself failed) makes the view stale rather than wrong.

use crate::catalog::{MemTable, Table, TableRef};
use crate::datum::{Datum, Row};
use crate::error::{CalciteError, Result};
use crate::rel::{AggCall, AggFunc, JoinKind, Rel, RelOp};
use crate::rex::{Op, RexNode};
use crate::stats::StatsRegistry;
use crate::txn::DeltaOp;
use crate::types::TypeKind;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A signed delta: rows with multiplicities (+insert / -delete).
pub type SignedDelta = Vec<(Row, i64)>;

/// Sums multiplicities per row, dropping zero entries. First-appearance
/// order is preserved so initial materialization is deterministic.
pub fn consolidate(delta: SignedDelta) -> SignedDelta {
    let mut order: Vec<Row> = vec![];
    let mut weights: HashMap<Row, i64> = HashMap::new();
    for (row, w) in delta {
        match weights.get_mut(&row) {
            Some(acc) => *acc += w,
            None => {
                weights.insert(row.clone(), w);
                order.push(row);
            }
        }
    }
    order
        .into_iter()
        .filter_map(|row| {
            let w = weights[&row];
            (w != 0).then_some((row, w))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Delta accumulators: incremental, *invertible* forms of the executor's
// aggregate accumulators. `finish` must render byte-identically to the
// enumerable executor's `Acc::finish` for the supported argument types.
// ---------------------------------------------------------------------

#[derive(Clone)]
enum DeltaAcc {
    /// COUNT(*) (`arg` None) / COUNT(x) (skips NULLs).
    Count(i64),
    /// SUM over an INTEGER column: exact signed arithmetic. `nonnull`
    /// counts contributing rows so the SQL "SUM of no rows is NULL" rule
    /// survives deletions.
    SumInt { sum: i64, nonnull: i64 },
    /// MIN/MAX over any ordered type: multiset of non-null values, so
    /// retracting the current extreme exposes the runner-up.
    MinMax {
        map: BTreeMap<Datum, i64>,
        min: bool,
    },
    /// AVG over an INTEGER column: exact integer sum, floating division
    /// only at render time (matching `Acc::Avg`'s f64 result exactly for
    /// in-range integers).
    AvgInt { sum: i64, count: i64 },
}

impl DeltaAcc {
    fn apply(&mut self, v: Option<&Datum>, w: i64) -> Result<()> {
        let overflow = || CalciteError::execution("integer overflow in SUM");
        match self {
            DeltaAcc::Count(n) => match v {
                None => *n += w,
                Some(d) if !d.is_null() => *n += w,
                _ => {}
            },
            DeltaAcc::SumInt { sum, nonnull } => {
                if let Some(Datum::Int(x)) = v {
                    let add = x.checked_mul(w).ok_or_else(overflow)?;
                    *sum = sum.checked_add(add).ok_or_else(overflow)?;
                    *nonnull += w;
                }
            }
            DeltaAcc::MinMax { map, .. } => {
                if let Some(d) = v {
                    if !d.is_null() {
                        let entry = map.entry(d.clone()).or_insert(0);
                        *entry += w;
                        if *entry == 0 {
                            map.remove(d);
                        } else if *entry < 0 {
                            return Err(CalciteError::execution(
                                "view maintenance: negative MIN/MAX multiplicity",
                            ));
                        }
                    }
                }
            }
            DeltaAcc::AvgInt { sum, count } => {
                if let Some(Datum::Int(x)) = v {
                    let add = x.checked_mul(w).ok_or_else(overflow)?;
                    *sum = sum.checked_add(add).ok_or_else(overflow)?;
                    *count += w;
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Datum {
        match self {
            DeltaAcc::Count(n) => Datum::Int(*n),
            DeltaAcc::SumInt { sum, nonnull } => {
                if *nonnull == 0 {
                    Datum::Null
                } else {
                    Datum::Int(*sum)
                }
            }
            DeltaAcc::MinMax { map, min } => {
                let extreme = if *min {
                    map.keys().next()
                } else {
                    map.keys().next_back()
                };
                extreme.cloned().unwrap_or(Datum::Null)
            }
            DeltaAcc::AvgInt { sum, count } => {
                if *count == 0 {
                    Datum::Null
                } else {
                    Datum::Double(*sum as f64 / *count as f64)
                }
            }
        }
    }
}

/// Compiled form of one aggregate call.
#[derive(Clone)]
struct AggSpec {
    func: AggFunc,
    arg: Option<usize>,
    min: bool,
}

impl AggSpec {
    fn fresh_acc(&self) -> DeltaAcc {
        match self.func {
            AggFunc::Count => DeltaAcc::Count(0),
            AggFunc::Sum => DeltaAcc::SumInt { sum: 0, nonnull: 0 },
            AggFunc::Min | AggFunc::Max => DeltaAcc::MinMax {
                map: BTreeMap::new(),
                min: self.min,
            },
            AggFunc::Avg => DeltaAcc::AvgInt { sum: 0, count: 0 },
        }
    }
}

/// Per-group maintenance state: the net input-row multiplicity (a group
/// retracts its output when this reaches zero) plus one accumulator per
/// aggregate call.
struct GroupState {
    weight: i64,
    accs: Vec<DeltaAcc>,
}

// ---------------------------------------------------------------------
// The delta plan: one maintenance node per relational operator.
// ---------------------------------------------------------------------

enum DeltaNode {
    /// A base-table scan: the feed point for the signed deltas COMMIT
    /// derives from the table's own versions.
    Scan { leaf: usize, table: TableRef },
    /// Literal rows: contribute once at initialization, never change.
    Values { leaf: usize, tuples: Vec<Row> },
    Filter {
        input: Box<DeltaNode>,
        condition: RexNode,
    },
    Project {
        input: Box<DeltaNode>,
        exprs: Vec<RexNode>,
    },
    /// Inner join. `*_state` bucket each side's accumulated rows by the
    /// equi-key extracted from the condition (empty key = one bucket);
    /// the full condition is always re-evaluated on the joined row, so
    /// non-equi conjuncts and NULL keys behave exactly like the executor.
    Join {
        left: Box<DeltaNode>,
        right: Box<DeltaNode>,
        condition: RexNode,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        left_state: HashMap<Vec<Datum>, Vec<(Row, i64)>>,
        right_state: HashMap<Vec<Datum>, Vec<(Row, i64)>>,
    },
    /// An empty `group` is a global aggregate: its single group always
    /// emits one row.
    Aggregate {
        input: Box<DeltaNode>,
        group: Vec<usize>,
        aggs: Vec<AggSpec>,
        groups: HashMap<Vec<Datum>, GroupState>,
    },
    /// Sort without OFFSET/FETCH: a materialized table is a bag, ordering
    /// is reimposed by whatever plan reads it, so deltas pass through.
    Passthrough { input: Box<DeltaNode> },
}

/// Adds `(row, w)` into a bucketed multiset, compacting zeros lazily.
fn bucket_add(state: &mut HashMap<Vec<Datum>, Vec<(Row, i64)>>, key: Vec<Datum>, row: Row, w: i64) {
    let bucket = state.entry(key).or_default();
    if let Some(slot) = bucket.iter_mut().find(|(r, _)| *r == row) {
        slot.1 += w;
        if slot.1 == 0 {
            bucket.retain(|(_, bw)| *bw != 0);
        }
    } else if w != 0 {
        bucket.push((row, w));
    }
}

impl DeltaNode {
    /// Propagates a delta arriving at leaf `leaf` up through this subtree.
    /// Returns `None` when the leaf is not below this node (the delta does
    /// not pass through), `Some(output delta)` otherwise.
    fn feed(&mut self, leaf: usize, delta: &SignedDelta) -> Result<Option<SignedDelta>> {
        match self {
            DeltaNode::Scan { leaf: id, .. } | DeltaNode::Values { leaf: id, .. } => {
                Ok((*id == leaf).then(|| delta.clone()))
            }
            DeltaNode::Passthrough { input } => input.feed(leaf, delta),
            DeltaNode::Filter { input, condition } => {
                let Some(d) = input.feed(leaf, delta)? else {
                    return Ok(None);
                };
                let mut out = vec![];
                for (row, w) in d {
                    if condition.eval(&row)? == Datum::Bool(true) {
                        out.push((row, w));
                    }
                }
                Ok(Some(out))
            }
            DeltaNode::Project { input, exprs } => {
                let Some(d) = input.feed(leaf, delta)? else {
                    return Ok(None);
                };
                let mut out = Vec::with_capacity(d.len());
                for (row, w) in d {
                    let projected: Result<Row> = exprs.iter().map(|e| e.eval(&row)).collect();
                    out.push((projected?, w));
                }
                Ok(Some(out))
            }
            DeltaNode::Join {
                left,
                right,
                condition,
                left_keys,
                right_keys,
                left_state,
                right_state,
            } => {
                // Leaf ids are unique, so the delta reaches at most one
                // side — the bilinear cross term never arises in one pass.
                let dl = left.feed(leaf, delta)?;
                let dr = right.feed(leaf, delta)?;
                let mut out = vec![];
                if let Some(dl) = dl {
                    for (lrow, lw) in &dl {
                        let key: Vec<Datum> = left_keys.iter().map(|i| lrow[*i].clone()).collect();
                        if let Some(bucket) = right_state.get(&key) {
                            for (rrow, rw) in bucket {
                                let mut joined = lrow.clone();
                                joined.extend(rrow.iter().cloned());
                                if condition.eval(&joined)? == Datum::Bool(true) {
                                    out.push((joined, lw * rw));
                                }
                            }
                        }
                    }
                    for (lrow, lw) in dl {
                        let key: Vec<Datum> = left_keys.iter().map(|i| lrow[*i].clone()).collect();
                        bucket_add(left_state, key, lrow, lw);
                    }
                    return Ok(Some(out));
                }
                if let Some(dr) = dr {
                    for (rrow, rw) in &dr {
                        let key: Vec<Datum> = right_keys.iter().map(|i| rrow[*i].clone()).collect();
                        if let Some(bucket) = left_state.get(&key) {
                            for (lrow, lw) in bucket {
                                let mut joined = lrow.clone();
                                joined.extend(rrow.iter().cloned());
                                if condition.eval(&joined)? == Datum::Bool(true) {
                                    out.push((joined, lw * rw));
                                }
                            }
                        }
                    }
                    for (rrow, rw) in dr {
                        let key: Vec<Datum> = right_keys.iter().map(|i| rrow[*i].clone()).collect();
                        bucket_add(right_state, key, rrow, rw);
                    }
                    return Ok(Some(out));
                }
                Ok(None)
            }
            DeltaNode::Aggregate {
                input,
                group,
                aggs,
                groups,
            } => {
                let Some(d) = input.feed(leaf, delta)? else {
                    return Ok(None);
                };
                // Bucket the input delta per group key, then emit
                // `-old +new` output rows per touched group. The first
                // delta to reach a global aggregate, even an empty one,
                // touches its group: over no rows the executor still
                // emits one (`COUNT(*)` of nothing is 0).
                let global = group.is_empty();
                let mut touched: Vec<Vec<Datum>> = vec![];
                let mut per_key: HashMap<Vec<Datum>, SignedDelta> = HashMap::new();
                if global && groups.is_empty() {
                    per_key.insert(vec![], vec![]);
                    touched.push(vec![]);
                }
                for (row, w) in d {
                    let key: Vec<Datum> = group.iter().map(|g| row[*g].clone()).collect();
                    match per_key.get_mut(&key) {
                        Some(v) => v.push((row, w)),
                        None => {
                            per_key.insert(key.clone(), vec![(row, w)]);
                            touched.push(key);
                        }
                    }
                }
                let mut out = vec![];
                for key in touched {
                    let rows = per_key.remove(&key).expect("touched key present");
                    if let Some(state) = groups.get(&key) {
                        let mut old = key.clone();
                        old.extend(state.accs.iter().map(DeltaAcc::finish));
                        out.push((old, -1));
                    }
                    let state = groups.entry(key.clone()).or_insert_with(|| GroupState {
                        weight: 0,
                        accs: aggs.iter().map(AggSpec::fresh_acc).collect(),
                    });
                    for (row, w) in rows {
                        state.weight += w;
                        for (spec, acc) in aggs.iter().zip(state.accs.iter_mut()) {
                            acc.apply(spec.arg.map(|i| &row[i]), w)?;
                        }
                    }
                    if state.weight < 0 {
                        return Err(CalciteError::execution(
                            "view maintenance: negative group multiplicity",
                        ));
                    }
                    if state.weight > 0 || global {
                        let mut new = key.clone();
                        new.extend(state.accs.iter().map(DeltaAcc::finish));
                        out.push((new, 1));
                    }
                    if state.weight == 0 && !global {
                        groups.remove(&key);
                    }
                }
                Ok(Some(out))
            }
        }
    }

    /// The leaf numbered `target` (a scan or VALUES), if below this node.
    fn leaf(&self, target: usize) -> Option<&DeltaNode> {
        match self {
            DeltaNode::Scan { leaf, .. } | DeltaNode::Values { leaf, .. } => {
                (*leaf == target).then_some(self)
            }
            DeltaNode::Passthrough { input }
            | DeltaNode::Filter { input, .. }
            | DeltaNode::Project { input, .. }
            | DeltaNode::Aggregate { input, .. } => input.leaf(target),
            DeltaNode::Join { left, right, .. } => left.leaf(target).or_else(|| right.leaf(target)),
        }
    }
}

/// A compiled maintenance plan for one view definition.
pub struct DeltaPlan {
    root: DeltaNode,
    leaf_count: usize,
}

impl std::fmt::Debug for DeltaPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeltaPlan({} leaves)", self.leaf_count)
    }
}

impl DeltaPlan {
    /// Compiles `plan` (a *logical* view definition) into a delta plan,
    /// or explains why the shape has no exact maintenance rule (the view
    /// then falls back to refresh-only).
    pub fn compile(plan: &Rel) -> Result<DeltaPlan> {
        let mut leaves = 0usize;
        let root = compile_node(plan, &mut leaves)?;
        Ok(DeltaPlan {
            root,
            leaf_count: leaves,
        })
    }

    /// Initializes operator state by feeding every leaf's full current
    /// content as an all-`+1` delta (base tables via their versions,
    /// VALUES via their tuples) and returns the consolidated view rows.
    /// Call under the commit lock so no commit lands mid-initialization.
    pub fn init(&mut self) -> Result<Vec<Row>> {
        let mut total: SignedDelta = vec![];
        for leaf in 0..self.leaf_count {
            let seed: SignedDelta = match self.root.leaf(leaf) {
                Some(DeltaNode::Values { tuples, .. }) => {
                    tuples.iter().map(|t| (t.clone(), 1)).collect()
                }
                Some(DeltaNode::Scan { table, .. }) => {
                    let version = table.table.txn_snapshot().ok_or_else(|| {
                        CalciteError::unsupported("base table does not support MVCC snapshots")
                    })?;
                    version.into_rows().map(|row| (row, 1)).collect()
                }
                _ => return Err(CalciteError::internal("delta plan leaf missing")),
            };
            if let Some(out) = self.root.feed(leaf, &seed)? {
                total.extend(out);
            }
        }
        let mut rows = vec![];
        for (row, w) in consolidate(total) {
            if w < 0 {
                return Err(CalciteError::internal(
                    "view initialization produced negative multiplicity",
                ));
            }
            for _ in 0..w {
                rows.push(row.clone());
            }
        }
        Ok(rows)
    }

    /// Translates one commit's signed delta to `table` into the view's
    /// output delta: every leaf scanning `table` is fed in turn (a
    /// self-join has several).
    fn propagate(&mut self, table: &str, delta: &SignedDelta) -> Result<SignedDelta> {
        let mut total = vec![];
        for leaf in 0..self.leaf_count {
            let scans = matches!(
                self.root.leaf(leaf),
                Some(DeltaNode::Scan { table: t, .. }) if t.qualified_name() == table
            );
            if scans {
                if let Some(out) = self.root.feed(leaf, delta)? {
                    total.extend(out);
                }
            }
        }
        Ok(total)
    }
}

fn compile_node(plan: &Rel, leaves: &mut usize) -> Result<DeltaNode> {
    let unsupported = |what: &str| Err(CalciteError::unsupported(what.to_string()));
    match &plan.op {
        RelOp::Scan { table } => {
            if table.table.is_stream() {
                return unsupported("streams cannot back a maintained view");
            }
            if table.table.txn_snapshot().is_none() {
                return unsupported("base table does not support MVCC snapshots");
            }
            if table.table.data_version().is_none() {
                return unsupported("base table does not report data versions");
            }
            let leaf = *leaves;
            *leaves += 1;
            Ok(DeltaNode::Scan {
                leaf,
                table: table.clone(),
            })
        }
        RelOp::Values { tuples, .. } => {
            let leaf = *leaves;
            *leaves += 1;
            Ok(DeltaNode::Values {
                leaf,
                tuples: tuples.clone(),
            })
        }
        RelOp::Filter { condition } => Ok(DeltaNode::Filter {
            input: Box::new(compile_node(plan.input(0), leaves)?),
            condition: condition.clone(),
        }),
        RelOp::Project { exprs, .. } => Ok(DeltaNode::Project {
            input: Box::new(compile_node(plan.input(0), leaves)?),
            exprs: exprs.clone(),
        }),
        RelOp::Join { kind, condition } => {
            if *kind != JoinKind::Inner {
                return unsupported("only inner joins have an exact maintenance rule");
            }
            let left = compile_node(plan.input(0), leaves)?;
            let right = compile_node(plan.input(1), leaves)?;
            let left_arity = plan.input(0).row_type().arity();
            let (left_keys, right_keys) = equi_keys(condition, left_arity);
            Ok(DeltaNode::Join {
                left: Box::new(left),
                right: Box::new(right),
                condition: condition.clone(),
                left_keys,
                right_keys,
                left_state: HashMap::new(),
                right_state: HashMap::new(),
            })
        }
        RelOp::Aggregate { group, aggs } => {
            let input_rt = plan.input(0).row_type().clone();
            let mut specs = vec![];
            for a in aggs {
                specs.push(compile_agg(a, &input_rt)?);
            }
            Ok(DeltaNode::Aggregate {
                input: Box::new(compile_node(plan.input(0), leaves)?),
                group: group.clone(),
                aggs: specs,
                groups: HashMap::new(),
            })
        }
        RelOp::Sort { offset, fetch, .. } => {
            if offset.is_some() || fetch.is_some() {
                return unsupported("OFFSET/FETCH views are not incrementally maintainable");
            }
            Ok(DeltaNode::Passthrough {
                input: Box::new(compile_node(plan.input(0), leaves)?),
            })
        }
        RelOp::Window { .. } => unsupported("window functions are not incrementally maintainable"),
        RelOp::Union { .. } | RelOp::Intersect { .. } | RelOp::Minus { .. } => {
            unsupported("set operations are not incrementally maintainable")
        }
        RelOp::Delta => unsupported("streaming DELTA views are not incrementally maintainable"),
        RelOp::IndexSeek { .. } | RelOp::IndexJoin { .. } | RelOp::Convert { .. } => {
            unsupported("physical operators cannot appear in a view definition")
        }
    }
}

fn compile_agg(call: &AggCall, input: &crate::types::RowType) -> Result<AggSpec> {
    if call.distinct {
        return Err(CalciteError::unsupported(
            "DISTINCT aggregates are not incrementally maintainable",
        ));
    }
    let arg = call.args.first().copied();
    if matches!(call.func, AggFunc::Sum | AggFunc::Avg) {
        let idx =
            arg.ok_or_else(|| CalciteError::unsupported("SUM/AVG require an argument column"))?;
        if input.field(idx).ty.kind != TypeKind::Integer {
            // f64 subtraction is not an exact inverse of addition, so a
            // maintained SUM/AVG over doubles could drift from recompute.
            return Err(CalciteError::unsupported(
                "SUM/AVG maintenance requires an INTEGER argument",
            ));
        }
    }
    Ok(AggSpec {
        func: call.func,
        arg,
        min: call.func == AggFunc::Min,
    })
}

/// Splits the equi-join conjuncts (`$l = $r` across the arity boundary)
/// out of a join condition; everything else stays in the re-evaluated
/// residual. Empty keys mean one shared bucket (cartesian probing).
fn equi_keys(condition: &RexNode, left_arity: usize) -> (Vec<usize>, Vec<usize>) {
    let mut left_keys = vec![];
    let mut right_keys = vec![];
    for c in condition.conjuncts() {
        if let RexNode::Call {
            op: Op::Eq, args, ..
        } = &c
        {
            if let (Some(a), Some(b)) = (args[0].as_input_ref(), args[1].as_input_ref()) {
                let (l, r) = if a < left_arity && b >= left_arity {
                    (a, b - left_arity)
                } else if b < left_arity && a >= left_arity {
                    (b, a - left_arity)
                } else {
                    continue;
                };
                left_keys.push(l);
                right_keys.push(r);
            }
        }
    }
    (left_keys, right_keys)
}

/// The base tables a (refresh-only) view definition reads.
pub fn base_tables_of(plan: &Rel) -> Vec<TableRef> {
    fn walk(rel: &Rel, out: &mut Vec<TableRef>) {
        match &rel.op {
            RelOp::Scan { table }
            | RelOp::IndexSeek { table, .. }
            | RelOp::IndexJoin { table, .. }
                if !out
                    .iter()
                    .any(|t| t.qualified_name() == table.qualified_name()) =>
            {
                out.push(table.clone());
            }
            _ => {}
        }
        for i in &rel.inputs {
            walk(i, out);
        }
    }
    let mut out = vec![];
    walk(plan, &mut out);
    out
}

/// Captures the current data versions of every base table `plan` reads.
/// For refresh-only views: capture under the commit lock *before*
/// executing the defining query, then pass the result to
/// [`MaintainedView::new_refresh_only`] — a commit racing the execution
/// then leaves the view stale, never silently wrong.
pub fn base_versions(plan: &Rel) -> HashMap<String, Option<u64>> {
    record_versions(&base_tables_of(plan))
}

// ---------------------------------------------------------------------
// Maintained views and the commit-feed registry.
// ---------------------------------------------------------------------

struct ViewState {
    /// The compiled maintenance plan; `None` = refresh-only fallback.
    delta: Option<DeltaPlan>,
    /// View-storage bag: row value → stable row ids currently holding it.
    /// Lets maintenance address deletions through the `apply_delta` SPI
    /// (which keeps the view's secondary indexes maintained for free).
    row_ids: HashMap<Row, Vec<u64>>,
    /// Base-table data versions as of the last successful maintenance or
    /// refresh; a mismatch with the live versions means stale.
    versions: HashMap<String, Option<u64>>,
    /// A maintenance failure (overflow, storage tampering): the view is
    /// stale regardless of versions until the next REFRESH.
    broken: Option<String>,
    /// Why the shape compiled refresh-only (`None` = fully maintained).
    unsupported: Option<String>,
}

/// A materialized view registered with the commit feed. Substitution
/// consults [`MaintainedView::is_fresh`]; the [`IvmRegistry`] drives
/// maintenance from inside COMMIT, under the commit lock, so view and
/// base versions advance atomically.
pub struct MaintainedView {
    /// Qualified storage name, e.g. `mv.hot`.
    pub name: String,
    /// The backing table, as scans and substitution address it.
    pub table: TableRef,
    /// The same storage, as maintenance and REFRESH write it.
    pub(crate) storage: Arc<MemTable>,
    /// Distinct base tables the definition reads.
    pub bases: Vec<TableRef>,
    /// The logical view definition (used by REFRESH and EXPLAIN).
    pub plan: Rel,
    state: Mutex<ViewState>,
}

impl MaintainedView {
    fn new(
        schema: &str,
        name: &str,
        storage: Arc<MemTable>,
        plan: Rel,
        state: ViewState,
    ) -> Arc<MaintainedView> {
        let table = TableRef::new(schema, name, storage.clone());
        Arc::new(MaintainedView {
            name: table.qualified_name(),
            table,
            storage,
            bases: base_tables_of(&plan),
            plan,
            state: Mutex::new(state),
        })
    }

    /// Wraps freshly initialized storage `schema.name` for a maintainable
    /// shape. The caller initialized `delta` (see [`DeltaPlan::init`])
    /// and filled `storage` with exactly the rows it returned, under the
    /// commit lock.
    pub fn new_maintained(
        schema: &str,
        name: &str,
        storage: Arc<MemTable>,
        plan: Rel,
        delta: DeltaPlan,
    ) -> Arc<MaintainedView> {
        let state = ViewState {
            delta: Some(delta),
            row_ids: storage_row_ids(&storage),
            versions: base_versions(&plan),
            broken: None,
            unsupported: None,
        };
        MaintainedView::new(schema, name, storage, plan, state)
    }

    /// Wraps storage for a shape without a maintenance rule: the view is
    /// fresh until a base table's version moves, then stale until
    /// REFRESH. `versions` are the base versions captured (under the
    /// commit lock) *before* the defining query ran, so a racing commit
    /// errs toward stale, never toward wrong.
    pub fn new_refresh_only(
        schema: &str,
        name: &str,
        storage: Arc<MemTable>,
        plan: Rel,
        reason: impl Into<String>,
        versions: HashMap<String, Option<u64>>,
    ) -> Arc<MaintainedView> {
        let state = ViewState {
            delta: None,
            row_ids: HashMap::new(),
            versions,
            broken: None,
            unsupported: Some(reason.into()),
        };
        MaintainedView::new(schema, name, storage, plan, state)
    }

    /// Whether deltas maintain this view (vs. refresh-only fallback).
    pub fn is_maintained(&self) -> bool {
        self.state.lock().delta.is_some()
    }

    /// Why the view compiled refresh-only, if it did.
    pub fn unsupported_reason(&self) -> Option<String> {
        self.state.lock().unsupported.clone()
    }

    /// Whether substitution may serve reads from this view right now.
    pub fn is_fresh(&self) -> bool {
        let state = self.state.lock();
        state.broken.is_none() && versions_match(&state.versions, &self.bases)
    }

    /// Why the view is stale (`None` when fresh).
    pub fn staleness(&self) -> Option<String> {
        let state = self.state.lock();
        if let Some(reason) = &state.broken {
            return Some(reason.clone());
        }
        if !versions_match(&state.versions, &self.bases) {
            return Some(match &state.unsupported {
                Some(r) => format!("base tables changed; not maintainable: {r}"),
                None => "base tables changed outside the commit feed".to_string(),
            });
        }
        None
    }

    /// Full recompute for a maintained view: re-initializes the delta
    /// plan from fresh snapshots and swaps the storage contents. Must run
    /// under the commit lock (see `TxnManager::with_commit_lock`).
    pub fn refresh_maintained(&self) -> Result<()> {
        let mut state = self.state.lock();
        if state.delta.is_none() {
            return Err(CalciteError::internal(
                "refresh_maintained on refresh-only view",
            ));
        }
        let mut plan = DeltaPlan::compile(&self.plan)?;
        self.storage.replace_all(plan.init()?);
        state.row_ids = storage_row_ids(&self.storage);
        state.versions = record_versions(&self.bases);
        state.delta = Some(plan);
        state.broken = None;
        Ok(())
    }

    /// Completes a refresh-only recompute: swaps in `rows`, the defining
    /// query's result, whose execution began after the caller captured
    /// `versions` under the commit lock. Run this under the commit lock
    /// too, so maintenance never observes a half-replaced table.
    pub fn complete_refresh(&self, rows: Vec<Row>, versions: HashMap<String, Option<u64>>) {
        let mut state = self.state.lock();
        self.storage.replace_all(rows);
        state.versions = versions;
        state.broken = None;
    }

    /// Captures the current base-table versions. Take the commit lock
    /// around this and the defining query's execution start for a
    /// stale-not-wrong ordering guarantee.
    pub fn capture_versions(&self) -> HashMap<String, Option<u64>> {
        record_versions(&self.bases)
    }

    /// Marks the view unusable until REFRESH.
    fn mark_broken(&self, reason: impl Into<String>) {
        self.state.lock().broken = Some(reason.into());
    }

    /// Like [`MaintainedView::is_fresh`], but treating the tables in
    /// `changed` as fresh if their recorded version is exactly one step
    /// behind live — i.e. the commit being observed is the *only* change
    /// since the last maintenance pass. (COMMIT applies each table's
    /// delta in a single `apply_delta` call, bumping its version once.)
    fn fresh_modulo_commit(&self, state: &ViewState, changed: &[&str]) -> bool {
        if state.broken.is_some() {
            return false;
        }
        self.bases.iter().all(|b| {
            let name = b.qualified_name();
            let live = b.table.data_version();
            let recorded = state.versions.get(&name).copied();
            if changed.iter().any(|c| *c == name) {
                match (recorded, live) {
                    (Some(Some(r)), Some(l)) => r + 1 == l,
                    _ => false,
                }
            } else {
                recorded == Some(live)
            }
        })
    }

    /// Applies a consolidated output delta to the view storage through
    /// `apply_delta`, keeping the row-id bag in sync. Returns the number
    /// of storage ops applied.
    fn apply_output(&self, state: &mut ViewState, out: SignedDelta) -> Result<usize> {
        let out = consolidate(out);
        if out.is_empty() {
            return Ok(0);
        }
        let mut ops = vec![];
        let mut inserts: Vec<(Row, i64)> = vec![];
        for (row, w) in out {
            if w < 0 {
                let ids = state.row_ids.get_mut(&row).ok_or_else(|| {
                    CalciteError::execution(
                        "view maintenance: retracting a row absent from storage",
                    )
                })?;
                for _ in 0..(-w) {
                    let id = ids.pop().ok_or_else(|| {
                        CalciteError::execution(
                            "view maintenance: retracting more copies than stored",
                        )
                    })?;
                    ops.push(DeltaOp::Delete { row_id: id });
                }
                if ids.is_empty() {
                    state.row_ids.remove(&row);
                }
            } else {
                inserts.push((row, w));
            }
        }
        let n: i64 = inserts.iter().map(|(_, w)| *w).sum();
        if n > 0 {
            let mut next = self.storage.reserve_row_ids(n as usize)?;
            for (row, w) in inserts {
                for _ in 0..w {
                    ops.push(DeltaOp::Insert {
                        row_id: next,
                        row: row.clone(),
                    });
                    state.row_ids.entry(row.clone()).or_default().push(next);
                    next += 1;
                }
            }
        }
        self.storage.apply_delta(&ops)
    }

    /// Whether a commit to `table` needs this view maintained: the
    /// commit then derives that table's signed delta for it.
    pub(crate) fn maintains_from(&self, table: &str) -> bool {
        self.is_maintained()
            && self
                .bases
                .iter()
                .any(|b| b.qualified_name().eq_ignore_ascii_case(table))
    }
}

fn record_versions(bases: &[TableRef]) -> HashMap<String, Option<u64>> {
    bases
        .iter()
        .map(|b| (b.qualified_name(), b.table.data_version()))
        .collect()
}

fn versions_match(recorded: &HashMap<String, Option<u64>>, bases: &[TableRef]) -> bool {
    bases
        .iter()
        .all(|b| recorded.get(&b.qualified_name()).copied() == Some(b.table.data_version()))
}

fn storage_row_ids(storage: &MemTable) -> HashMap<Row, Vec<u64>> {
    let mut map: HashMap<Row, Vec<u64>> = HashMap::new();
    // One version's rows with their own ids: a direct insert racing two
    // separate reads would pair rows and ids of different states.
    for (id, row) in storage.snapshot().rows_with_ids() {
        map.entry(row).or_default().push(id);
    }
    map
}

/// The registry of maintained views over one catalog. The transaction
/// manager maintains them from inside COMMIT while the commit lock is
/// held: maintenance is atomic with the base delta's publication, so a
/// reader either sees both or neither.
#[derive(Default)]
pub struct IvmRegistry {
    views: RwLock<HashMap<String, Arc<MaintainedView>>>,
    stats: Arc<StatsRegistry>,
    /// The catalog's plan-cache generation: bumped whenever a view
    /// transitions fresh → stale so cached substituted plans re-plan.
    generation: Arc<AtomicU64>,
}

impl IvmRegistry {
    pub fn new(stats: Arc<StatsRegistry>, generation: Arc<AtomicU64>) -> IvmRegistry {
        IvmRegistry {
            views: RwLock::new(HashMap::new()),
            stats,
            generation,
        }
    }

    /// Registers a view under its qualified storage name.
    pub fn register(&self, view: Arc<MaintainedView>) {
        self.views
            .write()
            .insert(view.name.to_ascii_lowercase(), view);
    }

    /// Removes a view; returns whether it existed.
    pub fn unregister(&self, name: &str) -> bool {
        self.views
            .write()
            .remove(&name.to_ascii_lowercase())
            .is_some()
    }

    pub fn get(&self, name: &str) -> Option<Arc<MaintainedView>> {
        self.views.read().get(&name.to_ascii_lowercase()).cloned()
    }

    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// The registered views, as one commit sees them: the tables these
    /// maintain from get a signed delta, and exactly these are maintained.
    pub(crate) fn views(&self) -> Vec<Arc<MaintainedView>> {
        self.views.read().values().cloned().collect()
    }

    /// Maintains one view against one commit's changes: each written
    /// table's qualified name, with its signed row delta if some view
    /// [maintains from](MaintainedView::maintains_from) it. Runs under
    /// the commit lock, after the apply, and cannot fail the commit (it
    /// is durable): a view that cannot keep up marks itself stale.
    pub(crate) fn maintain_view(
        &self,
        view: &MaintainedView,
        changes: &[(String, Option<SignedDelta>)],
    ) {
        let changed_names: Vec<&str> = changes.iter().map(|(n, _)| n.as_str()).collect();
        // A commit writing the view's own storage didn't come from us
        // (maintenance applies deltas directly, not through a
        // transaction): the row-id bag is now untrustworthy.
        if changed_names
            .iter()
            .any(|n| n.eq_ignore_ascii_case(&view.name))
        {
            let was_fresh = view.is_fresh();
            view.mark_broken("materialized view storage was modified directly");
            if was_fresh {
                self.bump();
            }
            return;
        }
        let relevant: Vec<&(String, Option<SignedDelta>)> = changes
            .iter()
            .filter(|(n, _)| {
                view.bases
                    .iter()
                    .any(|b| b.qualified_name().eq_ignore_ascii_case(n))
            })
            .collect();
        if relevant.is_empty() {
            return;
        }
        let mut state = view.state.lock();
        if !view.fresh_modulo_commit(&state, &changed_names) {
            // Already stale before this commit; staying stale needs no
            // generation bump (it happened at the transition).
            return;
        }
        if state.delta.is_none() {
            // Refresh-only view transitioning fresh → stale: the base
            // versions moved with this commit, so `is_fresh` now reports
            // false on its own. Invalidate cached substituted plans.
            self.bump();
            return;
        }
        let mut output: SignedDelta = vec![];
        let mut failure: Option<String> = None;
        for (name, delta) in &relevant {
            let plan = state.delta.as_mut().expect("checked above");
            let delta = delta
                .as_ref()
                .ok_or_else(|| CalciteError::internal("commit carried no delta"));
            match delta.and_then(|delta| plan.propagate(name, delta)) {
                Ok(delta) => output.extend(delta),
                Err(e) => {
                    failure = Some(e.to_string());
                    break;
                }
            }
        }
        if failure.is_none() {
            let had_output = !output.is_empty();
            match view.apply_output(&mut state, output) {
                Ok(applied) => {
                    for (name, _) in &relevant {
                        state
                            .versions
                            .insert(name.clone(), table_version(&view.bases, name));
                    }
                    if had_output || applied > 0 {
                        // Content changed: stored stats no longer
                        // describe it. Retire the *view's* entry only —
                        // base-table stats are untouched by maintenance.
                        self.stats.retire(&view.name);
                    }
                }
                Err(e) => failure = Some(e.to_string()),
            }
        }
        if let Some(reason) = failure {
            state.broken = Some(format!("maintenance failed: {reason}"));
            drop(state);
            self.bump();
        }
    }
}

fn table_version(bases: &[TableRef], name: &str) -> Option<u64> {
    bases
        .iter()
        .find(|b| b.qualified_name().eq_ignore_ascii_case(name))
        .and_then(|b| b.table.data_version())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::rel;
    use crate::txn::signed_delta;
    use crate::types::{RelType, RowTypeBuilder, TypeKind};

    /// Registers `plan` with `catalog` as the maintained view `mv.<name>`,
    /// the way `CREATE MATERIALIZED VIEW` does.
    pub(crate) fn register_maintained(
        catalog: &Catalog,
        name: &str,
        plan: Rel,
    ) -> Arc<MaintainedView> {
        let mut delta = DeltaPlan::compile(&plan).unwrap();
        let storage = MemTable::new(plan.row_type().clone(), delta.init().unwrap());
        let view = MaintainedView::new_maintained("mv", name, storage, plan, delta);
        catalog.ivm().register(Arc::clone(&view));
        view
    }

    fn sales() -> TableRef {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("region", TypeKind::Integer)
                .add_not_null("units", TypeKind::Integer)
                .build(),
            vec![
                vec![Datum::Int(1), Datum::Int(10)],
                vec![Datum::Int(1), Datum::Int(20)],
                vec![Datum::Int(2), Datum::Int(5)],
            ],
        );
        TableRef::new("mart", "sales", t)
    }

    fn agg_plan(base: &TableRef) -> Rel {
        let scan = rel::scan(base.clone());
        let rt = scan.row_type().clone();
        rel::aggregate(
            scan,
            vec![0],
            vec![
                AggCall::count_star("c"),
                AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt),
            ],
        )
    }

    /// Commits `ops` to `base` the way COMMIT does: the signed delta
    /// against the version they replace, then the apply, then the feed.
    fn feed_commit(plan: &mut DeltaPlan, base: &TableRef, ops: &[DeltaOp]) -> SignedDelta {
        let delta = signed_delta(&base.table.txn_snapshot().unwrap(), ops).unwrap();
        base.table.apply_delta(ops).unwrap();
        consolidate(plan.propagate(&base.qualified_name(), &delta).unwrap())
    }

    /// `storage_row_ids` beside a writer that bypasses the transaction
    /// manager: every row is stamped with the id the table will give it,
    /// so a pair read from two different versions shows.
    #[test]
    fn storage_row_ids_pairs_rows_and_ids_of_one_version() {
        let stamped = |ids: std::ops::Range<u64>| -> Vec<Row> {
            ids.map(|id| vec![Datum::Int(id as i64)]).collect()
        };
        let mem = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .build(),
            stamped(0..8),
        );
        let started = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                started.wait();
                let mut next = 8;
                for round in 0..400 {
                    if round % 3 == 0 {
                        // New contents under new ids, fewer rows than before.
                        mem.replace_all(stamped(next..next + 5));
                        next += 5;
                    } else {
                        mem.insert(vec![Datum::Int(next as i64)]);
                        next += 1;
                    }
                }
            });
            started.wait();
            for _ in 0..400 {
                let by_row = storage_row_ids(&mem);
                assert!(by_row.len() >= 5);
                for (row, ids) in by_row {
                    assert_eq!(ids, [row[0].as_int().unwrap() as u64]);
                }
            }
        });
    }

    #[test]
    fn init_matches_full_aggregate() {
        let base = sales();
        let mut plan = DeltaPlan::compile(&agg_plan(&base)).unwrap();
        let mut rows = plan.init().unwrap();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Datum::Int(1), Datum::Int(2), Datum::Int(30)],
                vec![Datum::Int(2), Datum::Int(1), Datum::Int(5)],
            ]
        );
    }

    #[test]
    fn insert_update_delete_maintain_groups() {
        let base = sales();
        let mut plan = DeltaPlan::compile(&agg_plan(&base)).unwrap();
        plan.init().unwrap();

        // Insert into group 2.
        let d = feed_commit(
            &mut plan,
            &base,
            &[DeltaOp::Insert {
                row_id: 3,
                row: vec![Datum::Int(2), Datum::Int(7)],
            }],
        );
        assert_eq!(
            d,
            vec![
                (vec![Datum::Int(2), Datum::Int(1), Datum::Int(5)], -1),
                (vec![Datum::Int(2), Datum::Int(2), Datum::Int(12)], 1),
            ]
        );

        // Update moves a row from group 1 to group 2.
        let d = feed_commit(
            &mut plan,
            &base,
            &[DeltaOp::Update {
                row_id: 0,
                row: vec![Datum::Int(2), Datum::Int(10)],
            }],
        );
        let as_map: HashMap<Row, i64> = d.into_iter().collect();
        assert_eq!(
            as_map[&vec![Datum::Int(1), Datum::Int(1), Datum::Int(20)]],
            1
        );
        assert_eq!(
            as_map[&vec![Datum::Int(2), Datum::Int(3), Datum::Int(22)]],
            1
        );

        // Deleting the last row of a group retracts the group entirely.
        let d = feed_commit(&mut plan, &base, &[DeltaOp::Delete { row_id: 1 }]);
        assert_eq!(
            d,
            vec![(vec![Datum::Int(1), Datum::Int(1), Datum::Int(20)], -1)]
        );
    }

    #[test]
    fn global_aggregate_group_is_never_retracted() {
        let base = sales();
        let scan = rel::scan(base.clone());
        let plan = rel::aggregate(scan, vec![], vec![AggCall::count_star("c")]);
        let mut dp = DeltaPlan::compile(&plan).unwrap();
        assert_eq!(dp.init().unwrap(), vec![vec![Datum::Int(3)]]);
        let d = feed_commit(
            &mut dp,
            &base,
            &[
                DeltaOp::Delete { row_id: 0 },
                DeltaOp::Delete { row_id: 1 },
                DeltaOp::Delete { row_id: 2 },
            ],
        );
        // COUNT drops to zero but the row stays (as the executor does).
        assert_eq!(d, vec![(vec![Datum::Int(3)], -1), (vec![Datum::Int(0)], 1)]);
    }

    #[test]
    fn min_retraction_reveals_runner_up() {
        let base = sales();
        let scan = rel::scan(base.clone());
        let rt = scan.row_type().clone();
        let plan = rel::aggregate(
            scan,
            vec![],
            vec![AggCall::new(AggFunc::Min, vec![1], false, "m", &rt)],
        );
        let mut dp = DeltaPlan::compile(&plan).unwrap();
        assert_eq!(dp.init().unwrap(), vec![vec![Datum::Int(5)]]);
        let d = feed_commit(&mut dp, &base, &[DeltaOp::Delete { row_id: 2 }]);
        assert_eq!(
            d,
            vec![(vec![Datum::Int(5)], -1), (vec![Datum::Int(10)], 1)]
        );
    }

    #[test]
    fn join_delta_probes_other_side() {
        let left = sales();
        let right = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add_not_null("name", TypeKind::Integer)
                .build(),
            vec![
                vec![Datum::Int(1), Datum::Int(100)],
                vec![Datum::Int(2), Datum::Int(200)],
            ],
        );
        let rref = TableRef::new("mart", "regions", right);
        let int = RelType::not_null(TypeKind::Integer);
        let cond = RexNode::input(0, int.clone()).eq(RexNode::input(2, int));
        let plan = rel::join(
            rel::scan(left.clone()),
            rel::scan(rref.clone()),
            JoinKind::Inner,
            cond,
        );
        let mut dp = DeltaPlan::compile(&plan).unwrap();
        assert_eq!(dp.init().unwrap().len(), 3);
        // New sale in region 2 joins the one matching region row.
        let d = feed_commit(
            &mut dp,
            &left,
            &[DeltaOp::Insert {
                row_id: 3,
                row: vec![Datum::Int(2), Datum::Int(9)],
            }],
        );
        assert_eq!(
            d,
            vec![(
                vec![Datum::Int(2), Datum::Int(9), Datum::Int(2), Datum::Int(200)],
                1
            )]
        );
        // Deleting a region retracts its joined sales.
        let d = feed_commit(&mut dp, &rref, &[DeltaOp::Delete { row_id: 0 }]);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|(_, w)| *w == -1));
    }

    #[test]
    fn unsupported_shapes_are_rejected_with_reason() {
        let base = sales();
        let scan = rel::scan(base.clone());
        let rt = scan.row_type().clone();
        let distinct = rel::aggregate(
            scan.clone(),
            vec![],
            vec![AggCall::new(AggFunc::Count, vec![1], true, "c", &rt)],
        );
        assert!(DeltaPlan::compile(&distinct)
            .unwrap_err()
            .to_string()
            .contains("DISTINCT"));
        let outer = rel::join(
            scan.clone(),
            rel::scan(base),
            JoinKind::Left,
            RexNode::true_lit(),
        );
        assert!(DeltaPlan::compile(&outer)
            .unwrap_err()
            .to_string()
            .contains("inner"));
        let limited = rel::sort_limit(scan, vec![], None, Some(1));
        assert!(DeltaPlan::compile(&limited)
            .unwrap_err()
            .to_string()
            .contains("OFFSET/FETCH"));
    }

    #[test]
    fn sum_over_double_is_refresh_only() {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("k", TypeKind::Integer)
                .add_not_null("v", TypeKind::Double)
                .build(),
            vec![],
        );
        let scan = rel::scan(TableRef::new("s", "t", t));
        let rt = scan.row_type().clone();
        let plan = rel::aggregate(
            scan,
            vec![0],
            vec![AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt)],
        );
        assert!(DeltaPlan::compile(&plan)
            .unwrap_err()
            .to_string()
            .contains("INTEGER"));
    }

    #[test]
    fn consolidate_cancels_and_orders() {
        let a = vec![Datum::Int(1)];
        let b = vec![Datum::Int(2)];
        let out = consolidate(vec![
            (a.clone(), 1),
            (b.clone(), 2),
            (a.clone(), -1),
            (b.clone(), -1),
        ]);
        assert_eq!(out, vec![(b, 1)]);
    }

    /// One explicit transaction touching ids repeatedly — a new row
    /// inserted, updated and deleted again, a base row updated twice,
    /// another updated and then deleted — commits as its net effect, and
    /// a grouped, a global and a self-join view each end equal to a
    /// recompute.
    #[test]
    fn a_commit_touching_ids_repeatedly_keeps_every_view_equal_to_recompute() {
        let catalog = Catalog::new();
        let row = |id: i64, k: i64, v: i64| vec![Datum::Int(id), Datum::Int(k), Datum::Int(v)];
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add_not_null("k", TypeKind::Integer)
                .add_not_null("v", TypeKind::Integer)
                .build(),
            (0..6).map(|i| row(i, i % 3, 10 * i)).collect(),
        );
        let base = TableRef::new("s", "t", t.clone());
        let scan = || rel::scan(base.clone());
        let rt = scan().row_type().clone();
        let sum = AggCall::new(AggFunc::Sum, vec![2], false, "s", &rt);
        let min = AggCall::new(AggFunc::Min, vec![2], false, "m", &rt);
        let int = RelType::not_null(TypeKind::Integer);
        let same_k = RexNode::input(1, int.clone()).eq(RexNode::input(4, int));
        let views = [
            rel::aggregate(scan(), vec![1], vec![AggCall::count_star("c"), sum.clone()]),
            rel::aggregate(scan(), vec![], vec![AggCall::count_star("c"), sum, min]),
            rel::join(scan(), scan(), JoinKind::Inner, same_k),
        ];
        let views = ["by_k", "total", "pairs"]
            .into_iter()
            .zip(views)
            .map(|(name, plan)| register_maintained(&catalog, name, plan))
            .collect::<Vec<_>>();

        let fresh = t.reserve_row_ids(1).unwrap();
        let mut txn = catalog.txns().begin(std::slice::from_ref(&base));
        for op in [
            DeltaOp::Insert {
                row_id: fresh,
                row: row(6, 0, 60),
            },
            DeltaOp::Update {
                row_id: 1,
                row: row(1, 2, 11),
            },
            DeltaOp::Update {
                row_id: fresh,
                row: row(6, 1, 61),
            },
            DeltaOp::Update {
                row_id: 2,
                row: row(2, 0, 22),
            },
            DeltaOp::Delete { row_id: fresh },
            DeltaOp::Update {
                row_id: 1,
                row: row(1, 0, 12),
            },
            DeltaOp::Delete { row_id: 2 },
        ] {
            txn.stage("s.t", vec![op]).unwrap();
        }
        txn.commit().unwrap();

        let sorted = |mut rows: Vec<Row>| {
            rows.sort();
            rows
        };
        for view in &views {
            assert!(view.is_fresh(), "{}: {:?}", view.name, view.staleness());
            let recomputed = DeltaPlan::compile(&view.plan).unwrap().init().unwrap();
            assert_eq!(
                sorted(view.storage.rows()),
                sorted(recomputed),
                "{}",
                view.name
            );
        }
        // Live rows (0,0,0) (1,0,12) (3,0,30) (4,1,40) (5,2,50).
        assert_eq!(
            views[1].storage.rows(),
            vec![vec![Datum::Int(5), Datum::Int(132), Datum::Int(0)]]
        );
    }
}
