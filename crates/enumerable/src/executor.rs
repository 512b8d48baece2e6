//! The enumerable executor: "relational operators with the enumerable
//! calling convention simply operate over tuples via an iterator
//! interface" (paper §5). [`EnumerableExecutor`] is the one engine a
//! `Connection` runs: the batch engine in [`crate::batch`].
//!
//! This module also holds the row engine, which implements every
//! operator of the algebra — including `EnumerableJoin`, "which
//! implements joins by collecting rows from its child nodes and joining
//! on the desired attributes" — row at a time. It is the batch engine's
//! semantic reference, and tests and benches reach it only through
//! [`crate::register_executors`]. In production it runs one node at a
//! time: an operator without a batch kernel (Window, IndexSeek,
//! IndexJoin) runs through `execute_node` behind the batch engine's
//! row bridge, on inputs the batch engine built and drained, so every
//! node below it keeps its budget, spill and exchanges.

use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::exec::{BatchOp, ConventionExecutor, ExecContext, RowIter, RowsOp};
use rcalcite_core::index::{seek_rows, BoundProbe, IndexProbe, RowsRef};
use rcalcite_core::rel::{
    AggCall, AggFunc, FrameBound, FrameMode, JoinKind, Rel, RelOp, WinFunc, WindowFn,
};
use rcalcite_core::rex::{Op, RexNode};
use rcalcite_core::traits::{Collation, Convention, FieldCollation};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// The enumerable convention's executor: the vectorized batch engine of
/// [`crate::batch`], with its Scan→Filter→Project fusion and the
/// exchanges and spill paths the context asks for. `new` serves the
/// enumerable convention; `interpreter` the logical one, so unoptimized
/// plans run on the same engine. It is what a `Connection` registers.
pub struct EnumerableExecutor {
    convention: Convention,
}

impl EnumerableExecutor {
    /// The batch engine for the enumerable convention.
    pub fn new() -> EnumerableExecutor {
        EnumerableExecutor {
            convention: Convention::enumerable(),
        }
    }

    /// The batch engine registered for the *logical* convention:
    /// executes unoptimized plans.
    pub fn interpreter() -> EnumerableExecutor {
        EnumerableExecutor {
            convention: Convention::none(),
        }
    }
}

impl Default for EnumerableExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl ConventionExecutor for EnumerableExecutor {
    fn convention(&self) -> Convention {
        self.convention.clone()
    }

    fn execute(&self, rel: &Rel, ctx: &ExecContext) -> Result<BatchOp> {
        crate::batch::execute_batches(rel, ctx)
    }
}

/// The row engine, registered for one convention by
/// [`crate::register_executors`] only: the oracle the batch engine is
/// tested against.
pub(crate) struct RowOracle(pub(crate) Convention);

impl ConventionExecutor for RowOracle {
    fn convention(&self) -> Convention {
        self.0.clone()
    }

    fn execute(&self, rel: &Rel, ctx: &ExecContext) -> Result<BatchOp> {
        Ok(Box::new(RowsOp::new(
            run_rows(rel, ctx)?,
            rel.row_type().kinds(),
        )))
    }
}

/// Runs `rel` and every same-convention input below it on rows; a
/// foreign input's stream, through the context, is drained into rows.
fn run_rows(rel: &Rel, ctx: &ExecContext) -> Result<RowIter> {
    execute_node(rel, ctx, &|i| {
        let c = rel.input(i);
        if c.convention == rel.convention || matches!(c.op, RelOp::Convert { .. }) {
            run_rows(c, ctx)
        } else {
            Ok(Box::new(ctx.execute_collect(c)?.into_iter()))
        }
    })
}

/// Runs one node on rows, taking input `i`'s rows from `child(i)`: the
/// row engine passes its own recursion, the batch engine's row bridge
/// its batch inputs drained.
pub(crate) fn execute_node(
    rel: &Rel,
    ctx: &ExecContext,
    child: &dyn Fn(usize) -> Result<RowIter>,
) -> Result<RowIter> {
    match &rel.op {
        RelOp::Scan { table } => table.table.scan(),
        RelOp::IndexSeek {
            table,
            index,
            seek,
            projection,
        } => {
            let probes = seek.bind(|e| ctx.bind(e)?.eval(&[]))?;
            let rows: RowIter = match table.table.index_probe_snapshot(&index.name)? {
                // Matching rows in table order, deduped across probes: the
                // rows, in the order, a filtered full scan would produce.
                Some(snap) => Box::new(seek_rows(&*snap, &probes).into_iter()),
                None => {
                    // The index was dropped after this plan was cached:
                    // degrade to a full scan filtered by the probe
                    // predicate (same rows, same order).
                    let def = index.clone();
                    let arity = table.table.row_type().arity();
                    Box::new(table.table.scan()?.filter(move |row| {
                        let acc = RowsRef {
                            rows: std::slice::from_ref(row),
                            arity,
                        };
                        probes.iter().any(|p| p.matches(&acc, 0, &def))
                    }))
                }
            };
            match projection {
                None => Ok(rows),
                Some(cols) => {
                    let cols = cols.clone();
                    Ok(Box::new(rows.map(move |row| {
                        cols.iter().map(|c| row[*c].clone()).collect()
                    })))
                }
            }
        }
        RelOp::IndexJoin {
            kind,
            condition,
            table,
            index,
            left_keys,
        } => {
            let condition = ctx.bind(condition)?;
            let left: Vec<Row> = child(0)?.collect();
            let left_arity = rel.input(0).row_type().arity();
            let right_arity = table.table.row_type().arity();
            match table.table.index_probe_snapshot(&index.name)? {
                Some(snap) => {
                    execute_index_join(left, &*snap, right_arity, *kind, &condition, left_keys)
                }
                None => {
                    // Dropped index: fall back to the hash join this
                    // operator was the alternative to.
                    let right: Vec<Row> = table.table.scan()?.collect();
                    execute_join(left, right, left_arity, right_arity, *kind, &condition)
                }
            }
        }
        RelOp::Values { tuples, .. } => Ok(Box::new(tuples.clone().into_iter())),
        RelOp::Filter { condition } => {
            // Dynamic parameters resolve against the context's bindings,
            // so one compiled plan serves every execution of a prepared
            // statement.
            let cond = ctx.bind(condition)?;
            let input = child(0)?;
            Ok(Box::new(input.filter(move |row| {
                matches!(cond.eval(row), Ok(Datum::Bool(true)))
            })))
        }
        RelOp::Project { exprs, .. } => {
            let exprs: Vec<RexNode> = exprs.iter().map(|e| ctx.bind(e)).collect::<Result<_>>()?;
            let input = child(0)?;
            let mut out = Vec::new();
            for row in input {
                let mut r = Vec::with_capacity(exprs.len());
                for e in &exprs {
                    r.push(e.eval(&row)?);
                }
                out.push(r);
            }
            Ok(Box::new(out.into_iter()))
        }
        RelOp::Join { kind, condition } => {
            let condition = ctx.bind(condition)?;
            let left: Vec<Row> = child(0)?.collect();
            let right: Vec<Row> = child(1)?.collect();
            let left_arity = rel.input(0).row_type().arity();
            let right_arity = rel.input(1).row_type().arity();
            execute_join(left, right, left_arity, right_arity, *kind, &condition)
        }
        RelOp::Aggregate { group, aggs } => {
            let input: Vec<Row> = child(0)?.collect();
            execute_aggregate(input, group, aggs)
        }
        RelOp::Sort {
            collation,
            offset,
            fetch,
        } => {
            let mut rows: Vec<Row> = child(0)?.collect();
            if !collation.is_empty() {
                let coll = collation.clone();
                rows.sort_by(|a, b| compare_rows(a, b, &coll));
            }
            let start = offset.unwrap_or(0).min(rows.len());
            let end = match fetch {
                Some(f) => (start + f).min(rows.len()),
                None => rows.len(),
            };
            Ok(Box::new(
                rows.drain(start..end).collect::<Vec<_>>().into_iter(),
            ))
        }
        RelOp::Window { functions } => {
            let input: Vec<Row> = child(0)?.collect();
            execute_window(input, functions)
        }
        RelOp::Union { all } => {
            let mut rows: Vec<Row> = vec![];
            for i in 0..rel.inputs.len() {
                rows.extend(child(i)?);
            }
            if !*all {
                rows = dedup_rows(rows);
            }
            Ok(Box::new(rows.into_iter()))
        }
        RelOp::Intersect { all } => {
            let left: Vec<Row> = child(0)?.collect();
            let mut counts: HashMap<Row, usize> = HashMap::new();
            for i in 1..rel.inputs.len() {
                let side: Vec<Row> = child(i)?.collect();
                let mut c: HashMap<Row, usize> = HashMap::new();
                for r in side {
                    *c.entry(r).or_default() += 1;
                }
                if i == 1 {
                    counts = c;
                } else {
                    counts.retain(|k, v| {
                        if let Some(n) = c.get(k) {
                            *v = (*v).min(*n);
                            true
                        } else {
                            false
                        }
                    });
                }
            }
            let mut out = vec![];
            let mut seen: HashMap<Row, usize> = HashMap::new();
            for r in left {
                if let Some(max) = counts.get(&r) {
                    let used = seen.entry(r.clone()).or_default();
                    let limit = if *all { *max } else { 1 };
                    if *used < limit {
                        *used += 1;
                        out.push(r);
                    }
                }
            }
            Ok(Box::new(out.into_iter()))
        }
        RelOp::Minus { all } => {
            let left: Vec<Row> = child(0)?.collect();
            let mut removed: HashMap<Row, usize> = HashMap::new();
            for i in 1..rel.inputs.len() {
                for r in child(i)? {
                    *removed.entry(r).or_default() += 1;
                }
            }
            let mut out = vec![];
            let mut emitted: HashSet<Row> = HashSet::new();
            for r in left {
                match removed.get_mut(&r) {
                    Some(n) if *n > 0 => {
                        if *all {
                            *n -= 1;
                        }
                        // In DISTINCT mode any presence in the right side
                        // removes the row entirely.
                    }
                    _ => {
                        if *all || emitted.insert(r.clone()) {
                            out.push(r);
                        }
                    }
                }
            }
            Ok(Box::new(out.into_iter()))
        }
        // A stream's delta is its rows in arrival order: the identity.
        // This row oracle reads streams to their end; the batch engine
        // flushes an aggregate's windows as its ascending key moves on.
        // A Convert's input is the foreign subtree, which `child` routes.
        RelOp::Delta | RelOp::Convert { .. } => child(0),
    }
}

/// Comparison of two datums under one collation key — the single source
/// of truth for sort semantics (NULL placement included). Both the
/// row-path `compare_rows` and the batch sort kernel route through this,
/// so the two executors cannot disagree on ordering.
pub fn compare_datums(fc: &FieldCollation, x: &Datum, y: &Datum) -> Ordering {
    compare_nullable(fc, x.is_null(), y.is_null(), || x.cmp(y))
}

/// [`compare_datums`] with the values abstracted away: NULL placement
/// from the two null flags, otherwise `cmp` (the ascending order of the
/// two non-null values) reversed when the key is descending. The batch
/// sort kernel calls this over typed column slices.
pub(crate) fn compare_nullable(
    fc: &FieldCollation,
    x_null: bool,
    y_null: bool,
    cmp: impl FnOnce() -> Ordering,
) -> Ordering {
    match (x_null, y_null) {
        (true, true) => Ordering::Equal,
        (true, false) => {
            if fc.nulls_first {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        (false, true) => {
            if fc.nulls_first {
                Ordering::Greater
            } else {
                Ordering::Less
            }
        }
        (false, false) => {
            let o = cmp();
            if fc.descending {
                o.reverse()
            } else {
                o
            }
        }
    }
}

/// Total-order comparison of two rows under a collation.
pub fn compare_rows(a: &Row, b: &Row, collation: &Collation) -> Ordering {
    for fc in collation {
        let ord = compare_datums(fc, &a[fc.field], &b[fc.field]);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

pub(crate) fn dedup_rows(rows: Vec<Row>) -> Vec<Row> {
    let mut seen = HashSet::new();
    rows.into_iter()
        .filter(|r| seen.insert(r.clone()))
        .collect()
}

/// Index-nested-loop join: probes the right table's index with each left
/// row's key values, then evaluates the full join condition on every
/// candidate. Byte-identical to [`execute_join`] for the supported kinds:
/// candidates come back in right-table position order (same as the hash
/// table built in position order), NULL keys never probe, and the
/// condition itself decides the final match set.
pub(crate) fn execute_index_join(
    left: Vec<Row>,
    snap: &dyn IndexProbe,
    right_arity: usize,
    kind: JoinKind,
    condition: &RexNode,
    left_keys: &[usize],
) -> Result<RowIter> {
    let mut out: Vec<Row> = vec![];
    for l in &left {
        let key: Vec<Datum> = left_keys.iter().map(|k| l[*k].clone()).collect();
        let candidates = if key.iter().any(Datum::is_null) {
            vec![] // NULL keys never join
        } else {
            snap.positions(&BoundProbe::point(key))
        };
        let mut matched: Vec<Row> = vec![];
        for pos in candidates {
            let mut combined = l.clone();
            combined.extend(snap.row(pos));
            if matches!(condition.eval(&combined)?, Datum::Bool(true)) {
                matched.push(combined);
            }
        }
        match kind {
            JoinKind::Inner | JoinKind::Left => {
                let unmatched = matched.is_empty();
                out.extend(matched);
                if unmatched && kind == JoinKind::Left {
                    let mut row = l.clone();
                    row.extend(std::iter::repeat_n(Datum::Null, right_arity));
                    out.push(row);
                }
            }
            JoinKind::Semi => {
                if !matched.is_empty() {
                    out.push(l.clone());
                }
            }
            JoinKind::Anti => {
                if matched.is_empty() {
                    out.push(l.clone());
                }
            }
            JoinKind::Right | JoinKind::Full => {
                return Err(CalciteError::internal(
                    "index join does not support right/full outer joins",
                ));
            }
        }
    }
    Ok(Box::new(out.into_iter()))
}

pub(crate) fn extract_equi_keys(
    condition: &RexNode,
    left_arity: usize,
) -> (Vec<usize>, Vec<usize>, Vec<RexNode>) {
    let mut lk = vec![];
    let mut rk = vec![];
    let mut residual = vec![];
    for c in condition.conjuncts() {
        if let RexNode::Call {
            op: Op::Eq, args, ..
        } = &c
        {
            if let (Some(a), Some(b)) = (args[0].as_input_ref(), args[1].as_input_ref()) {
                if a < left_arity && b >= left_arity {
                    lk.push(a);
                    rk.push(b - left_arity);
                    continue;
                }
                if b < left_arity && a >= left_arity {
                    lk.push(b);
                    rk.push(a - left_arity);
                    continue;
                }
            }
        }
        residual.push(c);
    }
    (lk, rk, residual)
}

pub(crate) fn execute_join(
    left: Vec<Row>,
    right: Vec<Row>,
    _left_arity: usize,
    right_arity: usize,
    kind: JoinKind,
    condition: &RexNode,
) -> Result<RowIter> {
    let left_arity = _left_arity;
    let (lk, rk, residual) = extract_equi_keys(condition, left_arity);
    let residual = RexNode::and_all(residual);

    // Build a hash table on the right side (equi keys) or fall back to
    // nested loops.
    type ProbeFn = Box<dyn Fn(&Row) -> Vec<usize>>;
    let probe_matches: ProbeFn = if lk.is_empty() {
        let n = right.len();
        Box::new(move |_l: &Row| (0..n).collect())
    } else {
        let mut table: HashMap<Vec<Datum>, Vec<usize>> = HashMap::new();
        for (i, r) in right.iter().enumerate() {
            let key: Vec<Datum> = rk.iter().map(|k| r[*k].clone()).collect();
            if key.iter().any(Datum::is_null) {
                continue; // NULL keys never join
            }
            table.entry(key).or_default().push(i);
        }
        let lk = lk.clone();
        Box::new(move |l: &Row| {
            let key: Vec<Datum> = lk.iter().map(|k| l[*k].clone()).collect();
            if key.iter().any(Datum::is_null) {
                return vec![];
            }
            table.get(&key).cloned().unwrap_or_default()
        })
    };

    let combined_matches = |l: &Row| -> Result<Vec<usize>> {
        let mut out = vec![];
        for ri in probe_matches(l) {
            let mut combined = l.clone();
            combined.extend(right[ri].iter().cloned());
            if residual.is_always_true() || matches!(residual.eval(&combined)?, Datum::Bool(true)) {
                out.push(ri);
            }
        }
        Ok(out)
    };

    let mut out: Vec<Row> = vec![];
    let mut right_matched = vec![false; right.len()];
    for l in &left {
        let matches = combined_matches(l)?;
        match kind {
            JoinKind::Inner | JoinKind::Left | JoinKind::Right | JoinKind::Full => {
                for ri in &matches {
                    right_matched[*ri] = true;
                    let mut row = l.clone();
                    row.extend(right[*ri].iter().cloned());
                    out.push(row);
                }
                if matches.is_empty() && matches!(kind, JoinKind::Left | JoinKind::Full) {
                    let mut row = l.clone();
                    row.extend(std::iter::repeat_n(Datum::Null, right_arity));
                    out.push(row);
                }
            }
            JoinKind::Semi => {
                if !matches.is_empty() {
                    out.push(l.clone());
                }
            }
            JoinKind::Anti => {
                if matches.is_empty() {
                    out.push(l.clone());
                }
            }
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, matched) in right_matched.iter().enumerate() {
            if !matched {
                let mut row: Row = std::iter::repeat_n(Datum::Null, left_arity).collect();
                row.extend(right[ri].iter().cloned());
                out.push(row);
            }
        }
    }
    Ok(Box::new(out.into_iter()))
}

/// Accumulator for one aggregate call. Shared by the row executor, the
/// window evaluator, and the batch aggregate kernel so NULL handling and
/// overflow behavior are identical everywhere.
#[derive(Clone)]
pub(crate) enum Acc {
    Count(i64),
    Sum(Option<Datum>),
    Min(Option<Datum>),
    Max(Option<Datum>),
    Avg { sum: f64, count: i64 },
}

impl Acc {
    pub(crate) fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, count: 0 },
        }
    }

    pub(crate) fn add(&mut self, v: Option<&Datum>) -> Result<()> {
        match self {
            Acc::Count(n) => {
                // COUNT(*) counts every row (v = None); COUNT(x) skips
                // NULLs.
                match v {
                    None => *n += 1,
                    Some(d) if !d.is_null() => *n += 1,
                    _ => {}
                }
            }
            Acc::Sum(state) => {
                if let Some(d) = v {
                    if !d.is_null() {
                        *state = Some(match state.take() {
                            None => d.clone(),
                            Some(prev) => add_datums(&prev, d)?,
                        });
                    }
                }
            }
            Acc::Min(state) => {
                if let Some(d) = v {
                    if !d.is_null() {
                        *state = Some(match state.take() {
                            None => d.clone(),
                            Some(prev) => {
                                if d < &prev {
                                    d.clone()
                                } else {
                                    prev
                                }
                            }
                        });
                    }
                }
            }
            Acc::Max(state) => {
                if let Some(d) = v {
                    if !d.is_null() {
                        *state = Some(match state.take() {
                            None => d.clone(),
                            Some(prev) => {
                                if d > &prev {
                                    d.clone()
                                } else {
                                    prev
                                }
                            }
                        });
                    }
                }
            }
            Acc::Avg { sum, count } => {
                if let Some(d) = v {
                    if let Some(x) = d.as_double() {
                        *sum += x;
                        *count += 1;
                    }
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Datum {
        match self {
            Acc::Count(n) => Datum::Int(n),
            Acc::Sum(s) | Acc::Min(s) | Acc::Max(s) => s.unwrap_or(Datum::Null),
            Acc::Avg { sum, count } => {
                if count == 0 {
                    Datum::Null
                } else {
                    Datum::Double(sum / count as f64)
                }
            }
        }
    }

    /// Folds another accumulator's state into this one — the merge step
    /// of partial (per-worker) aggregation. Only same-function pairs are
    /// merged; the batch planner guarantees that by construction.
    pub(crate) fn merge(&mut self, other: Acc) -> Result<()> {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::Sum(a), Acc::Sum(b)) => {
                if let Some(d) = b {
                    *a = Some(match a.take() {
                        None => d,
                        Some(prev) => add_datums(&prev, &d)?,
                    });
                }
            }
            (Acc::Min(a), Acc::Min(b)) => {
                if let Some(d) = b {
                    *a = Some(match a.take() {
                        None => d,
                        Some(prev) => {
                            if d < prev {
                                d
                            } else {
                                prev
                            }
                        }
                    });
                }
            }
            (Acc::Max(a), Acc::Max(b)) => {
                if let Some(d) = b {
                    *a = Some(match a.take() {
                        None => d,
                        Some(prev) => {
                            if d > prev {
                                d
                            } else {
                                prev
                            }
                        }
                    });
                }
            }
            (Acc::Avg { sum, count }, Acc::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            _ => {
                return Err(CalciteError::internal(
                    "mismatched accumulators in partial-aggregate merge",
                ))
            }
        }
        Ok(())
    }
}

pub(crate) fn add_datums(a: &Datum, b: &Datum) -> Result<Datum> {
    match (a, b) {
        (Datum::Int(x), Datum::Int(y)) => x
            .checked_add(*y)
            .map(Datum::Int)
            .ok_or_else(|| CalciteError::execution("integer overflow in SUM")),
        _ => {
            let x = a
                .as_double()
                .ok_or_else(|| CalciteError::execution("SUM over non-numeric value"))?;
            let y = b
                .as_double()
                .ok_or_else(|| CalciteError::execution("SUM over non-numeric value"))?;
            Ok(Datum::Double(x + y))
        }
    }
}

pub(crate) fn execute_aggregate(
    input: Vec<Row>,
    group: &[usize],
    aggs: &[AggCall],
) -> Result<RowIter> {
    // Group rows: key, one accumulator per agg, one distinct-set per agg.
    type GroupState = (Vec<Datum>, Vec<Acc>, Vec<HashSet<Vec<Datum>>>);
    let mut groups: Vec<GroupState> = vec![];
    let mut index: HashMap<Vec<Datum>, usize> = HashMap::new();

    let make_accs = || -> (Vec<Acc>, Vec<HashSet<Vec<Datum>>>) {
        (
            aggs.iter().map(|a| Acc::new(a.func)).collect(),
            aggs.iter().map(|_| HashSet::new()).collect(),
        )
    };

    if group.is_empty() {
        let (accs, seen) = make_accs();
        groups.push((vec![], accs, seen));
        index.insert(vec![], 0);
    }

    for row in &input {
        let key: Vec<Datum> = group.iter().map(|g| row[*g].clone()).collect();
        let gi = match index.get(&key) {
            Some(i) => *i,
            None => {
                let (accs, seen) = make_accs();
                groups.push((key.clone(), accs, seen));
                index.insert(key, groups.len() - 1);
                groups.len() - 1
            }
        };
        let (_, accs, seen) = &mut groups[gi];
        for (ai, a) in aggs.iter().enumerate() {
            let arg: Option<Datum> = a.args.first().map(|i| row[*i].clone());
            if a.distinct {
                let key: Vec<Datum> = a.args.iter().map(|i| row[*i].clone()).collect();
                if key.iter().any(Datum::is_null) || !seen[ai].insert(key) {
                    continue;
                }
            }
            accs[ai].add(arg.as_ref())?;
        }
    }

    let mut out = Vec::with_capacity(groups.len());
    for (key, accs, _) in groups {
        let mut row = key;
        for acc in accs {
            row.push(acc.finish());
        }
        out.push(row);
    }
    Ok(Box::new(out.into_iter()))
}

fn execute_window(input: Vec<Row>, functions: &[WindowFn]) -> Result<RowIter> {
    let n = input.len();
    // Results per function, indexed by original row position.
    let mut results: Vec<Vec<Datum>> = vec![vec![Datum::Null; n]; functions.len()];

    for (fi, wf) in functions.iter().enumerate() {
        // Partition row indexes.
        let mut parts: HashMap<Vec<Datum>, Vec<usize>> = HashMap::new();
        for (i, row) in input.iter().enumerate() {
            let key: Vec<Datum> = wf.partition.iter().map(|p| row[*p].clone()).collect();
            parts.entry(key).or_default().push(i);
        }
        for (_, mut idxs) in parts {
            if !wf.order.is_empty() {
                let order = wf.order.clone();
                idxs.sort_by(|a, b| compare_rows(&input[*a], &input[*b], &order));
            }
            for (pos, &ri) in idxs.iter().enumerate() {
                let (lo, hi) = frame_bounds(&input, &idxs, pos, wf)?;
                match wf.func {
                    WinFunc::RowNumber => {
                        results[fi][ri] = Datum::Int(pos as i64 + 1);
                    }
                    WinFunc::Rank => {
                        // Rank: 1 + number of preceding rows strictly less.
                        let mut rank = 1;
                        for p in 0..pos {
                            if compare_rows(&input[idxs[p]], &input[ri], &wf.order)
                                == Ordering::Less
                            {
                                rank = p as i64 + 2;
                            }
                        }
                        results[fi][ri] = Datum::Int(rank);
                    }
                    WinFunc::Agg(func) => {
                        let mut acc = Acc::new(func);
                        for p in lo..=hi {
                            let row = &input[idxs[p]];
                            let arg: Option<Datum> = wf.args.first().map(|i| row[*i].clone());
                            acc.add(arg.as_ref())?;
                        }
                        results[fi][ri] = acc.finish();
                    }
                }
            }
        }
    }

    let mut out = Vec::with_capacity(n);
    for (i, mut row) in input.into_iter().enumerate() {
        for r in results.iter() {
            row.push(r[i].clone());
        }
        out.push(row);
    }
    Ok(Box::new(out.into_iter()))
}

/// Computes the inclusive frame [lo, hi] (positions within the sorted
/// partition) for the row at `pos`.
fn frame_bounds(
    input: &[Row],
    idxs: &[usize],
    pos: usize,
    wf: &WindowFn,
) -> Result<(usize, usize)> {
    let last = idxs.len() - 1;
    match wf.frame.mode {
        FrameMode::Rows => {
            let lo = match wf.frame.lower {
                FrameBound::UnboundedPreceding => 0,
                FrameBound::Preceding(k) => pos.saturating_sub(k as usize),
                FrameBound::CurrentRow => pos,
                FrameBound::Following(k) => (pos + k as usize).min(last),
                FrameBound::UnboundedFollowing => last,
            };
            let hi = match wf.frame.upper {
                FrameBound::UnboundedPreceding => 0,
                FrameBound::Preceding(k) => pos.saturating_sub(k as usize),
                FrameBound::CurrentRow => pos,
                FrameBound::Following(k) => (pos + k as usize).min(last),
                FrameBound::UnboundedFollowing => last,
            };
            Ok((lo, hi.max(lo)))
        }
        FrameMode::Range => {
            // RANGE frames measure distance on the first ordering key.
            let key_col =
                wf.order.first().map(|fc| fc.field).ok_or_else(|| {
                    CalciteError::execution("RANGE frame requires an ORDER BY key")
                })?;
            let cur = input[idxs[pos]][key_col]
                .as_millis()
                .or_else(|| input[idxs[pos]][key_col].as_int());
            let Some(cur) = cur else {
                return Ok((pos, pos));
            };
            let value_at = |p: usize| -> i64 {
                input[idxs[p]][key_col]
                    .as_millis()
                    .or_else(|| input[idxs[p]][key_col].as_int())
                    .unwrap_or(cur)
            };
            let lo_limit = match wf.frame.lower {
                FrameBound::UnboundedPreceding => i64::MIN,
                FrameBound::Preceding(k) => cur - k,
                FrameBound::CurrentRow => cur,
                FrameBound::Following(k) => cur + k,
                FrameBound::UnboundedFollowing => i64::MAX,
            };
            let hi_limit = match wf.frame.upper {
                FrameBound::UnboundedPreceding => i64::MIN,
                FrameBound::Preceding(k) => cur - k,
                FrameBound::CurrentRow => cur,
                FrameBound::Following(k) => cur + k,
                FrameBound::UnboundedFollowing => i64::MAX,
            };
            let mut lo = pos;
            while lo > 0 && value_at(lo - 1) >= lo_limit {
                lo -= 1;
            }
            let mut hi = pos;
            while hi < last && value_at(hi + 1) <= hi_limit {
                hi += 1;
            }
            Ok((lo, hi))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcalcite_core::catalog::{MemTable, TableRef};
    use rcalcite_core::rel::{self, WindowFrame};
    use rcalcite_core::types::{RelType, RowTypeBuilder, TypeKind};

    fn int_ty() -> RelType {
        RelType::not_null(TypeKind::Integer)
    }

    fn ctx() -> ExecContext {
        let mut c = ExecContext::new();
        crate::register_executors(&mut c);
        c
    }

    fn emp() -> Rel {
        // (deptno, sal)
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

    fn dept() -> Rel {
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
    }

    fn run(plan: &Rel) -> Vec<Row> {
        ctx().execute_collect(plan).unwrap()
    }

    #[test]
    fn scan_filter_project() {
        let plan = rel::project(
            rel::filter(
                emp(),
                RexNode::input(1, RelType::nullable(TypeKind::Integer)).gt(RexNode::lit_int(150)),
            ),
            vec![RexNode::input(0, int_ty())],
            vec!["deptno".into()],
        );
        let rows = run(&plan);
        assert_eq!(rows, vec![vec![Datum::Int(10)], vec![Datum::Int(20)]]);
    }

    #[test]
    fn null_rows_fail_filter() {
        // sal > 150 is NULL for the NULL salary: excluded.
        let plan = rel::filter(
            emp(),
            RexNode::input(1, RelType::nullable(TypeKind::Integer)).gt(RexNode::lit_int(0)),
        );
        assert_eq!(run(&plan).len(), 3);
    }

    #[test]
    fn hash_join_inner() {
        let cond = RexNode::input(0, int_ty()).eq(RexNode::input(2, int_ty()));
        let plan = rel::join(emp(), dept(), JoinKind::Inner, cond);
        let rows = run(&plan);
        assert_eq!(rows.len(), 2); // only deptno 10 matches
        assert!(rows.iter().all(|r| r[0] == Datum::Int(10)));
        assert_eq!(rows[0].len(), 4);
    }

    #[test]
    fn left_join_pads_with_nulls() {
        let cond = RexNode::input(0, int_ty()).eq(RexNode::input(2, int_ty()));
        let plan = rel::join(emp(), dept(), JoinKind::Left, cond);
        let rows = run(&plan);
        assert_eq!(rows.len(), 4);
        let unmatched: Vec<&Row> = rows.iter().filter(|r| r[2].is_null()).collect();
        assert_eq!(unmatched.len(), 2); // the two deptno-20 rows
    }

    #[test]
    fn right_and_full_join() {
        let cond = RexNode::input(0, int_ty()).eq(RexNode::input(2, int_ty()));
        let plan = rel::join(emp(), dept(), JoinKind::Right, cond.clone());
        let rows = run(&plan);
        // 2 matches + 1 unmatched right (deptno 30).
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().filter(|r| r[0].is_null()).count(), 1);

        let plan = rel::join(emp(), dept(), JoinKind::Full, cond);
        let rows = run(&plan);
        assert_eq!(rows.len(), 5); // 2 matches + 2 left-only + 1 right-only
    }

    #[test]
    fn semi_and_anti_join() {
        let cond = RexNode::input(0, int_ty()).eq(RexNode::input(2, int_ty()));
        let semi = rel::join(emp(), dept(), JoinKind::Semi, cond.clone());
        let rows = run(&semi);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 2); // left fields only

        let anti = rel::join(emp(), dept(), JoinKind::Anti, cond);
        let rows = run(&anti);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[0] == Datum::Int(20)));
    }

    #[test]
    fn theta_join_falls_back_to_nested_loops() {
        let cond = RexNode::input(0, int_ty()).lt(RexNode::input(2, int_ty()));
        let plan = rel::join(emp(), dept(), JoinKind::Inner, cond);
        let rows = run(&plan);
        // emp.deptno < dept.deptno: 10<30 (x2), 20<30 (x2), 10<10 no.
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn join_with_residual_condition() {
        // deptno match AND sal > 150.
        let cond = RexNode::and_all(vec![
            RexNode::input(0, int_ty()).eq(RexNode::input(2, int_ty())),
            RexNode::input(1, RelType::nullable(TypeKind::Integer)).gt(RexNode::lit_int(150)),
        ]);
        let plan = rel::join(emp(), dept(), JoinKind::Inner, cond);
        let rows = run(&plan);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Datum::Int(200));
    }

    #[test]
    fn aggregate_group_and_global() {
        let rt = emp().row_type().clone();
        let plan = rel::aggregate(
            emp(),
            vec![0],
            vec![
                AggCall::count_star("c"),
                AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt),
                AggCall::new(AggFunc::Count, vec![1], false, "c_sal", &rt),
            ],
        );
        let mut rows = run(&plan);
        rows.sort();
        // dept 10: 2 rows, sum 300; dept 20: 2 rows, sum 300, count(sal)=1.
        assert_eq!(
            rows,
            vec![
                vec![
                    Datum::Int(10),
                    Datum::Int(2),
                    Datum::Int(300),
                    Datum::Int(2)
                ],
                vec![
                    Datum::Int(20),
                    Datum::Int(2),
                    Datum::Int(300),
                    Datum::Int(1)
                ],
            ]
        );

        // Global aggregate over an empty input still yields one row.
        let empty = rel::empty(emp().row_type().clone());
        let plan = rel::aggregate(empty, vec![], vec![AggCall::count_star("c")]);
        assert_eq!(run(&plan), vec![vec![Datum::Int(0)]]);
    }

    #[test]
    fn distinct_and_avg_aggregates() {
        let rt = emp().row_type().clone();
        let plan = rel::aggregate(
            emp(),
            vec![],
            vec![
                AggCall::new(AggFunc::Count, vec![0], true, "dc", &rt),
                AggCall::new(AggFunc::Avg, vec![1], false, "a", &rt),
                AggCall::new(AggFunc::Min, vec![1], false, "mn", &rt),
                AggCall::new(AggFunc::Max, vec![1], false, "mx", &rt),
            ],
        );
        let rows = run(&plan);
        assert_eq!(rows[0][0], Datum::Int(2)); // two distinct deptnos
        assert_eq!(rows[0][1], Datum::Double(200.0)); // avg of 100,200,300
        assert_eq!(rows[0][2], Datum::Int(100));
        assert_eq!(rows[0][3], Datum::Int(300));
    }

    #[test]
    fn sort_with_nulls_and_limit() {
        use rcalcite_core::traits::FieldCollation;
        let plan = rel::sort(emp(), vec![FieldCollation::desc(1)]);
        let rows = run(&plan);
        // DESC with nulls_first=false: 300, 200, 100, NULL.
        assert_eq!(rows[0][1], Datum::Int(300));
        assert!(rows[3][1].is_null());

        let plan = rel::sort_limit(emp(), vec![FieldCollation::desc(1)], Some(1), Some(2));
        let rows = run(&plan);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Datum::Int(200));
    }

    #[test]
    fn union_all_and_distinct() {
        let u = rel::union(vec![emp(), emp()], true);
        assert_eq!(run(&u).len(), 8);
        let u = rel::union(vec![emp(), emp()], false);
        assert_eq!(run(&u).len(), 4);
    }

    #[test]
    fn intersect_and_minus() {
        let a = rel::values(
            emp().row_type().clone(),
            vec![
                vec![Datum::Int(1), Datum::Int(1)],
                vec![Datum::Int(1), Datum::Int(1)],
                vec![Datum::Int(2), Datum::Int(2)],
            ],
        );
        let b = rel::values(
            emp().row_type().clone(),
            vec![
                vec![Datum::Int(1), Datum::Int(1)],
                vec![Datum::Int(3), Datum::Int(3)],
            ],
        );
        let i = rel::intersect(vec![a.clone(), b.clone()], false);
        assert_eq!(run(&i), vec![vec![Datum::Int(1), Datum::Int(1)]]);
        let m = rel::minus(vec![a.clone(), b.clone()], false);
        assert_eq!(run(&m), vec![vec![Datum::Int(2), Datum::Int(2)]]);
        // Bag semantics: EXCEPT ALL removes one occurrence per right row.
        let m = rel::minus(vec![a, b], true);
        let rows = run(&m);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn window_running_sum_per_partition() {
        // SUM(sal) OVER (PARTITION BY deptno ORDER BY sal ROWS UNBOUNDED
        // PRECEDING..CURRENT).
        let wf = WindowFn {
            func: WinFunc::Agg(AggFunc::Sum),
            args: vec![1],
            partition: vec![0],
            order: vec![rcalcite_core::traits::FieldCollation::asc(1)],
            frame: WindowFrame::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow),
            name: "running".into(),
            ty: RelType::nullable(TypeKind::Integer),
        };
        let plan = rel::window(emp(), vec![wf]);
        let mut rows = run(&plan);
        rows.sort_by(|a, b| {
            compare_rows(
                a,
                b,
                &vec![
                    rcalcite_core::traits::FieldCollation::asc(0),
                    rcalcite_core::traits::FieldCollation::asc(1),
                ],
            )
        });
        // dept 10: sal 100 -> 100; sal 200 -> 300.
        let d10: Vec<&Row> = rows.iter().filter(|r| r[0] == Datum::Int(10)).collect();
        assert_eq!(d10[0][2], Datum::Int(100));
        assert_eq!(d10[1][2], Datum::Int(300));
    }

    #[test]
    fn window_row_number_and_rank() {
        let order = vec![rcalcite_core::traits::FieldCollation::asc(1)];
        let mk = |func: WinFunc, name: &str| WindowFn {
            func,
            args: vec![],
            partition: vec![],
            order: order.clone(),
            frame: WindowFrame::default_frame(),
            name: name.into(),
            ty: RelType::not_null(TypeKind::Integer),
        };
        let t = rel::values(
            RowTypeBuilder::new()
                .add_not_null("g", TypeKind::Integer)
                .add_not_null("v", TypeKind::Integer)
                .build(),
            vec![
                vec![Datum::Int(1), Datum::Int(10)],
                vec![Datum::Int(2), Datum::Int(10)],
                vec![Datum::Int(3), Datum::Int(20)],
            ],
        );
        let plan = rel::window(
            t,
            vec![mk(WinFunc::RowNumber, "rn"), mk(WinFunc::Rank, "rk")],
        );
        let mut rows = run(&plan);
        rows.sort_by(|a, b| a[2].cmp(&b[2]));
        assert_eq!(rows[0][2], Datum::Int(1));
        assert_eq!(rows[1][2], Datum::Int(2));
        assert_eq!(rows[2][2], Datum::Int(3));
        // Rank ties: two rows with v=10 share rank 1; v=20 gets rank 3.
        assert_eq!(rows[0][3], Datum::Int(1));
        assert_eq!(rows[1][3], Datum::Int(1));
        assert_eq!(rows[2][3], Datum::Int(3));
    }

    #[test]
    fn window_range_frame_sliding_hour() {
        // The §7.2 sliding-window example: SUM(units) OVER (ORDER BY
        // rowtime RANGE INTERVAL '1' HOUR PRECEDING).
        let hour = 3_600_000i64;
        let t = rel::values(
            RowTypeBuilder::new()
                .add_not_null("rowtime", TypeKind::Timestamp)
                .add_not_null("units", TypeKind::Integer)
                .build(),
            vec![
                vec![Datum::Timestamp(0), Datum::Int(5)],
                vec![Datum::Timestamp(hour / 2), Datum::Int(7)],
                vec![Datum::Timestamp(2 * hour), Datum::Int(11)],
            ],
        );
        let wf = WindowFn {
            func: WinFunc::Agg(AggFunc::Sum),
            args: vec![1],
            partition: vec![],
            order: vec![rcalcite_core::traits::FieldCollation::asc(0)],
            frame: WindowFrame::range(FrameBound::Preceding(hour), FrameBound::CurrentRow),
            name: "last_hour".into(),
            ty: RelType::nullable(TypeKind::Integer),
        };
        let plan = rel::window(t, vec![wf]);
        let mut rows = run(&plan);
        rows.sort_by(|a, b| a[0].cmp(&b[0]));
        assert_eq!(rows[0][2], Datum::Int(5));
        assert_eq!(rows[1][2], Datum::Int(12)); // 5 + 7 within the hour
        assert_eq!(rows[2][2], Datum::Int(11)); // others outside range
    }

    #[test]
    fn values_and_one_row() {
        let rows = run(&rel::one_row());
        assert_eq!(rows, vec![Vec::<Datum>::new()]);
    }
}
