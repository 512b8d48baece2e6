//! Grouped aggregation for the batch engine: one incremental state —
//! a [`KeySet`] of group keys (typed key columns, appended on first
//! sight) with the row executor's accumulators beside it — fed a batch
//! at a time, merged exactly across parallel partials and spill chunks,
//! and finished straight into output columns.

use crate::batch::FoldInput;
use crate::executor::{add_datums, compare_datums, Acc};
use crate::keys::{null_rows, KeySet};
use rcalcite_core::buffer::{ByteReader, ByteWriter, MemoryReservation, SpillEnv, SpillFile};
use rcalcite_core::datum::{Column, Datum};
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::exec::{split_to_batches, ColumnBatch, Operator};
use rcalcite_core::rel::AggCall;
use rcalcite_core::traits::FieldCollation;
use rcalcite_core::types::TypeKind;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;

/// Incremental aggregation state, fed one batch at a time. The input
/// never materializes; only the group keys (as columns) and per-group
/// accumulators are held. Group ids are dense in first-seen order, and
/// each group records the sequence number of the row that created it
/// (`first_seen`) so partial states, merged in any order, can emit
/// groups in exactly the order serial execution uses.
pub(crate) struct AggState {
    keys: KeySet,
    first_seen: Vec<u64>,
    /// `aggs.len()` accumulators per group, group-major.
    accs: Vec<Acc>,
    /// Per aggregate: for a DISTINCT one, the `(group id, arguments…)`
    /// tuples already counted (one set across all groups).
    distinct: Vec<Option<KeySet>>,
}

/// Per-group footprint beside the key set: `first_seen` and the
/// accumulators.
fn group_bytes(naggs: usize) -> usize {
    8 + naggs * std::mem::size_of::<Acc>()
}

/// `Acc::add` for a non-NULL integer without boxing it in a `Datum`;
/// states that are not integer-typed take the shared path.
#[inline]
fn add_int(acc: &mut Acc, v: i64) -> Result<()> {
    match acc {
        Acc::Count(n) => *n += 1,
        Acc::Sum(None) | Acc::Min(None) | Acc::Max(None) => return acc.add(Some(&Datum::Int(v))),
        Acc::Sum(Some(Datum::Int(s))) => {
            *s = s
                .checked_add(v)
                .ok_or_else(|| CalciteError::execution("integer overflow in SUM"))?;
        }
        Acc::Min(Some(Datum::Int(m))) => *m = (*m).min(v),
        Acc::Max(Some(Datum::Int(m))) => *m = (*m).max(v),
        Acc::Avg { sum, count } => {
            *sum += v as f64;
            *count += 1;
        }
        Acc::Sum(Some(prev)) => *prev = add_datums(prev, &Datum::Int(v))?,
        Acc::Min(Some(_)) | Acc::Max(Some(_)) => return acc.add(Some(&Datum::Int(v))),
    }
    Ok(())
}

impl AggState {
    pub(crate) fn new(aggs: &[AggCall]) -> AggState {
        AggState {
            keys: KeySet::default(),
            first_seen: vec![],
            accs: vec![],
            distinct: aggs
                .iter()
                .map(|a| a.distinct.then(KeySet::default))
                .collect(),
        }
    }

    /// Heap footprint of the state, maintained incrementally (it grows
    /// on group creation and distinct insert), so the budget check after
    /// each batch is O(1).
    pub(crate) fn bytes(&self) -> usize {
        self.keys.bytes()
            + self.first_seen.len() * group_bytes(self.distinct.len())
            + self
                .distinct
                .iter()
                .flatten()
                .map(KeySet::bytes)
                .sum::<usize>()
    }

    /// Accumulates one dense batch. `seq0` is the sequence number of the
    /// batch's first row in the serial input order (row `i` is
    /// `seq0 + i`); it only matters when states from several workers are
    /// merged later — serial callers pass a running row counter.
    pub(crate) fn update(
        &mut self,
        b: &ColumnBatch,
        group: &[usize],
        aggs: &[AggCall],
        seq0: u64,
    ) -> Result<()> {
        let n = b.num_rows();
        let key_cols: Vec<&Column> = group.iter().map(|&g| b.column(g)).collect();
        let (ids, fresh) = self.keys.intern(&key_cols, n);
        for i in fresh {
            self.first_seen.push(seq0 + i as u64);
            self.accs.extend(aggs.iter().map(|a| Acc::new(a.func)));
        }
        let stride = aggs.len();
        for (ai, a) in aggs.iter().enumerate() {
            let arg = a.args.first().map(|&c| b.column(c));
            // Row `i`'s accumulator for this aggregate.
            let at = |i: usize| ids[i] as usize * stride + ai;
            if let Some(seen) = &mut self.distinct[ai] {
                for i in unseen_tuples(seen, &ids, a, b) {
                    self.accs[at(i)].add(arg.map(|c| c.get(i)).as_ref())?;
                }
                continue;
            }
            match arg {
                None => {
                    for i in 0..n {
                        self.accs[at(i)].add(None)?;
                    }
                }
                Some(Column::Int { values, valid }) => {
                    for i in (0..n).filter(|&i| valid[i]) {
                        add_int(&mut self.accs[at(i)], values[i])?;
                    }
                }
                Some(col) => {
                    for i in 0..n {
                        self.accs[at(i)].add(Some(&col.get(i)))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Folds another partial state into this one. Its key columns are
    /// interned batch-wise; non-distinct accumulators merge directly;
    /// distinct aggregates replay only the argument tuples this side has
    /// not seen (the tuple sets make the merge exact). `first_seen`
    /// keeps the minimum, so an ordered finish reproduces serial group
    /// order.
    pub(crate) fn merge(&mut self, other: AggState, aggs: &[AggCall]) -> Result<()> {
        if other.keys.len() == 0 {
            return Ok(());
        }
        if self.keys.len() == 0 {
            *self = other;
            return Ok(());
        }
        let before = self.keys.len();
        let other_cols: Vec<&Column> = other.keys.columns().iter().collect();
        let (ids, _) = self.keys.intern(&other_cols, other.keys.len());
        let stride = aggs.len();
        let mut other_accs = other.accs.into_iter();
        for (&g, at) in ids.iter().zip(other.first_seen) {
            let g = g as usize;
            if g >= before {
                // New here: ids are dense in the other side's order, so
                // its whole group state appends as is.
                self.first_seen.push(at);
                self.accs.extend(other_accs.by_ref().take(stride));
                continue;
            }
            self.first_seen[g] = self.first_seen[g].min(at);
            for (ai, o) in other_accs.by_ref().take(stride).enumerate() {
                if !aggs[ai].distinct {
                    self.accs[g * stride + ai].merge(o)?;
                }
            }
        }
        for (ai, theirs) in other.distinct.into_iter().enumerate() {
            let Some(theirs) = theirs.filter(|s| s.len() > 0) else {
                continue;
            };
            let n = theirs.len();
            let cols = theirs.columns();
            let Column::Int { values: gids, .. } = &cols[0] else {
                return Err(CalciteError::internal("distinct-set group ids are Int"));
            };
            let mapped: Vec<i64> = gids.iter().map(|&g| i64::from(ids[g as usize])).collect();
            let gid_col = Column::Int {
                values: mapped.clone(),
                valid: vec![true; n],
            };
            let args = &cols[1..];
            let mut tuple: Vec<&Column> = vec![&gid_col];
            tuple.extend(args);
            let mine = self.distinct[ai]
                .as_mut()
                .expect("both sides aggregate the same calls");
            // Tuples new to a group both sides hold replay into its
            // accumulator in sorted order — the interning order depends
            // on the worker split, and float folds (or which value trips
            // a checked overflow) must not.
            let (_, mut replay) = mine.intern(&tuple, n);
            replay.retain(|&i| (mapped[i] as usize) < before);
            replay.sort_by(|&x, &y| {
                mapped[x].cmp(&mapped[y]).then_with(|| {
                    args.iter()
                        .map(|c| c.get(x).cmp(&c.get(y)))
                        .find(|o| *o != Ordering::Equal)
                        .unwrap_or(Ordering::Equal)
                })
            });
            for i in replay {
                self.accs[mapped[i] as usize * stride + ai]
                    .add(args.first().map(|c| c.get(i)).as_ref())?;
            }
        }
        Ok(())
    }

    /// The result as output batches: key columns as held, one column per
    /// aggregate. `ordered` sorts groups by first-seen sequence — what
    /// merged partial states need to reproduce the serial output order;
    /// a serial state's insertion order already *is* that order.
    pub(crate) fn finish(
        mut self,
        group: &[usize],
        aggs: &[AggCall],
        out_kinds: &[TypeKind],
        ordered: bool,
    ) -> Vec<ColumnBatch> {
        let agg_kinds = &out_kinds[group.len()..];
        let ngroups = self.keys.len();
        if ngroups == 0 {
            // No input at all: a global aggregate still yields one row
            // (the empty-input accumulator results).
            if !group.is_empty() {
                return vec![];
            }
            let cols = aggs
                .iter()
                .zip(agg_kinds)
                .map(|(a, k)| Column::from_datums(k, [Acc::new(a.func).finish()]))
                .collect();
            return vec![ColumnBatch::with_len(cols, 1)];
        }
        let mut order: Vec<usize> = (0..ngroups).collect();
        if ordered {
            order.sort_by_key(|&g| self.first_seen[g]);
        }
        let stride = aggs.len();
        let mut cols = self.keys.into_columns();
        if ordered {
            cols = cols.iter().map(|c| c.gather(&order)).collect();
        }
        for (ai, kind) in agg_kinds.iter().enumerate() {
            cols.push(Column::from_datums(
                kind,
                order.iter().map(|&g| {
                    std::mem::replace(&mut self.accs[g * stride + ai], Acc::Count(0)).finish()
                }),
            ));
        }
        split_to_batches(ColumnBatch::with_len(cols, ngroups))
    }

    /// What [`AggState::bytes`] must equal, recomputed from scratch.
    #[cfg(test)]
    fn recount_bytes(&self) -> usize {
        self.keys.recount_bytes()
            + self.first_seen.len() * group_bytes(self.distinct.len())
            + self
                .distinct
                .iter()
                .flatten()
                .map(KeySet::recount_bytes)
                .sum::<usize>()
    }
}

/// The rows of `b` whose (group, argument) tuple a DISTINCT aggregate
/// has not counted yet, in row order; NULL arguments never count. The
/// tuples are added to `seen`.
fn unseen_tuples(seen: &mut KeySet, ids: &[u32], a: &AggCall, b: &ColumnBatch) -> Vec<usize> {
    let args: Vec<&Column> = a.args.iter().map(|&c| b.column(c)).collect();
    let nulls = null_rows(&args, ids.len());
    let rows: Vec<usize> = (0..ids.len()).filter(|&i| !nulls[i]).collect();
    let gid_col = Column::Int {
        values: rows.iter().map(|&i| i64::from(ids[i])).collect(),
        valid: vec![true; rows.len()],
    };
    let args: Vec<Column> = args.iter().map(|c| c.gather(&rows)).collect();
    let mut tuple: Vec<&Column> = vec![&gid_col];
    tuple.extend(&args);
    let (_, fresh) = seen.intern(&tuple, rows.len());
    fresh.into_iter().map(|k| rows[k]).collect()
}

// ----------------------------- chunk serde ----------------------------

fn write_opt_datum(w: &mut ByteWriter, d: &Option<Datum>) -> Result<()> {
    match d {
        None => w.u8(0),
        Some(d) => {
            w.u8(1);
            w.datum(d)?;
        }
    }
    Ok(())
}

fn read_opt_datum(r: &mut ByteReader) -> Result<Option<Datum>> {
    Ok(match r.u8()? {
        0 => None,
        _ => Some(r.datum()?),
    })
}

fn write_acc(w: &mut ByteWriter, acc: &Acc) -> Result<()> {
    match acc {
        Acc::Count(n) => {
            w.u8(0);
            w.i64(*n);
        }
        Acc::Sum(d) => {
            w.u8(1);
            write_opt_datum(w, d)?;
        }
        Acc::Min(d) => {
            w.u8(2);
            write_opt_datum(w, d)?;
        }
        Acc::Max(d) => {
            w.u8(3);
            write_opt_datum(w, d)?;
        }
        Acc::Avg { sum, count } => {
            w.u8(4);
            w.f64(*sum);
            w.i64(*count);
        }
    }
    Ok(())
}

fn read_acc(r: &mut ByteReader) -> Result<Acc> {
    Ok(match r.u8()? {
        0 => Acc::Count(r.i64()?),
        1 => Acc::Sum(read_opt_datum(r)?),
        2 => Acc::Min(read_opt_datum(r)?),
        3 => Acc::Max(read_opt_datum(r)?),
        4 => Acc::Avg {
            sum: r.f64()?,
            count: r.i64()?,
        },
        _ => {
            return Err(CalciteError::execution(
                "corrupt spill chunk (unknown accumulator tag)",
            ))
        }
    })
}

fn write_key_set(w: &mut ByteWriter, set: &KeySet) -> Result<()> {
    w.u32(set.len() as u32);
    w.u32(set.columns().len() as u32);
    for c in set.columns() {
        w.column(c)?;
    }
    Ok(())
}

fn read_key_set(r: &mut ByteReader) -> Result<KeySet> {
    let n = r.u32()? as usize;
    let cols: Vec<Column> = (0..r.u32()?).map(|_| r.column()).collect::<Result<_>>()?;
    let mut set = KeySet::default();
    let (_, fresh) = set.intern(&cols.iter().collect::<Vec<_>>(), n);
    if fresh.len() != n {
        return Err(CalciteError::execution(
            "corrupt spill chunk (duplicate keys)",
        ));
    }
    Ok(set)
}

/// Serializes a partial aggregation state as one spill chunk: the key
/// columns, each group's first-seen sequence and accumulators, and the
/// distinct tuple sets the exact merge replays.
fn write_agg_chunk(w: &mut ByteWriter, state: &AggState) -> Result<()> {
    write_key_set(w, &state.keys)?;
    for at in &state.first_seen {
        w.u64(*at);
    }
    for acc in &state.accs {
        write_acc(w, acc)?;
    }
    for set in state.distinct.iter().flatten() {
        write_key_set(w, set)?;
    }
    Ok(())
}

fn read_agg_chunk(r: &mut ByteReader, aggs: &[AggCall]) -> Result<AggState> {
    let keys = read_key_set(r)?;
    let n = keys.len();
    Ok(AggState {
        keys,
        first_seen: (0..n).map(|_| r.u64()).collect::<Result<_>>()?,
        accs: (0..n * aggs.len())
            .map(|_| read_acc(r))
            .collect::<Result<_>>()?,
        distinct: aggs
            .iter()
            .map(|a| a.distinct.then(|| read_key_set(r)).transpose())
            .collect::<Result<_>>()?,
    })
}

// ------------------------------ operators -----------------------------

/// What an aggregate computes: its keys, its calls, its output kinds and
/// the budget its state folds under.
pub(crate) struct AggSpec {
    pub(crate) group: Vec<usize>,
    pub(crate) aggs: Vec<AggCall>,
    pub(crate) out_kinds: Vec<TypeKind>,
    pub(crate) spill: SpillEnv,
}

/// One fold of aggregate input under the memory budget — a stream's
/// whole input, one window of it, or one worker's share of the morsels:
/// a state that outgrows its reservation spills as a chunk and restarts,
/// and [`finish_folds`] merges the chunks back.
struct Fold {
    state: AggState,
    res: MemoryReservation,
    /// Spilled partial states, as (offset, len) chunks of one file in
    /// input-time order.
    chunks: Vec<(u64, usize)>,
    file: Option<Arc<SpillFile>>,
}

impl Fold {
    fn new(spec: &AggSpec) -> Fold {
        Fold {
            state: AggState::new(&spec.aggs),
            res: MemoryReservation::new(spec.spill.budget.clone()),
            chunks: vec![],
            file: None,
        }
    }

    /// Accumulates one dense batch whose first row has input sequence
    /// number `seq0`.
    fn add(&mut self, b: &ColumnBatch, seq0: u64, spec: &AggSpec) -> Result<()> {
        self.state.update(b, &spec.group, &spec.aggs, seq0)?;
        if !spec.spill.budget.is_bounded() {
            return Ok(());
        }
        let est = self.state.bytes();
        if est > self.res.bytes() && !self.res.try_grow(est - self.res.bytes()) {
            spec.spill.budget.require_spillable()?;
            // Spill the partial state as one chunk and restart
            // accumulation from scratch.
            let mut w = ByteWriter::new();
            write_agg_chunk(&mut w, &self.state)?;
            let f = match &self.file {
                Some(f) => Arc::clone(f),
                None => Arc::clone(self.file.insert(spec.spill.spill_file("aggregate")?)),
            };
            let off = f.append(&w.buf)?;
            self.chunks.push((off, w.buf.len()));
            self.state = AggState::new(&spec.aggs);
            self.res.release_all();
        }
        Ok(())
    }
}

/// The groups of `folds` (in worker order) in first-seen order. One fold
/// that never spilled holds them in that order already. Otherwise every
/// fold's chunks merge in input-time order, its in-memory tail last, and
/// the first-seen sort restores serial order.
fn finish_folds(mut folds: Vec<Fold>, spec: &AggSpec) -> Result<Vec<ColumnBatch>> {
    let (group, aggs, kinds) = (&spec.group, &spec.aggs, &spec.out_kinds);
    if folds.len() == 1 && folds[0].file.is_none() {
        let fold = folds.pop().expect("one fold");
        return Ok(fold.state.finish(group, aggs, kinds, false));
    }
    let n: usize = folds.iter().map(|f| f.chunks.len()).sum();
    if n > 0 {
        spec.spill.tracker.record("aggregate", n, n + folds.len());
    }
    let mut merged = AggState::new(aggs);
    for fold in folds {
        for (off, len) in fold.chunks {
            let f = fold.file.as_ref().expect("a spilled fold has a file");
            let bytes = f.read_at(off, len)?;
            merged.merge(read_agg_chunk(&mut ByteReader::new(&bytes), aggs)?, aggs)?;
        }
        merged.merge(fold.state, aggs)?;
    }
    Ok(merged.finish(group, aggs, kinds, true))
}

/// The group key a streaming aggregate flushes on, found by
/// [`MetadataQuery::ascending_group_key`](rcalcite_core::metadata::MetadataQuery::ascending_group_key),
/// and the window it is folding. The input ascends on the key, so the
/// groups of one key value arrive as one contiguous run: a window holds
/// the groups of one key value and flushes when the key moves on.
pub(crate) struct Windows {
    /// Position of the key in the group.
    pos: usize,
    /// The collation the input ascends in.
    order: FieldCollation,
    /// The stored column the key derives from, for errors.
    column: String,
    /// Key of the window being folded; `None` before the first row.
    current: Option<Datum>,
    /// Sequence number of the next input row.
    seq: u64,
    /// `None` once the input has ended.
    fold: Option<Fold>,
}

impl Windows {
    pub(crate) fn new(pos: usize, order: FieldCollation, column: String) -> Windows {
        Windows {
            pos,
            order,
            column,
            current: None,
            seq: 0,
            fold: None,
        }
    }

    /// Folds one dense batch, appending each window it moves past to
    /// `out`.
    fn add(
        &mut self,
        b: &ColumnBatch,
        spec: &AggSpec,
        out: &mut VecDeque<ColumnBatch>,
    ) -> Result<()> {
        let fold = self.fold.as_mut().expect("input has not ended");
        let keys = b.column(spec.group[self.pos]);
        let mut start = 0;
        for i in 0..b.num_rows() {
            let key = keys.get(i);
            if let Some(cur) = &self.current {
                match compare_datums(&self.order, &key, cur) {
                    Ordering::Equal => continue,
                    Ordering::Greater => {}
                    Ordering::Less => {
                        return Err(CalciteError::execution(format!(
                            "stream input is not in its declared order: \
                             column '{}' went back from {cur} to {key}",
                            self.column
                        )))
                    }
                }
                // Row `i` opens the next window: the current one is done.
                fold.add(&b.slice(start, i - start), self.seq + start as u64, spec)?;
                let done = std::mem::replace(fold, Fold::new(spec));
                out.extend(finish_folds(vec![done], spec)?);
                start = i;
            }
            self.current = Some(key);
        }
        let rows = b.num_rows();
        fold.add(&b.slice(start, rows - start), self.seq + start as u64, spec)?;
        self.seq += rows as u64;
        Ok(())
    }
}

/// GROUP BY at every worker count. The input is a stream, or the morsels
/// of a scan chain; each worker (one, over a stream) folds its share
/// into a [`Fold`] under the memory budget, and [`finish_folds`] merges
/// the folds' spilled chunks and in-memory tails exactly, in worker
/// order, so groups come out in serial first-seen order. For integer
/// aggregates the result is bit-identical at every worker count and
/// budget. Float SUM/AVG may differ in the last ulp, because addition is
/// re-associated across workers and spill chunks (where a shared budget
/// cuts a worker's chunks depends on timing), and a checked integer SUM
/// whose *intermediate* values graze i64's range may overflow in one
/// split and not another — the standard contract of parallel
/// aggregation.
pub(crate) struct AggregateOp {
    input: FoldInput,
    spec: Arc<AggSpec>,
    /// `Some` when a group key of a stream input ascends: windows flush
    /// from `next`. `None`: the whole input folds at `open`.
    windows: Option<Windows>,
    out: VecDeque<ColumnBatch>,
}

impl AggregateOp {
    pub(crate) fn new(input: FoldInput, spec: AggSpec, windows: Option<Windows>) -> Self {
        AggregateOp {
            input,
            spec: Arc::new(spec),
            windows,
            out: VecDeque::new(),
        }
    }
}

impl Operator<ColumnBatch> for AggregateOp {
    fn open(&mut self) -> Result<()> {
        if let (Some(w), FoldInput::Stream(child)) = (&mut self.windows, &mut self.input) {
            child.open()?;
            w.fold = Some(Fold::new(&self.spec));
            return Ok(());
        }
        let spec = Arc::clone(&self.spec);
        let folds = self.input.fold(
            || Fold::new(&self.spec),
            move |fold: &mut Fold, b: ColumnBatch, seq0| fold.add(&b, seq0, &spec),
        )?;
        self.out = finish_folds(folds, &self.spec)?.into();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        while self.out.is_empty() {
            let (Some(w), FoldInput::Stream(child)) = (
                self.windows.as_mut().filter(|w| w.fold.is_some()),
                &mut self.input,
            ) else {
                break;
            };
            match child.next()? {
                Some(b) => w.add(&b.compact(), &self.spec, &mut self.out)?,
                None => {
                    let last = w.fold.take().expect("checked above");
                    self.out.extend(finish_folds(vec![last], &self.spec)?);
                }
            }
        }
        Ok(self.out.pop_front())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rcalcite_core::datum::Row;
    use rcalcite_core::rel::AggFunc;
    use rcalcite_core::types::RowTypeBuilder;

    const GROUP: [usize; 1] = [0];
    const KINDS: [TypeKind; 4] = [
        TypeKind::Integer,
        TypeKind::Integer,
        TypeKind::Integer,
        TypeKind::Integer,
    ];

    /// `GROUP BY k`: COUNT(*), SUM(v), COUNT(DISTINCT v).
    fn aggs() -> Vec<AggCall> {
        let rt = RowTypeBuilder::new()
            .add("k", TypeKind::Integer)
            .add("v", TypeKind::Integer)
            .build();
        vec![
            AggCall::count_star("c"),
            AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt),
            AggCall::new(AggFunc::Count, vec![1], true, "dc", &rt),
        ]
    }

    fn batch(rows: &[(i64, i64)]) -> ColumnBatch {
        let rows: Vec<Row> = rows
            .iter()
            .map(|&(k, v)| vec![Datum::Int(k), Datum::Int(v)])
            .collect();
        ColumnBatch::from_rows(&KINDS[..2], &rows)
    }

    fn rows_of(state: AggState, aggs: &[AggCall]) -> Vec<Row> {
        state
            .finish(&GROUP, aggs, &KINDS[..1 + aggs.len()], true)
            .iter()
            .flat_map(ColumnBatch::to_rows)
            .collect()
    }

    #[test]
    fn agg_state_merge_is_exact() {
        let aggs = aggs();
        let (first, second) = ([(1, 10), (2, 20), (1, 10)], [(3, 30), (2, 25), (1, 11)]);
        // Serial reference over the concatenated input.
        let mut serial = AggState::new(&aggs);
        serial.update(&batch(&first), &GROUP, &aggs, 0).unwrap();
        serial.update(&batch(&second), &GROUP, &aggs, 3).unwrap();
        let expect = rows_of(serial, &aggs);
        // The same rows split across two workers, merged out of order —
        // in memory, and through the spill-chunk form.
        for spill in [false, true] {
            let mut w1 = AggState::new(&aggs);
            w1.update(&batch(&first), &GROUP, &aggs, 0).unwrap();
            let mut w2 = AggState::new(&aggs);
            w2.update(&batch(&second), &GROUP, &aggs, 3).unwrap();
            if spill {
                let mut w = ByteWriter::new();
                write_agg_chunk(&mut w, &w1).unwrap();
                w1 = read_agg_chunk(&mut ByteReader::new(&w.buf), &aggs).unwrap();
            }
            w2.merge(w1, &aggs).unwrap();
            assert_eq!(w2.bytes(), w2.recount_bytes());
            assert_eq!(rows_of(w2, &aggs), expect, "spill={spill}");
        }
        // Groups come out in global first-seen order, each with its
        // count, sum and distinct count.
        let int = |xs: [i64; 4]| xs.map(Datum::Int).to_vec();
        assert_eq!(
            expect,
            vec![int([1, 3, 31, 2]), int([2, 2, 45, 2]), int([3, 1, 30, 1])]
        );
    }

    #[test]
    fn mixed_key_representations_share_groups() {
        // An Int batch, then a batch whose columns arrive `Generic`
        // (holding a Double that equals an Int key): same groups, no
        // miscount, and the first-seen key value is the one reported.
        let aggs = &aggs()[..2];
        let mut state = AggState::new(aggs);
        state
            .update(&batch(&[(1, 10), (2, 20)]), &GROUP, aggs, 0)
            .unwrap();
        let generic = ColumnBatch::new(vec![
            Column::Generic(vec![Datum::Double(1.0), Datum::Null]),
            Column::Generic(vec![Datum::Int(5), Datum::Int(7)]),
        ]);
        state.update(&generic, &GROUP, aggs, 2).unwrap();
        assert_eq!(state.bytes(), state.recount_bytes());
        assert_eq!(
            rows_of(state, aggs),
            vec![
                vec![Datum::Int(1), Datum::Int(2), Datum::Int(15)],
                vec![Datum::Int(2), Datum::Int(1), Datum::Int(20)],
                vec![Datum::Null, Datum::Int(1), Datum::Int(7)],
            ]
        );
    }

    proptest! {
        #[test]
        fn running_footprint_equals_a_recount(
            workers in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(((0i64..40), (0i64..6)), 0..30),
                    0..4,
                ),
                1..4,
            ),
        ) {
            // Random updates per worker, then merges: after every step
            // the O(1) running count is what a full walk would give.
            let aggs = aggs();
            let mut merged = AggState::new(&aggs);
            for batches in &workers {
                let mut state = AggState::new(&aggs);
                for (seq, rows) in batches.iter().enumerate() {
                    state.update(&batch(rows), &GROUP, &aggs, seq as u64 * 100).unwrap();
                    prop_assert_eq!(state.bytes(), state.recount_bytes());
                }
                merged.merge(state, &aggs).unwrap();
                prop_assert_eq!(merged.bytes(), merged.recount_bytes());
            }
        }
    }
}
