//! Joins for the batch engine: the serial [`HashJoinOp`] with its
//! hybrid-hash (grace) spill path, and the [`ParallelHashJoinOp`] whose
//! probe workers share one build side. All of them build one
//! [`JoinIndex`] over the materialized right input and probe it a batch
//! at a time into two index vectors, from which the output columns are
//! gathered.

use crate::batch::{
    batch_bytes, eval_batch, MergeCmp, MergeFeed, RunMerger, SourceSeed, WorkerKernel,
};
use crate::executor::extract_equi_keys;
use crate::keys::{hash_keys, hash_row_keys, null_rows, partition_of, KeyTable, RowEq, EMPTY};
use rcalcite_core::buffer::{row_bytes, MemoryReservation, Run, RunWriter, SpillEnv};
use rcalcite_core::datum::{Column, Datum, Row};
use rcalcite_core::error::Result;
use rcalcite_core::exec::{
    concat_batches, BatchOp, ColumnBatch, Operator, OrderedGatherOp, Parallelism, BATCH_SIZE,
};
use rcalcite_core::rel::JoinKind;
use rcalcite_core::rex::RexNode;
use rcalcite_core::types::TypeKind;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;

/// The absent side of an output pair (the NULL-padded half of an outer
/// join row).
const NONE: usize = usize::MAX;

/// The output of a probe as two parallel index vectors: output row `k`
/// combines left row `left[k]` with right row `right[k]`, either of
/// which may be [`NONE`]. Joins that do not project the right side
/// (Semi/Anti) leave `right` empty.
#[derive(Default)]
struct JoinMatches {
    left: Vec<usize>,
    right: Vec<usize>,
}

impl JoinMatches {
    /// The unmatched build rows of a Right/Full join, NULL-padded on the
    /// left — emitted once every probe has finished.
    /// The build rows these pairs matched.
    fn matched_right(&self) -> impl Iterator<Item = usize> + '_ {
        self.right.iter().copied().filter(|&ri| ri != NONE)
    }

    fn right_pad(unmatched: impl Iterator<Item = usize>) -> JoinMatches {
        let right: Vec<usize> = unmatched.collect();
        JoinMatches {
            left: vec![NONE; right.len()],
            right,
        }
    }
}

/// A probe batch's key hashes and per-row "some key is NULL" flags.
#[derive(Default)]
struct ProbeKeys {
    hash: Vec<u64>,
    null: Vec<bool>,
}

impl ProbeKeys {
    fn of(b: &ColumnBatch, key: &[usize]) -> ProbeKeys {
        let cols: Vec<&Column> = key.iter().map(|&k| b.column(k)).collect();
        ProbeKeys {
            hash: hash_keys(&cols, b.num_rows()),
            null: null_rows(&cols, b.num_rows()),
        }
    }
}

/// The probe structure over a materialized build side.
enum JoinIndex {
    /// Equi join: a [`KeyTable`] over the distinct build keys. An entry
    /// is the first build row holding its key; `next` chains the other
    /// rows of that key in build order, so candidates come out exactly
    /// as a scan of the build side would find them.
    Hash {
        lk: Vec<usize>,
        rk: Vec<usize>,
        residual: RexNode,
        table: KeyTable,
        next: Vec<u32>,
    },
    /// No equi keys: the vectorized theta probe. For each probe row the
    /// join predicate is evaluated *as a batch kernel* over the build
    /// side (left fields substituted as literals, right fields shifted).
    Theta { condition: RexNode },
}

impl JoinIndex {
    /// Builds the probe structure over a materialized right side.
    fn build(condition: &RexNode, left_arity: usize, right: &ColumnBatch) -> JoinIndex {
        let (lk, rk, residual) = extract_equi_keys(condition, left_arity);
        if lk.is_empty() {
            return JoinIndex::Theta {
                condition: condition.clone(),
            };
        }
        let n = right.num_rows();
        let ProbeKeys {
            hash: hashes,
            null: nulls,
        } = ProbeKeys::of(right, &rk);
        let key_cols: Vec<&Column> = rk.iter().map(|&k| right.column(k)).collect();
        let eq = RowEq::new(&key_cols, &key_cols);
        let mut table = KeyTable::for_entries(n);
        let mut next = vec![EMPTY; n];
        // Back to front, each row becoming the head of its key's chain,
        // leaves every chain in ascending build order. NULL keys never
        // join, so they never enter the table.
        for i in (0..n).rev().filter(|&i| !nulls[i]) {
            let (slot, head) = table.find(hashes[i], |e| eq.eq(i, e as usize));
            next[i] = head;
            table.set(slot, hashes[i], i as u32);
        }
        JoinIndex::Hash {
            lk,
            rk,
            residual: RexNode::and_all(residual),
            table,
            next,
        }
    }

    /// The keys of a dense left batch, as [`JoinIndex::probe`] wants them
    /// (a theta join has none).
    fn left_keys(&self, left: &ColumnBatch) -> ProbeKeys {
        match self {
            JoinIndex::Hash { lk, .. } => ProbeKeys::of(left, lk),
            JoinIndex::Theta { .. } => ProbeKeys::default(),
        }
    }

    /// Probes rows `rows` of a dense left batch (`keys` are its
    /// [`JoinIndex::left_keys`]) against the build side, appending the
    /// output pairs those rows contribute, in serial order, to `out`.
    ///
    /// Every candidate's residual is evaluated — even for Semi/Anti,
    /// where the first hit already decides — because the row engine does
    /// the same and a residual error on a later candidate must surface
    /// identically in both engines.
    fn probe(
        &self,
        left: &ColumnBatch,
        keys: &ProbeKeys,
        right: &ColumnBatch,
        rows: Range<usize>,
        kind: JoinKind,
        out: &mut JoinMatches,
    ) -> Result<()> {
        let pairs = !matches!(kind, JoinKind::Semi | JoinKind::Anti);
        // What a left row with (`hit`) or without matches emits beside
        // its pairs.
        let close = |out: &mut JoinMatches, li: usize, hit: bool| match kind {
            JoinKind::Semi if hit => out.left.push(li),
            JoinKind::Anti if !hit => out.left.push(li),
            JoinKind::Left | JoinKind::Full if !hit => {
                out.left.push(li);
                out.right.push(NONE);
            }
            _ => {}
        };
        match self {
            JoinIndex::Hash {
                lk,
                rk,
                residual,
                table,
                next,
            } => {
                let lcols: Vec<&Column> = lk.iter().map(|&k| left.column(k)).collect();
                let rcols: Vec<&Column> = rk.iter().map(|&k| right.column(k)).collect();
                let eq = RowEq::new(&lcols, &rcols);
                let check = !residual.is_always_true();
                for li in rows {
                    let mut hit = false;
                    if !keys.null[li] {
                        let (_, mut ri) = table.find(keys.hash[li], |e| eq.eq(li, e as usize));
                        while ri != EMPTY {
                            let r = ri as usize;
                            ri = next[r];
                            if check {
                                let mut combined = left.row(li);
                                combined.extend(right.row(r));
                                if !matches!(residual.eval(&combined)?, Datum::Bool(true)) {
                                    continue;
                                }
                            }
                            hit = true;
                            if pairs {
                                out.left.push(li);
                                out.right.push(r);
                            }
                        }
                    }
                    close(out, li, hit);
                }
            }
            JoinIndex::Theta { condition } => {
                for li in rows {
                    // The join predicate with this row's values
                    // substituted as literals is one vectorized kernel
                    // pass over the whole build side. Evaluation walks
                    // the build rows in order, so which row surfaces an
                    // evaluation error matches the nested-loop row
                    // engine exactly.
                    let col = eval_batch(&bind_left_row(condition, left, li), right)?;
                    let mut hits = 0usize;
                    for r in 0..right.num_rows() {
                        let ok = match &col {
                            Column::Bool { values, valid } => valid[r] && values[r],
                            col => col.get(r) == Datum::Bool(true),
                        };
                        if ok {
                            hits += 1;
                            if pairs {
                                out.left.push(li);
                                out.right.push(r);
                            }
                        }
                    }
                    close(out, li, hits > 0);
                }
            }
        }
        Ok(())
    }
}

/// Substitutes left row `li`'s values for the left-side input refs of a
/// join condition and renumbers right-side refs to start at 0, yielding
/// an expression over the right batch alone.
fn bind_left_row(e: &RexNode, left: &ColumnBatch, li: usize) -> RexNode {
    let la = left.arity();
    match e {
        RexNode::InputRef { index, ty } if *index < la => RexNode::Literal {
            value: left.column(*index).get(li),
            ty: ty.clone(),
        },
        RexNode::InputRef { index, ty } => RexNode::InputRef {
            index: index - la,
            ty: ty.clone(),
        },
        RexNode::Literal { .. } | RexNode::DynamicParam { .. } => e.clone(),
        RexNode::Call { op, args, ty } => RexNode::Call {
            op: op.clone(),
            args: args.iter().map(|a| bind_left_row(a, left, li)).collect(),
            ty: ty.clone(),
        },
    }
}

/// `col[idx[0]], col[idx[1]], …` with NULL where the index is [`NONE`].
fn gather_padded(col: &Column, idx: &[usize]) -> Column {
    if col.is_empty() {
        return Column::repeat(&Datum::Null, idx.len());
    }
    let present: Vec<usize> = idx.iter().map(|&i| if i == NONE { 0 } else { i }).collect();
    let mut out = col.gather(&present);
    for k in (0..idx.len()).filter(|&k| idx[k] == NONE) {
        out.set(k, Datum::Null);
    }
    out
}

/// Assembles one output batch from index pairs: a typed gather per
/// column, NULL-padded where a side is absent. `left` is `None` for the
/// unmatched-right pad, whose `left_arity` left columns are all NULL.
fn assemble_join_output(
    left: Option<&ColumnBatch>,
    left_idx: &[usize],
    right: &ColumnBatch,
    right_idx: &[usize],
    kind: JoinKind,
    left_arity: usize,
) -> ColumnBatch {
    let n = left_idx.len();
    let mut columns: Vec<Column> = match left {
        // Only the pad has absent left rows.
        Some(left) => (0..left_arity)
            .map(|j| left.column(j).gather(left_idx))
            .collect(),
        None => vec![Column::repeat(&Datum::Null, n); left_arity],
    };
    if kind.projects_right() {
        columns.extend((0..right.arity()).map(|j| {
            if kind.generates_nulls_on_right() {
                gather_padded(right.column(j), right_idx)
            } else {
                right.column(j).gather(right_idx)
            }
        }));
    }
    ColumnBatch::with_len(columns, n)
}

/// Build-side state of the in-memory join: the materialized right input
/// plus the probe structure over it.
struct JoinState {
    right: ColumnBatch,
    right_matched: Vec<bool>,
    emitted_right_pad: bool,
    index: JoinIndex,
}

impl JoinState {
    fn new(condition: &RexNode, left_arity: usize, right: ColumnBatch) -> JoinState {
        JoinState {
            index: JoinIndex::build(condition, left_arity, &right),
            right_matched: vec![false; right.num_rows()],
            right,
            emitted_right_pad: false,
        }
    }
}

/// Probed pairs not yet assembled, with the left batch they index
/// (`None` for the right pad).
struct PendingJoinOutput {
    left: Option<ColumnBatch>,
    matches: JoinMatches,
    pos: usize,
}

impl PendingJoinOutput {
    /// Assembles the next `BATCH_SIZE` pairs, `None` once all are served
    /// — so a high-multiplicity probe (or the unmatched-right pad of an
    /// outer join) never gathers one unbounded batch.
    fn next_chunk(
        &mut self,
        right: &ColumnBatch,
        kind: JoinKind,
        left_arity: usize,
    ) -> Option<ColumnBatch> {
        let total = self.matches.left.len();
        if self.pos >= total {
            return None;
        }
        let chunk = self.pos..total.min(self.pos + BATCH_SIZE);
        self.pos = chunk.end;
        Some(assemble_join_output(
            self.left.as_ref(),
            &self.matches.left[chunk.clone()],
            right,
            self.matches.right.get(chunk).unwrap_or(&[]),
            kind,
            left_arity,
        ))
    }
}

pub(crate) struct HashJoinOp {
    left: BatchOp,
    right: BatchOp,
    left_arity: usize,
    right_arity: usize,
    kind: JoinKind,
    condition: RexNode,
    left_kinds: Arc<Vec<TypeKind>>,
    right_kinds: Arc<Vec<TypeKind>>,
    out_kinds: Vec<TypeKind>,
    spill: SpillEnv,
    state: Option<JoinState>,
    pending: Option<PendingJoinOutput>,
    /// Engaged when the build side breached the memory budget: merged
    /// spill-run output replaces the in-memory probe entirely.
    spilled: Option<SpilledJoinOutput>,
    /// Budget hold over the materialized build side, released when the
    /// operator drops.
    reservation: Option<MemoryReservation>,
}

/// The streamed output of a spilled (hybrid-hash) join: probe results
/// merged by left-row sequence, then outer-join pads merged by
/// build-row sequence — exactly the serial emission order.
struct SpilledJoinOutput {
    main: RunMerger,
    pads: Option<RunMerger>,
}

impl HashJoinOp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        left: BatchOp,
        right: BatchOp,
        left_arity: usize,
        right_arity: usize,
        kind: JoinKind,
        condition: RexNode,
        left_kinds: Vec<TypeKind>,
        right_kinds: Vec<TypeKind>,
        out_kinds: Vec<TypeKind>,
        spill: SpillEnv,
    ) -> HashJoinOp {
        HashJoinOp {
            left,
            right,
            left_arity,
            right_arity,
            kind,
            condition,
            left_kinds: Arc::new(left_kinds),
            right_kinds: Arc::new(right_kinds),
            out_kinds,
            spill,
            state: None,
            pending: None,
            spilled: None,
            reservation: None,
        }
    }
}

impl Operator<ColumnBatch> for HashJoinOp {
    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        // Build side: materialize the right input, accounting each batch
        // against the memory budget.
        let bounded = self.spill.budget.is_bounded();
        let mut res = MemoryReservation::new(self.spill.budget.clone());
        let mut right_batches = vec![];
        let mut overflow = None;
        while let Some(b) = self.right.next()? {
            let b = b.compact();
            if bounded && !res.try_grow(batch_bytes(&b)) {
                self.spill.budget.require_spillable()?;
                overflow = Some(b);
                break;
            }
            right_batches.push(b);
        }
        let Some(overflow) = overflow else {
            // Everything fits: the in-memory path, byte for byte.
            let right = concat_batches(right_batches, self.right_arity);
            self.state = Some(JoinState::new(&self.condition, self.left_arity, right));
            self.reservation = Some(res);
            return Ok(());
        };
        // Budget breached mid-build: degrade to the hybrid-hash path.
        let (lk, rk, _) = extract_equi_keys(&self.condition, self.left_arity);
        if lk.is_empty() {
            // Theta join: no partitioning key exists, so the build side
            // round-trips through one spill run and the vectorized theta
            // probe runs over the read-back batch (a block-nested-loop
            // theta is future work).
            let mut w = self
                .spill
                .run_writer("hash_join", self.right_kinds.clone())?;
            let mut ri = 0u64;
            for b in right_batches.into_iter().chain(Some(overflow)) {
                for i in 0..b.num_rows() {
                    w.push(ri + i as u64, b.row(i))?;
                }
                ri += b.num_rows() as u64;
            }
            res.release_all();
            while let Some(b) = self.right.next()? {
                let b = b.compact();
                for i in 0..b.num_rows() {
                    w.push(ri + i as u64, b.row(i))?;
                }
                ri += b.num_rows() as u64;
            }
            let run = w.finish()?;
            self.spill.tracker.record("hash_join", 1, 1);
            let mut rows = Vec::with_capacity(run.rows());
            let mut cur = run.cursor();
            while let Some((_, r)) = cur.next_entry()? {
                rows.push(r);
            }
            let right = ColumnBatch::from_rows(&self.right_kinds, &rows);
            self.state = Some(JoinState::new(&self.condition, self.left_arity, right));
            return Ok(());
        }
        let spec = GraceSpec {
            lk,
            rk,
            kind: self.kind,
            left_arity: self.left_arity,
            right_arity: self.right_arity,
            condition: self.condition.clone(),
            left_kinds: self.left_kinds.clone(),
            right_kinds: self.right_kinds.clone(),
            out_kinds: Arc::new(self.out_kinds.clone()),
            env: self.spill.clone(),
        };
        self.spilled = Some(grace_join(
            &spec,
            right_batches,
            overflow,
            &mut self.right,
            &mut self.left,
            res,
        )?);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        if let Some(s) = &mut self.spilled {
            if let Some(b) = s.main.next_batch(&self.out_kinds)? {
                return Ok(Some(b));
            }
            if let Some(p) = &mut s.pads {
                return p.next_batch(&self.out_kinds);
            }
            return Ok(None);
        }
        let st = self.state.as_mut().expect("HashJoinOp not opened");
        loop {
            // Serve any probed-but-unassembled pairs first, one
            // batch-sized chunk per pull.
            if let Some(p) = &mut self.pending {
                if let Some(b) = p.next_chunk(&st.right, self.kind, self.left_arity) {
                    return Ok(Some(b));
                }
                self.pending = None;
            }
            if st.emitted_right_pad {
                return Ok(None);
            }
            let Some(b) = self.left.next()? else {
                // Left exhausted: Right/Full joins stage the
                // NULL-padded unmatched right rows (served above,
                // chunk by chunk).
                st.emitted_right_pad = true;
                if self.kind.generates_nulls_on_left() {
                    let flags = st.right_matched.iter().enumerate();
                    self.pending = Some(PendingJoinOutput {
                        left: None,
                        matches: JoinMatches::right_pad(
                            flags.filter(|(_, m)| !**m).map(|(ri, _)| ri),
                        ),
                        pos: 0,
                    });
                }
                continue;
            };
            let b = b.compact();
            let mut matches = JoinMatches::default();
            let keys = st.index.left_keys(&b);
            let rows = 0..b.num_rows();
            st.index
                .probe(&b, &keys, &st.right, rows, self.kind, &mut matches)?;
            if self.kind.generates_nulls_on_left() {
                for ri in matches.matched_right() {
                    st.right_matched[ri] = true;
                }
            }
            self.pending = Some(PendingJoinOutput {
                left: Some(b),
                matches,
                pos: 0,
            });
        }
    }
}

// ------------------- hybrid-hash (grace) join spill -------------------

/// Build-side partition fan-out of a spilled join.
pub(crate) const JOIN_PARTITIONS: usize = 8;

/// Recursion floor: a partition that still exceeds the budget after this
/// many re-splits loads anyway (the recursion bottom must make
/// progress against pathological skew — e.g. one key holding most rows).
const JOIN_MAX_DEPTH: u32 = 3;

/// Everything the recursive partition processing of a spilled join
/// needs: key columns for routing, the condition for per-partition probe
/// construction, shapes for (de)serialization, and the spill environment.
struct GraceSpec {
    lk: Vec<usize>,
    rk: Vec<usize>,
    condition: RexNode,
    kind: JoinKind,
    left_arity: usize,
    right_arity: usize,
    left_kinds: Arc<Vec<TypeKind>>,
    right_kinds: Arc<Vec<TypeKind>>,
    out_kinds: Arc<Vec<TypeKind>>,
    env: SpillEnv,
}

/// The level-0 partition each key hash routes to.
fn route(hashes: &[u64]) -> impl Iterator<Item = usize> + '_ {
    hashes.iter().map(|&h| partition_of(h, 0, JOIN_PARTITIONS))
}

/// One build-side partition while the right input streams in. Rows
/// buffer in memory; under budget pressure the largest buffer flushes to
/// its run and the partition is thereafter "spilled" (later rows go
/// straight to disk). Partitions never flushed stay resident — the
/// "hybrid" in hybrid hash.
#[derive(Default)]
struct BuildPartition {
    buffer: Vec<(u64, Row)>,
    bytes: usize,
    writer: Option<RunWriter>,
}

/// A build partition in memory with its probe structure; `ri_map` maps
/// its rows back to global build sequence.
struct LoadedPartition {
    batch: ColumnBatch,
    ri_map: Vec<u64>,
    index: JoinIndex,
}

impl LoadedPartition {
    fn new(spec: &GraceSpec, entries: impl Iterator<Item = (u64, Row)>) -> LoadedPartition {
        let (ri_map, rows): (Vec<u64>, Vec<Row>) = entries.unzip();
        let batch = ColumnBatch::from_rows(&spec.right_kinds, &rows);
        LoadedPartition {
            index: JoinIndex::build(&spec.condition, spec.left_arity, &batch),
            batch,
            ri_map,
        }
    }

    /// Probes rows `rows` of `left` (row `li` has serial sequence
    /// `lseq(li)`) and writes the output rows they contribute, keyed by
    /// that sequence — the spilled twin of probe + assemble.
    #[allow(clippy::too_many_arguments)]
    fn probe_into(
        &self,
        spec: &GraceSpec,
        left: &ColumnBatch,
        keys: &ProbeKeys,
        rows: Range<usize>,
        lseq: impl Fn(usize) -> u64,
        matched: Option<&mut [bool]>,
        scratch: &mut JoinMatches,
        out: &mut RunWriter,
    ) -> Result<()> {
        scratch.left.clear();
        scratch.right.clear();
        self.index
            .probe(left, keys, &self.batch, rows, spec.kind, scratch)?;
        if let Some(m) = matched {
            for ri in scratch.matched_right() {
                m[self.ri_map[ri] as usize] = true;
            }
        }
        for (k, &li) in scratch.left.iter().enumerate() {
            let mut row = left.row(li);
            match scratch.right.get(k) {
                Some(&NONE) => row.extend((0..spec.right_arity).map(|_| Datum::Null)),
                Some(&ri) => row.extend(self.batch.row(ri)),
                None => {}
            }
            out.push(lseq(li), row)?;
        }
        Ok(())
    }

    /// Writes the NULL-padded rows of this partition's unmatched build
    /// rows (Right/Full joins), keyed by global build sequence so the
    /// pad merge reproduces the serial build-side order.
    fn emit_unmatched_pads(
        &self,
        spec: &GraceSpec,
        matched: &[bool],
        pad_runs: &mut Vec<Run>,
    ) -> Result<()> {
        let mut w: Option<RunWriter> = None;
        for (local, &ri) in self.ri_map.iter().enumerate() {
            if matched[ri as usize] {
                continue;
            }
            let writer = match &mut w {
                Some(w) => w,
                None => w.insert(
                    spec.env
                        .run_writer("hash_join_pad", spec.out_kinds.clone())?,
                ),
            };
            let mut row: Row = (0..spec.left_arity).map(|_| Datum::Null).collect();
            row.extend(self.batch.row(local));
            writer.push(ri, row)?;
        }
        if let Some(w) = w {
            pad_runs.push(w.finish()?);
        }
        Ok(())
    }
}

/// A sealed partition entering the probe phase.
enum ProbePartition {
    /// Fully in memory: probed inline while the left input streams.
    Resident(LoadedPartition),
    /// On disk: matching left rows spool to `left_writer` and the pair
    /// is joined partition-at-a-time after the stream ends.
    Spilled {
        right_run: Run,
        left_writer: RunWriter,
    },
}

/// Runs the spilled build+probe. `prefix`/`overflow` are the build
/// batches pulled before the budget breached; the rest of both inputs
/// stream from the operators. Returns the merged, serially-ordered
/// output.
fn grace_join(
    spec: &GraceSpec,
    prefix: Vec<ColumnBatch>,
    overflow: ColumnBatch,
    right: &mut BatchOp,
    left: &mut BatchOp,
    mut res: MemoryReservation,
) -> Result<SpilledJoinOutput> {
    let n = JOIN_PARTITIONS;
    let mut parts: Vec<BuildPartition> = (0..n).map(|_| BuildPartition::default()).collect();
    // The prefix re-routes row by row; its batch reservation converts to
    // per-partition buffer accounting as it goes.
    res.release_all();
    let mut ri = 0u64;
    for b in prefix.into_iter().chain(Some(overflow)) {
        route_build_batch(spec, &b, &mut parts, &mut ri, &mut res)?;
    }
    while let Some(b) = right.next()? {
        let b = b.compact();
        route_build_batch(spec, &b, &mut parts, &mut ri, &mut res)?;
    }
    let right_total = ri as usize;
    // Seal: spilled partitions flush their buffered tails, resident ones
    // build their probe structures.
    let mut probe_parts: Vec<ProbePartition> = Vec::with_capacity(n);
    let mut spilled_count = 0;
    for mut part in parts {
        if let Some(mut w) = part.writer.take() {
            spilled_count += 1;
            for (k, r) in part.buffer.drain(..) {
                w.push(k, r)?;
            }
            res.shrink(part.bytes);
            let left_writer = spec
                .env
                .run_writer("hash_join_probe", spec.left_kinds.clone())?;
            probe_parts.push(ProbePartition::Spilled {
                right_run: w.finish()?,
                left_writer,
            });
        } else {
            probe_parts.push(ProbePartition::Resident(LoadedPartition::new(
                spec,
                part.buffer.into_iter(),
            )));
        }
    }
    spec.env.tracker.record("hash_join", spilled_count, n);
    let mut matched = spec
        .kind
        .generates_nulls_on_left()
        .then(|| vec![false; right_total]);
    // Probe: the left input streams in serial order. Rows landing on a
    // resident partition probe immediately; the rest spool to disk.
    let mut out_w = spec
        .env
        .run_writer("hash_join_out", spec.out_kinds.clone())?;
    let mut scratch = JoinMatches::default();
    let mut lseq0 = 0u64;
    while let Some(b) = left.next()? {
        let b = b.compact();
        let keys = ProbeKeys::of(&b, &spec.lk);
        for (li, p) in route(&keys.hash).enumerate() {
            let lseq = lseq0 + li as u64;
            match &mut probe_parts[p] {
                ProbePartition::Resident(part) => part.probe_into(
                    spec,
                    &b,
                    &keys,
                    li..li + 1,
                    |_| lseq,
                    matched.as_deref_mut(),
                    &mut scratch,
                    &mut out_w,
                )?,
                ProbePartition::Spilled { left_writer, .. } => left_writer.push(lseq, b.row(li))?,
            }
        }
        lseq0 += b.num_rows() as u64;
    }
    let mut out_runs = vec![out_w.finish()?];
    let mut pad_runs: Vec<Run> = vec![];
    for part in probe_parts {
        match part {
            ProbePartition::Resident(part) => {
                // The left stream is exhausted, so resident matched
                // flags are final — emit this partition's outer pads.
                if let Some(m) = &matched {
                    part.emit_unmatched_pads(spec, m, &mut pad_runs)?;
                }
            }
            ProbePartition::Spilled {
                right_run,
                left_writer,
            } => {
                let left_run = left_writer.finish()?;
                process_spilled_partition(
                    spec,
                    right_run,
                    left_run,
                    1,
                    &mut res,
                    &mut matched,
                    &mut out_runs,
                    &mut pad_runs,
                )?;
            }
        }
    }
    let feeds = |runs: Vec<Run>| {
        runs.into_iter()
            .map(|r| MergeFeed::Run(r.cursor()))
            .collect()
    };
    Ok(SpilledJoinOutput {
        main: RunMerger::new(feeds(out_runs), MergeCmp::Key),
        pads: (!pad_runs.is_empty()).then(|| RunMerger::new(feeds(pad_runs), MergeCmp::Key)),
    })
}

/// Routes one build batch into the partitions, flushing the largest
/// buffer whenever the budget runs out.
fn route_build_batch(
    spec: &GraceSpec,
    b: &ColumnBatch,
    parts: &mut [BuildPartition],
    ri: &mut u64,
    res: &mut MemoryReservation,
) -> Result<()> {
    for (i, p) in route(&ProbeKeys::of(b, &spec.rk).hash).enumerate() {
        let row = b.row(i);
        let seq = *ri;
        *ri += 1;
        if let Some(w) = parts[p].writer.as_mut() {
            // Already spilled: straight to disk, no budget held.
            w.push(seq, row)?;
            continue;
        }
        let sz = 32 + row_bytes(&row);
        parts[p].buffer.push((seq, row));
        parts[p].bytes += sz;
        if !res.try_grow(sz) {
            flush_largest_partition(spec, parts, res)?;
            let _ = res.try_grow(sz);
        }
    }
    Ok(())
}

/// Flushes the largest still-buffered partition to its run, releasing
/// its budget hold.
fn flush_largest_partition(
    spec: &GraceSpec,
    parts: &mut [BuildPartition],
    res: &mut MemoryReservation,
) -> Result<()> {
    let Some(p) = (0..parts.len())
        .filter(|&i| !parts[i].buffer.is_empty())
        .max_by_key(|&i| parts[i].bytes)
    else {
        return Ok(());
    };
    let part = &mut parts[p];
    if part.writer.is_none() {
        part.writer = Some(
            spec.env
                .run_writer("hash_join_build", spec.right_kinds.clone())?,
        );
    }
    let w = part.writer.as_mut().unwrap();
    for (k, r) in part.buffer.drain(..) {
        w.push(k, r)?;
    }
    res.shrink(part.bytes);
    part.bytes = 0;
    Ok(())
}

/// Re-splits one spilled run into [`JOIN_PARTITIONS`] runs under the
/// hash salt of recursion level `depth`.
fn resplit(
    spec: &GraceSpec,
    run: Run,
    key: &[usize],
    label: &str,
    kinds: &Arc<Vec<TypeKind>>,
    depth: u32,
) -> Result<Vec<Run>> {
    let mut writers: Vec<RunWriter> = (0..JOIN_PARTITIONS)
        .map(|_| spec.env.run_writer(label, kinds.clone()))
        .collect::<Result<_>>()?;
    let mut cur = run.cursor();
    while let Some((k, r)) = cur.next_entry()? {
        let h = hash_row_keys(key.iter().map(|&c| &r[c]));
        writers[partition_of(h, depth, JOIN_PARTITIONS)].push(k, r)?;
    }
    writers.into_iter().map(RunWriter::finish).collect()
}

/// Joins one spilled partition pair. If the build partition fits the
/// budget it loads and probes; otherwise both runs re-split under a
/// fresh hash salt and recurse (bounded by [`JOIN_MAX_DEPTH`]).
#[allow(clippy::too_many_arguments)]
fn process_spilled_partition(
    spec: &GraceSpec,
    right_run: Run,
    left_run: Run,
    depth: u32,
    res: &mut MemoryReservation,
    matched: &mut Option<Vec<bool>>,
    out_runs: &mut Vec<Run>,
    pad_runs: &mut Vec<Run>,
) -> Result<()> {
    if right_run.rows() == 0 && left_run.rows() == 0 {
        return Ok(());
    }
    // Deserialized footprint estimate: rows + hash table ≈ 2× the
    // serialized size.
    let load_bytes = right_run.bytes().saturating_mul(2);
    let fits = res.try_grow(load_bytes);
    if !fits && depth < JOIN_MAX_DEPTH && right_run.rows() > 1 {
        let rights = resplit(
            spec,
            right_run,
            &spec.rk,
            "hash_join_build",
            &spec.right_kinds,
            depth,
        )?;
        let lefts = resplit(
            spec,
            left_run,
            &spec.lk,
            "hash_join_probe",
            &spec.left_kinds,
            depth,
        )?;
        for (r, l) in rights.into_iter().zip(lefts) {
            process_spilled_partition(spec, r, l, depth + 1, res, matched, out_runs, pad_runs)?;
        }
        return Ok(());
    }
    let mut entries = Vec::with_capacity(right_run.rows());
    let mut cur = right_run.cursor();
    while let Some(entry) = cur.next_entry()? {
        entries.push(entry);
    }
    let part = LoadedPartition::new(spec, entries.into_iter());
    let mut out_w = spec
        .env
        .run_writer("hash_join_out", spec.out_kinds.clone())?;
    let mut scratch = JoinMatches::default();
    let mut cur = left_run.cursor();
    let mut lseqs: Vec<u64> = Vec::with_capacity(BATCH_SIZE);
    let mut lrows: Vec<Row> = Vec::with_capacity(BATCH_SIZE);
    loop {
        let done = match cur.next_entry()? {
            Some((k, r)) => {
                lseqs.push(k);
                lrows.push(r);
                false
            }
            None => true,
        };
        if lrows.len() == BATCH_SIZE || (done && !lrows.is_empty()) {
            let lb = ColumnBatch::from_rows(&spec.left_kinds, &lrows);
            part.probe_into(
                spec,
                &lb,
                &part.index.left_keys(&lb),
                0..lb.num_rows(),
                |li| lseqs[li],
                matched.as_deref_mut(),
                &mut scratch,
                &mut out_w,
            )?;
            lseqs.clear();
            lrows.clear();
        }
        if done {
            break;
        }
    }
    out_runs.push(out_w.finish()?);
    if let Some(m) = matched.as_ref() {
        part.emit_unmatched_pads(spec, m, pad_runs)?;
    }
    if fits {
        res.shrink(load_bytes);
    }
    Ok(())
}

// -------------------------- parallel join ----------------------------

/// The build-side state probe workers share: the materialized right
/// input, the probe structure, and atomic matched-flags for outer joins.
pub(crate) struct JoinShared {
    right: ColumnBatch,
    index: JoinIndex,
    kind: JoinKind,
    left_arity: usize,
    right_matched: Vec<AtomicBool>,
}

impl JoinShared {
    /// Probes one dense left batch, assembling output in `BATCH_SIZE`
    /// chunks (bounded even under high-multiplicity matches).
    pub(crate) fn probe_chunks(&self, left: ColumnBatch) -> Result<Vec<ColumnBatch>> {
        let mut matches = JoinMatches::default();
        self.index.probe(
            &left,
            &self.index.left_keys(&left),
            &self.right,
            0..left.num_rows(),
            self.kind,
            &mut matches,
        )?;
        if self.kind.generates_nulls_on_left() {
            for ri in matches.matched_right() {
                self.right_matched[ri].store(true, AtomicOrdering::Relaxed);
            }
        }
        let mut pending = PendingJoinOutput {
            left: Some(left),
            matches,
            pos: 0,
        };
        Ok(
            std::iter::from_fn(|| pending.next_chunk(&self.right, self.kind, self.left_arity))
                .collect(),
        )
    }
}

/// Parallel hash join: the right side builds once (shared behind `Arc`),
/// probe workers run the left chain + probe per morsel, and the ordered
/// gather keeps the output in serial probe order. Right/Full padding is
/// emitted after every worker finishes, in build-side order — exactly
/// the serial operator's sequence.
pub(crate) struct ParallelHashJoinOp {
    seed: Option<(SourceSeed, BatchOp)>,
    kind: JoinKind,
    condition: RexNode,
    left_arity: usize,
    right_arity: usize,
    p: Parallelism,
    state: Option<(OrderedGatherOp<ColumnBatch>, Arc<JoinShared>)>,
    /// The unmatched-right pad, staged once the probe gather drains.
    pad: Option<PendingJoinOutput>,
    /// Latched when the probe gather surfaced an error: the matched
    /// flags are incomplete, so the outer-join pad must never run.
    failed: bool,
}

impl ParallelHashJoinOp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        seed: SourceSeed,
        right: BatchOp,
        kind: JoinKind,
        condition: RexNode,
        left_arity: usize,
        right_arity: usize,
        p: Parallelism,
    ) -> ParallelHashJoinOp {
        ParallelHashJoinOp {
            seed: Some((seed, right)),
            kind,
            condition,
            left_arity,
            right_arity,
            p,
            state: None,
            pad: None,
            failed: false,
        }
    }
}

impl Operator<ColumnBatch> for ParallelHashJoinOp {
    fn open(&mut self) -> Result<()> {
        let (source, mut right) = self.seed.take().expect("ParallelHashJoinOp opened twice");
        right.open()?;
        let mut right_batches = vec![];
        while let Some(b) = right.next()? {
            right_batches.push(b);
        }
        let right = concat_batches(right_batches, self.right_arity);
        let shared = Arc::new(JoinShared {
            index: JoinIndex::build(&self.condition, self.left_arity, &right),
            right_matched: (0..right.num_rows())
                .map(|_| AtomicBool::new(false))
                .collect(),
            right,
            kind: self.kind,
            left_arity: self.left_arity,
        });
        let workers = source.into_workers(WorkerKernel::Probe(shared.clone()), self.p);
        let mut gather = OrderedGatherOp::new(workers);
        gather.open()?;
        self.state = Some((gather, shared));
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        if self.failed {
            return Ok(None);
        }
        let (gather, shared) = self.state.as_mut().expect("ParallelHashJoinOp not opened");
        if self.pad.is_none() {
            match gather.next() {
                Err(e) => {
                    self.failed = true;
                    return Err(e);
                }
                Ok(Some(b)) => return Ok(Some(b)),
                Ok(None) => {
                    // Every probe worker finished: the matched flags are
                    // final, pad the unmatched right rows once.
                    let flags = shared.right_matched.iter().enumerate();
                    let unmatched = flags
                        .filter(|(_, m)| !m.load(AtomicOrdering::Relaxed))
                        .map(|(ri, _)| ri)
                        .filter(|_| self.kind.generates_nulls_on_left());
                    self.pad = Some(PendingJoinOutput {
                        left: None,
                        matches: JoinMatches::right_pad(unmatched),
                        pos: 0,
                    });
                }
            }
        }
        let pad = self.pad.as_mut().expect("staged above");
        Ok(pad.next_chunk(&shared.right, self.kind, self.left_arity))
    }
}
