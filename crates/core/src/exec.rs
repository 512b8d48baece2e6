//! Execution SPI. Core plans; it does not execute (the paper's Calcite
//! "omits ... algorithms to process data"). Engines — the enumerable
//! convention, adapters — register a [`ConventionExecutor`] per calling
//! convention, and the [`ExecContext`] dispatches plan subtrees to the
//! engine named by each node's convention trait.
//!
//! Engines build pull-based trees on the [`Operator`] contract and its
//! combinators. Parallel execution has one exchange, [`OrderedGatherOp`],
//! the only code here that spawns (and reaps) threads: it runs one
//! worker operator per thread — in the batch engine, workers claiming
//! morsels of one table snapshot — and hands their tagged output over in
//! serial order, so a parallel plan's output is byte-identical to serial
//! execution.

use crate::datum::{Column, Datum, Row};
use crate::error::{CalciteError, Result};
use crate::rel::{Rel, RelOp};
use crate::traits::Convention;
use crate::types::TypeKind;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Iterator of rows: the minimal adapter scan ([`crate::catalog::Table::scan`])
/// and the row oracle's operators.
pub type RowIter = Box<dyn Iterator<Item = Row> + Send>;

/// The operator-level contract for streaming batch engines: a pull-based
/// tree where `open` prepares an operator to produce (pipeline breakers
/// run their build phase here — hash-table build, Top-K fill) and `next`
/// yields one batch at a time. `B` is the engine's batch type, so the
/// combinators below work for any columnar representation.
///
/// Protocol: the driver calls `open` exactly once on the root before the
/// first `next`; each operator is responsible for opening the children it
/// pulls (usually inside its own `open`, lazily for deferred inputs).
pub trait Operator<B>: Send {
    /// Prepares the operator: opens children, runs any build phase.
    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    /// The next batch, or `None` when the stream is exhausted.
    fn next(&mut self) -> Result<Option<B>>;
}

/// A boxed streaming operator.
pub type BoxOperator<B> = Box<dyn Operator<B>>;

/// A stream of column batches — the one shape data crosses every
/// execution boundary in: [`ConventionExecutor::execute`],
/// [`crate::catalog::RangeScan::scan_range`] and the batch engine's
/// operator tree. Unopened when handed over; the consumer opens it.
pub type BatchOp = BoxOperator<ColumnBatch>;

/// Target number of rows per batch.
pub const BATCH_SIZE: usize = 1024;

// A store chunk is a whole number of batches: scans of a table that never
// deleted serve only full ones.
const _: () = assert!(crate::store::CHUNK_ROWS.is_multiple_of(BATCH_SIZE));

/// A batch of rows in columnar form: equal-length typed columns plus an
/// optional selection mask listing the live row indexes. Filters only
/// update the mask; downstream kernels either consume the mask directly
/// (the fused projection) or compact (gather the live rows) when they
/// need dense vectors.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    /// Physical row count (including filtered-out rows). Kept explicitly
    /// so zero-arity batches (`SELECT` with no `FROM`) keep their row
    /// count.
    len: usize,
    columns: Vec<Column>,
    selection: Option<Vec<usize>>,
}

impl ColumnBatch {
    /// A batch over dense columns (all rows live).
    pub fn new(columns: Vec<Column>) -> ColumnBatch {
        let len = columns.first().map_or(0, Column::len);
        ColumnBatch::with_len(columns, len)
    }

    /// A dense batch with an explicit row count (columns may be empty
    /// for zero-arity rows).
    pub fn with_len(columns: Vec<Column>, len: usize) -> ColumnBatch {
        ColumnBatch {
            len,
            columns,
            selection: None,
        }
    }

    pub fn from_rows(kinds: &[TypeKind], rows: &[Row]) -> ColumnBatch {
        let columns = kinds
            .iter()
            .enumerate()
            .map(|(i, k)| Column::from_rows(k, rows, i))
            .collect();
        ColumnBatch::with_len(columns, rows.len())
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Physical rows (dense length).
    pub fn num_rows(&self) -> usize {
        self.len
    }

    /// Live rows (selection-aware).
    pub fn live_rows(&self) -> usize {
        self.selection.as_ref().map_or(self.len, Vec::len)
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The live row indexes, or `None` when every row is live.
    pub fn selection(&self) -> Option<&[usize]> {
        self.selection.as_deref()
    }

    pub fn set_selection(&mut self, sel: Vec<usize>) {
        self.selection = Some(sel);
    }

    /// Materializes the selection: returns a dense batch containing only
    /// the live rows. A batch with no mask passes through untouched.
    pub fn compact(self) -> ColumnBatch {
        match self.selection {
            None => self,
            Some(sel) => ColumnBatch::with_len(
                self.columns.iter().map(|c| c.gather(&sel)).collect(),
                sel.len(),
            ),
        }
    }

    /// A contiguous dense sub-batch `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> ColumnBatch {
        debug_assert!(self.selection.is_none());
        ColumnBatch::with_len(
            self.columns.iter().map(|c| c.slice(start, len)).collect(),
            len,
        )
    }

    /// Row `i` of a dense batch as datums.
    pub fn row(&self, i: usize) -> Row {
        debug_assert!(self.selection.is_none());
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// The live rows, read through the selection without compacting.
    pub fn to_rows(&self) -> Vec<Row> {
        match &self.selection {
            None => (0..self.len).map(|i| self.row(i)).collect(),
            Some(sel) => sel
                .iter()
                .map(|&i| self.columns.iter().map(|c| c.get(i)).collect())
                .collect(),
        }
    }
}

/// Concatenates batches into one dense batch (the materialization point
/// for build sides and full sorts).
pub fn concat_batches(batches: Vec<ColumnBatch>, arity: usize) -> ColumnBatch {
    let mut it = batches.into_iter().map(ColumnBatch::compact);
    let Some(mut acc) = it.next() else {
        return ColumnBatch::new((0..arity).map(|_| Column::Generic(vec![])).collect());
    };
    for b in it {
        acc.len += b.len;
        for (dst, src) in acc.columns.iter_mut().zip(b.columns.iter()) {
            dst.append(src);
        }
    }
    acc
}

/// Splits one dense batch into [`BATCH_SIZE`]-row chunks.
pub fn split_to_batches(b: ColumnBatch) -> Vec<ColumnBatch> {
    if b.len <= BATCH_SIZE {
        return if b.len == 0 { vec![] } else { vec![b] };
    }
    (0..b.len)
        .step_by(BATCH_SIZE)
        .map(|start| b.slice(start, BATCH_SIZE.min(b.len - start)))
        .collect()
}

/// Opens a batch stream and drains its live rows.
pub fn drain_rows(mut op: BatchOp) -> Result<Vec<Row>> {
    op.open()?;
    let mut rows = vec![];
    while let Some(b) = op.next()? {
        rows.extend(b.to_rows());
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// The exchange: morsel-driven parallelism over Operator<B>
// ---------------------------------------------------------------------

/// Default number of rows per morsel (the unit of work a parallel worker
/// claims at a time).
pub const DEFAULT_MORSEL_SIZE: usize = 4096;

/// Parallel-execution settings carried by the [`ExecContext`]: how many
/// worker threads an exchange may spawn and how many rows each claimed
/// morsel covers. `workers == 1` means serial execution (no exchange
/// operators are placed at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    pub workers: usize,
    pub morsel_size: usize,
}

impl Parallelism {
    pub fn new(workers: usize, morsel_size: usize) -> Parallelism {
        Parallelism {
            workers: workers.max(1),
            morsel_size: morsel_size.max(1),
        }
    }

    /// Serial execution: one worker, default morsel size.
    pub fn serial() -> Parallelism {
        Parallelism::new(1, DEFAULT_MORSEL_SIZE)
    }

    pub fn is_parallel(&self) -> bool {
        self.workers > 1
    }
}

impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::serial()
    }
}

/// Position of an exchange item in the serial order: (morsel index,
/// chunk within the morsel). Morsel indexes are dense — every index in
/// `0..total` is claimed by exactly one worker — and one worker emits a
/// morsel's chunks in order, so the pair reconstructs the exact batch
/// sequence serial execution would have produced.
pub type ExchangeTag = (usize, usize);

/// One message from an exchange worker to the gather side.
pub enum ExchangeItem<B> {
    /// A produced batch at this position in the serial order.
    Batch(ExchangeTag, B),
    /// A kernel error at this position. Ordered like a batch, so the
    /// gather surfaces exactly the error serial execution would have hit
    /// first — and never surfaces an error positioned after the point
    /// where a consumer (e.g. LIMIT) stops pulling.
    Error(ExchangeTag, CalciteError),
    /// All of this morsel's items have been emitted.
    MorselEnd(usize),
}

enum Buffered<B> {
    Batch(B),
    Error(CalciteError),
}

/// The one exchange: runs each worker operator on its own `std::thread`
/// and reassembles their tagged output in (morsel, chunk) order, so the
/// merged stream is byte-identical to what serial execution of the same
/// subtree would produce. A worker that reduces its share to one value
/// (a partial aggregate, a Top-K heap) tags it with its own worker index
/// as the morsel, so such values arrive in worker order.
///
/// The channel between workers and the gather is bounded, which gives
/// backpressure: when the consumer stops pulling (a satisfied LIMIT),
/// workers block after a bounded amount of prefetch and are shut down
/// when the gather is dropped. While the consumer is *waiting* for a
/// slow in-order morsel, however, faster workers keep draining into
/// the reorder buffer, so under heavy per-morsel cost skew that buffer
/// can grow toward the skewed portion of the output. It is not charged
/// to the memory budget; there is no credit-based flow control.
///
/// A worker thread that panics ends the stream with an execution error
/// once the other workers are done; it never leaves the consumer
/// waiting.
pub struct OrderedGatherOp<B> {
    workers: Vec<BoxOperator<ExchangeItem<B>>>,
    channel_cap: usize,
    state: Option<OrderedGatherState<B>>,
    failed: bool,
}

struct OrderedGatherState<B> {
    rx: Option<mpsc::Receiver<ExchangeItem<B>>>,
    handles: Vec<JoinHandle<()>>,
    buffered: BTreeMap<ExchangeTag, Buffered<B>>,
    ended: BTreeSet<usize>,
    next: ExchangeTag,
}

impl<B> Drop for OrderedGatherState<B> {
    fn drop(&mut self) {
        // Disconnect first so workers blocked on a full channel wake up
        // with a send error and exit, then reap the threads.
        self.rx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl<B: Send + 'static> OrderedGatherOp<B> {
    pub fn new(workers: Vec<BoxOperator<ExchangeItem<B>>>) -> OrderedGatherOp<B> {
        let n = workers.len().max(1);
        OrderedGatherOp {
            workers,
            channel_cap: n * 4,
            state: None,
            failed: false,
        }
    }
}

/// Spawns one driver thread per worker operator; each opens its subtree
/// and forwards every item into the shared bounded channel until the
/// stream ends or the receiver goes away.
fn spawn_exchange_workers<B: Send + 'static>(
    workers: Vec<BoxOperator<ExchangeItem<B>>>,
    cap: usize,
) -> (mpsc::Receiver<ExchangeItem<B>>, Vec<JoinHandle<()>>) {
    let (tx, rx) = mpsc::sync_channel::<ExchangeItem<B>>(cap);
    let handles = workers
        .into_iter()
        .map(|mut op| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                if let Err(e) = op.open() {
                    let _ = tx.send(ExchangeItem::Error((0, 0), e));
                    return;
                }
                loop {
                    match op.next() {
                        Ok(Some(item)) => {
                            if tx.send(item).is_err() {
                                return; // consumer went away
                            }
                        }
                        Ok(None) => return,
                        Err(e) => {
                            // Exchange workers embed kernel errors as
                            // tagged items; an untagged error here means
                            // the worker subtree itself failed.
                            let _ = tx.send(ExchangeItem::Error((0, 0), e));
                            return;
                        }
                    }
                }
            })
        })
        .collect();
    (rx, handles)
}

impl<B: Send + 'static> Operator<B> for OrderedGatherOp<B> {
    fn open(&mut self) -> Result<()> {
        let workers = std::mem::take(&mut self.workers);
        let (rx, handles) = spawn_exchange_workers(workers, self.channel_cap);
        self.state = Some(OrderedGatherState {
            rx: Some(rx),
            handles,
            buffered: BTreeMap::new(),
            ended: BTreeSet::new(),
            next: (0, 0),
        });
        Ok(())
    }

    fn next(&mut self) -> Result<Option<B>> {
        if self.failed {
            return Ok(None);
        }
        // Taken out while working; put back on the success paths. The
        // error paths leave it out, which drops the receiver and reaps
        // the worker threads.
        let mut st = self.state.take().expect("OrderedGatherOp not opened");
        loop {
            // Serve the next in-order item if it is already buffered.
            if let Some(item) = st.buffered.remove(&st.next) {
                st.next.1 += 1;
                match item {
                    Buffered::Batch(b) => {
                        self.state = Some(st);
                        return Ok(Some(b));
                    }
                    Buffered::Error(e) => {
                        self.failed = true;
                        return Err(e);
                    }
                }
            }
            // The current morsel is complete: advance to the next one.
            if st.ended.remove(&st.next.0) {
                st.next = (st.next.0 + 1, 0);
                continue;
            }
            let Some(rx) = st.rx.as_ref() else {
                self.state = Some(st);
                return Ok(None);
            };
            match rx.recv() {
                Ok(ExchangeItem::Batch(tag, b)) => {
                    st.buffered.insert(tag, Buffered::Batch(b));
                }
                Ok(ExchangeItem::Error(tag, e)) => {
                    st.buffered.insert(tag, Buffered::Error(e));
                }
                Ok(ExchangeItem::MorselEnd(m)) => {
                    st.ended.insert(m);
                }
                Err(_) => {
                    // Every worker is gone and the next item in order
                    // never came (it would have been served above). The
                    // stream ends cleanly only if nothing is left over
                    // and no worker panicked; a leftover means a worker
                    // died mid-morsel.
                    let mut panicked = false;
                    for h in st.handles.drain(..) {
                        panicked |= h.join().is_err();
                    }
                    st.rx = None;
                    if panicked || !st.buffered.is_empty() || !st.ended.is_empty() {
                        self.failed = true;
                        return Err(CalciteError::execution(if panicked {
                            "parallel exchange worker thread panicked"
                        } else {
                            "parallel exchange worker died mid-morsel"
                        }));
                    }
                    self.state = Some(st);
                    return Ok(None);
                }
            }
        }
    }
}

/// Streams pre-built batches — the tail of a build-then-stream operator
/// (aggregate and sort results, the outer-join padding batch).
pub struct BatchesOp<B> {
    batches: std::collections::VecDeque<B>,
}

impl<B> BatchesOp<B> {
    pub fn new(batches: impl IntoIterator<Item = B>) -> BatchesOp<B> {
        BatchesOp {
            batches: batches.into_iter().collect(),
        }
    }
}

impl<B: Send> Operator<B> for BatchesOp<B> {
    fn next(&mut self) -> Result<Option<B>> {
        Ok(self.batches.pop_front())
    }
}

/// Applies a per-batch kernel to a child stream. The kernel may drop a
/// batch entirely (`Ok(None)`, e.g. a filter that selected nothing), in
/// which case the next child batch is pulled — so downstream operators
/// never see empty batches.
pub struct FilterMapOp<B, F> {
    child: BoxOperator<B>,
    kernel: F,
}

impl<B, F> FilterMapOp<B, F>
where
    F: FnMut(B) -> Result<Option<B>> + Send,
{
    pub fn new(child: BoxOperator<B>, kernel: F) -> FilterMapOp<B, F> {
        FilterMapOp { child, kernel }
    }
}

impl<B: Send, F> Operator<B> for FilterMapOp<B, F>
where
    F: FnMut(B) -> Result<Option<B>> + Send,
{
    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<B>> {
        while let Some(b) = self.child.next()? {
            if let Some(out) = (self.kernel)(b)? {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

/// Concatenates child streams in order (UNION ALL). Children are opened
/// lazily, right before their first pull, so no child runs its build
/// phase until the stream actually reaches it.
pub struct ChainOp<B> {
    children: Vec<BoxOperator<B>>,
    current: usize,
    opened: bool,
}

impl<B> ChainOp<B> {
    pub fn new(children: Vec<BoxOperator<B>>) -> ChainOp<B> {
        ChainOp {
            children,
            current: 0,
            opened: false,
        }
    }
}

impl<B: Send> Operator<B> for ChainOp<B> {
    fn next(&mut self) -> Result<Option<B>> {
        while self.current < self.children.len() {
            if !self.opened {
                self.children[self.current].open()?;
                self.opened = true;
            }
            if let Some(b) = self.children[self.current].next()? {
                return Ok(Some(b));
            }
            self.current += 1;
            self.opened = false;
        }
        Ok(None)
    }
}

/// Rows pivoted into batches of [`BATCH_SIZE`], one batch per pull, so a
/// lazy row source stays lazy. Each batch carries its own length, so rows
/// without columns (zero-arity plans) keep their count. This is how rows
/// enter the batch contract: literal rows, row-only tables, adapters'
/// results and the row oracle's output.
pub struct RowsOp {
    rows: RowIter,
    kinds: Vec<TypeKind>,
}

impl RowsOp {
    pub fn new<I>(rows: I, kinds: Vec<TypeKind>) -> RowsOp
    where
        I: IntoIterator<Item = Row>,
        I::IntoIter: Send + 'static,
    {
        RowsOp {
            rows: Box::new(rows.into_iter()),
            kinds,
        }
    }
}

impl Operator<ColumnBatch> for RowsOp {
    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        let mut cols: Vec<Column> = self
            .kinds
            .iter()
            .map(|k| Column::for_kind_with_capacity(k, BATCH_SIZE))
            .collect();
        let mut n = 0;
        for row in self.rows.by_ref().take(BATCH_SIZE) {
            for (c, d) in cols.iter_mut().zip(row) {
                c.push(d);
            }
            n += 1;
        }
        Ok((n > 0).then(|| ColumnBatch::with_len(cols, n)))
    }
}

/// A batch stream over whole-table column vectors, yielding contiguous
/// `batch_size`-row slices one pull at a time. Only the slice being
/// served is copied; the backing columns are shared (typically behind an
/// `Arc` snapshot taken by the table).
pub struct SlicedColumns<S> {
    source: S,
    len: usize,
    pos: usize,
    batch_size: usize,
}

impl<S: AsRef<[Column]> + Send> SlicedColumns<S> {
    pub fn new(source: S, batch_size: usize) -> SlicedColumns<S> {
        SlicedColumns::new_range(source, batch_size, 0, usize::MAX)
    }

    /// A slicer over the row window `[start, start + len)` — the shape a
    /// morsel-driven scan serves: each worker streams its claimed range
    /// of the shared (typically `Arc`-snapshot) columns.
    pub fn new_range(source: S, batch_size: usize, start: usize, len: usize) -> SlicedColumns<S> {
        let total = source.as_ref().first().map_or(0, Column::len);
        let start = start.min(total);
        SlicedColumns {
            source,
            len: start.saturating_add(len).min(total),
            pos: start,
            batch_size: batch_size.max(1),
        }
    }
}

impl<S: AsRef<[Column]> + Send> Operator<ColumnBatch> for SlicedColumns<S> {
    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        if self.pos >= self.len {
            return Ok(None);
        }
        let take = self.batch_size.min(self.len - self.pos);
        let cols = self
            .source
            .as_ref()
            .iter()
            .map(|c| c.slice(self.pos, take))
            .collect();
        self.pos += take;
        Ok(Some(ColumnBatch::with_len(cols, take)))
    }
}

/// Executes plan subtrees belonging to one calling convention.
pub trait ConventionExecutor: Send + Sync {
    fn convention(&self) -> Convention;

    /// Executes `rel` (whose convention is this executor's) as an
    /// unopened batch stream. Children in foreign conventions are executed
    /// through `ctx`.
    fn execute(&self, rel: &Rel, ctx: &ExecContext) -> Result<BatchOp>;
}

/// Registry of executors, one per convention, plus the dynamic-parameter
/// bindings of the current execution (empty outside prepared statements),
/// the parallel-execution settings engines consult when shaping their
/// operator trees, and the spill environment (memory budget, tracker,
/// temp-file provider) build-then-stream operators use to degrade to
/// out-of-core execution.
#[derive(Clone)]
pub struct ExecContext {
    executors: HashMap<Convention, Arc<dyn ConventionExecutor>>,
    params: Arc<Vec<Datum>>,
    parallelism: Parallelism,
    spill: crate::buffer::SpillEnv,
}

impl Default for ExecContext {
    /// The default context honors the `RCALCITE_TEST_MEM_BUDGET`
    /// environment hook (bytes), so the CI spill matrix drives every
    /// suite's build operators through the out-of-core paths.
    fn default() -> ExecContext {
        let mut spill = crate::buffer::SpillEnv::default();
        if let Some(budget) = crate::buffer::MemoryBudget::from_env() {
            spill.budget = budget;
        }
        ExecContext {
            executors: HashMap::new(),
            params: Arc::new(vec![]),
            parallelism: Parallelism::default(),
            spill,
        }
    }
}

impl ExecContext {
    pub fn new() -> ExecContext {
        ExecContext::default()
    }

    pub fn register(&mut self, executor: Arc<dyn ConventionExecutor>) {
        self.executors.insert(executor.convention(), executor);
    }

    /// Sets the worker count and morsel size parallel-capable engines
    /// use when executing through this context.
    pub fn set_parallelism(&mut self, p: Parallelism) {
        self.parallelism = p;
    }

    /// The current parallel-execution settings.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Caps the bytes build-then-stream operators may hold in memory;
    /// beyond it they spill to disk. Unbounded by default.
    pub fn set_memory_budget(&mut self, budget: crate::buffer::MemoryBudget) {
        self.spill.budget = budget;
    }

    /// The memory budget of this context.
    pub fn memory_budget(&self) -> &crate::buffer::MemoryBudget {
        &self.spill.budget
    }

    /// Replaces the scratch-file source spill runs are written through.
    pub fn set_temp_provider(&mut self, temp: Arc<dyn crate::buffer::TempFileProvider>) {
        self.spill.temp = temp;
    }

    /// The recorder of spill decisions and bytes moved.
    pub fn spill_tracker(&self) -> &crate::buffer::SpillTracker {
        &self.spill.tracker
    }

    /// The full spill environment, cloned into operators at build time.
    pub fn spill_env(&self) -> &crate::buffer::SpillEnv {
        &self.spill
    }

    /// A context sharing this one's executors with dynamic-parameter
    /// bindings attached. The prepared-statement layer calls this once
    /// per execution; engines read the values back through [`Self::bind`].
    pub fn with_params(&self, params: Vec<Datum>) -> ExecContext {
        ExecContext {
            executors: self.executors.clone(),
            params: Arc::new(params),
            parallelism: self.parallelism,
            spill: self.spill.clone(),
        }
    }

    /// The current execution's parameter bindings (empty by default).
    pub fn params(&self) -> &[Datum] {
        &self.params
    }

    /// Resolves an expression against this execution's bindings: every
    /// `DynamicParam` becomes the bound literal. Engines call this on
    /// each expression they are about to evaluate, so one compiled plan
    /// serves many executions with different bindings.
    pub fn bind(&self, e: &crate::rex::RexNode) -> Result<crate::rex::RexNode> {
        if e.has_dynamic_params() {
            e.bind_params(&self.params)
        } else {
            Ok(e.clone())
        }
    }

    pub fn conventions(&self) -> Vec<Convention> {
        self.executors.keys().cloned().collect()
    }

    /// Executes a plan node, dispatching on its convention. `Convert`
    /// nodes are handled here: they execute their input in its own
    /// convention and pass its batches through (the stream *is* the
    /// transfer).
    pub fn execute(&self, rel: &Rel) -> Result<BatchOp> {
        if let RelOp::Convert { .. } = &rel.op {
            return self.execute(rel.input(0));
        }
        let ex = self.executors.get(&rel.convention).ok_or_else(|| {
            CalciteError::execution(format!(
                "no executor registered for convention '{}' (node {})",
                rel.convention,
                rel.op.payload_digest()
            ))
        })?;
        ex.execute(rel, self)
    }

    /// Executes and materializes all rows.
    pub fn execute_collect(&self, rel: &Rel) -> Result<Vec<Row>> {
        drain_rows(self.execute(rel)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemTable, TableRef};
    use crate::datum::Datum;
    use crate::rel::{self, RelNode};
    use crate::types::{RowTypeBuilder, TypeKind};

    struct ScanOnly(Convention);

    impl ConventionExecutor for ScanOnly {
        fn convention(&self) -> Convention {
            self.0.clone()
        }
        fn execute(&self, rel: &Rel, _ctx: &ExecContext) -> Result<BatchOp> {
            match &rel.op {
                RelOp::Scan { table } => Ok(Box::new(RowsOp::new(
                    table.table.scan()?,
                    table.table.row_type().kinds(),
                ))),
                other => Err(CalciteError::execution(format!(
                    "ScanOnly cannot execute {other:?}"
                ))),
            }
        }
    }

    fn scan_in(conv: &Convention) -> Rel {
        let t = MemTable::new(
            RowTypeBuilder::new().add("a", TypeKind::Integer).build(),
            vec![vec![Datum::Int(1)], vec![Datum::Int(2)]],
        );
        rel::scan(TableRef::new("s", "t", t)).with_convention(conv.clone())
    }

    #[test]
    fn dispatch_by_convention() {
        let conv = Convention::new("test");
        let mut ctx = ExecContext::new();
        ctx.register(Arc::new(ScanOnly(conv.clone())));
        let rows = ctx.execute_collect(&scan_in(&conv)).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn missing_executor_is_an_error() {
        let ctx = ExecContext::new();
        let err = ctx.execute_collect(&scan_in(&Convention::new("nope")));
        assert!(matches!(err, Err(CalciteError::Execution(_))));
    }

    #[test]
    fn rows_op_pivots_and_round_trips() {
        let rows: Vec<Row> = (0..2500)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    if i % 3 == 0 {
                        Datum::Null
                    } else {
                        Datum::str(format!("s{i}"))
                    },
                ]
            })
            .collect();
        let kinds = vec![TypeKind::Integer, TypeKind::Varchar];
        let mut op = RowsOp::new(rows.clone(), kinds);
        let b1 = op.next().unwrap().unwrap();
        assert_eq!((b1.arity(), b1.num_rows()), (2, BATCH_SIZE));
        assert!(matches!(b1.column(0), Column::Int { .. }));
        let mut collected = b1.to_rows();
        while let Some(b) = op.next().unwrap() {
            collected.extend(b.to_rows());
        }
        assert_eq!(collected, rows);
        // Rows without columns keep their count.
        let mut op = RowsOp::new(vec![vec![]; 2500], vec![]);
        let sizes: Vec<usize> =
            std::iter::from_fn(|| op.next().unwrap().map(|b| b.num_rows())).collect();
        assert_eq!(sizes, vec![BATCH_SIZE, BATCH_SIZE, 452]);
    }

    #[test]
    fn operator_combinators_stream() {
        // FilterMap drops batches the kernel rejects; Chain opens children
        // lazily and concatenates.
        let evens = FilterMapOp::new(Box::new(BatchesOp::new(vec![1, 2, 3, 4])), |b: i32| {
            Ok((b % 2 == 0).then_some(b * 10))
        });
        let mut chain = ChainOp::new(vec![
            Box::new(evens) as BoxOperator<i32>,
            Box::new(BatchesOp::new(vec![7])),
        ]);
        chain.open().unwrap();
        let mut out = vec![];
        while let Some(b) = chain.next().unwrap() {
            out.push(b);
        }
        assert_eq!(out, vec![20, 40, 7]);
    }

    #[test]
    fn sliced_columns_serves_bounded_slices() {
        let col = Column::from_datums(&TypeKind::Integer, (0..10).map(Datum::Int));
        let mut it = SlicedColumns::new(vec![col], 4);
        let sizes: Vec<usize> =
            std::iter::from_fn(|| it.next().unwrap().map(|b| b.num_rows())).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    /// A worker that claims morsels from a shared counter and emits
    /// tagged squares — the miniature of a morsel-driven scan chain.
    struct SquareWorker {
        counter: Arc<std::sync::atomic::AtomicUsize>,
        total: usize,
        pending: Option<ExchangeItem<i64>>,
    }

    impl Operator<ExchangeItem<i64>> for SquareWorker {
        fn next(&mut self) -> Result<Option<ExchangeItem<i64>>> {
            if let Some(item) = self.pending.take() {
                return Ok(Some(item));
            }
            let m = self
                .counter
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if m >= self.total {
                return Ok(None);
            }
            self.pending = Some(ExchangeItem::MorselEnd(m));
            Ok(Some(ExchangeItem::Batch((m, 0), (m * m) as i64)))
        }
    }

    #[test]
    fn ordered_gather_reassembles_serial_order() {
        let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let workers: Vec<BoxOperator<ExchangeItem<i64>>> = (0..4)
            .map(|_| {
                Box::new(SquareWorker {
                    counter: counter.clone(),
                    total: 50,
                    pending: None,
                }) as BoxOperator<ExchangeItem<i64>>
            })
            .collect();
        let mut gather = OrderedGatherOp::new(workers);
        gather.open().unwrap();
        let mut out = vec![];
        while let Some(v) = gather.next().unwrap() {
            out.push(v);
        }
        let expect: Vec<i64> = (0..50).map(|m: i64| m * m).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn ordered_gather_surfaces_errors_in_serial_position() {
        // Worker items arrive out of order; the error tagged at morsel 1
        // must surface after morsel 0's batch and before morsel 2's.
        struct Scripted(Vec<ExchangeItem<i64>>);
        impl Operator<ExchangeItem<i64>> for Scripted {
            fn next(&mut self) -> Result<Option<ExchangeItem<i64>>> {
                Ok(if self.0.is_empty() {
                    None
                } else {
                    Some(self.0.remove(0))
                })
            }
        }
        let w1 = Scripted(vec![
            ExchangeItem::Batch((2, 0), 20),
            ExchangeItem::MorselEnd(2),
            ExchangeItem::Error((1, 0), CalciteError::execution("boom")),
            ExchangeItem::MorselEnd(1),
        ]);
        let w2 = Scripted(vec![
            ExchangeItem::Batch((0, 0), 0),
            ExchangeItem::MorselEnd(0),
        ]);
        let mut gather = OrderedGatherOp::new(vec![
            Box::new(w1) as BoxOperator<ExchangeItem<i64>>,
            Box::new(w2) as BoxOperator<ExchangeItem<i64>>,
        ]);
        gather.open().unwrap();
        assert_eq!(gather.next().unwrap(), Some(0));
        assert!(gather.next().is_err());
        // After the error the stream is closed.
        assert_eq!(gather.next().unwrap(), None);
    }

    #[test]
    fn ordered_gather_turns_a_panicking_worker_into_an_error() {
        // One worker emits morsel 0 whole, then panics before morsel 1;
        // the other has already delivered morsel 2. The gather reaps both
        // threads and ends the stream with an error instead of waiting
        // for morsel 1 forever.
        struct PanicsAfterMorselZero(usize);
        impl Operator<ExchangeItem<i64>> for PanicsAfterMorselZero {
            fn next(&mut self) -> Result<Option<ExchangeItem<i64>>> {
                self.0 += 1;
                match self.0 {
                    1 => Ok(Some(ExchangeItem::Batch((0, 0), 0))),
                    2 => Ok(Some(ExchangeItem::MorselEnd(0))),
                    _ => panic!("injected exchange-worker fault"),
                }
            }
        }
        let morsel_two = BatchesOp::new(vec![
            ExchangeItem::Batch((2, 0), 20),
            ExchangeItem::MorselEnd(2),
        ]);
        let mut gather = OrderedGatherOp::new(vec![
            Box::new(PanicsAfterMorselZero(0)) as BoxOperator<ExchangeItem<i64>>,
            Box::new(morsel_two),
        ]);
        gather.open().unwrap();
        assert_eq!(gather.next().unwrap(), Some(0));
        let err = gather.next().unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        assert_eq!(gather.next().unwrap(), None);
    }

    #[test]
    fn sliced_columns_range_serves_a_window() {
        let col = Column::from_datums(&TypeKind::Integer, (0..10).map(Datum::Int));
        let it = SlicedColumns::new_range(vec![col], 3, 4, 5);
        let expect: Vec<Row> = (4..9).map(|i| vec![Datum::Int(i)]).collect();
        assert_eq!(drain_rows(Box::new(it)).unwrap(), expect);
        // Out-of-bounds windows clamp.
        let col = Column::from_datums(&TypeKind::Integer, (0..4).map(Datum::Int));
        let mut it = SlicedColumns::new_range(vec![col], 8, 2, 100);
        assert_eq!(it.next().unwrap().unwrap().num_rows(), 2);
        assert!(it.next().unwrap().is_none());
    }

    #[test]
    fn parallelism_defaults_and_clamps() {
        let p = Parallelism::default();
        assert_eq!(p.workers, 1);
        assert_eq!(p.morsel_size, DEFAULT_MORSEL_SIZE);
        assert!(!p.is_parallel());
        let p = Parallelism::new(0, 0);
        assert_eq!((p.workers, p.morsel_size), (1, 1));
        let mut ctx = ExecContext::new();
        ctx.set_parallelism(Parallelism::new(4, 64));
        let ctx2 = ctx.with_params(vec![Datum::Int(1)]);
        assert_eq!(ctx2.parallelism(), Parallelism::new(4, 64));
    }

    #[test]
    fn convert_nodes_delegate_to_input_convention() {
        let backend = Convention::new("backend");
        let mut ctx = ExecContext::new();
        ctx.register(Arc::new(ScanOnly(backend.clone())));
        let inner = scan_in(&backend);
        let conv_node = RelNode::new(
            RelOp::Convert {
                from: backend.clone(),
            },
            Convention::enumerable(),
            vec![inner],
        );
        // No enumerable executor registered, but Convert is handled by the
        // context itself.
        let rows = ctx.execute_collect(&conv_node).unwrap();
        assert_eq!(rows.len(), 2);
    }
}
