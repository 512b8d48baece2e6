//! MVCC transactions: snapshot isolation over the catalog's
//! copy-on-write tables, first-committer-wins conflict detection, and the
//! write path that routes row deltas through [`Table::apply_delta`].
//!
//! The design leans on the Arc-snapshot discipline the storage layer
//! already has: every MVCC-capable table hands out an immutable
//! [`Version`] (rows + stable row ids + index state, all referring to
//! the same instant) from [`Table::txn_snapshot`], and writers
//! path-copy away from a shared version under `Arc::make_mut`, so a
//! transaction that captured a version at BEGIN keeps reading it
//! unchanged — that *is* the version chain, with the Arc holders pinning
//! exactly the versions still needed and dropped versions reclaimed by
//! refcount.
//!
//! Writes are private until COMMIT: a [`Transaction`] stages [`DeltaOp`]s
//! per table and folds them into a pending [`NetDelta`] against its own
//! version of the table. The next read applies that fold to the version
//! through [`Version::apply_delta`]'s own path, copying only the chunks
//! (and indexes) the writes touch, so the transaction reads its own
//! writes through the store's scans, probes and `ANALYZE`. COMMIT, under
//! the manager's global
//! commit lock, (1) appends the whole transaction to the WAL, (2) runs the
//! first-committer-wins check — any transaction that committed after this
//! one began and wrote an overlapping row id aborts this one with a
//! retryable [`CalciteError::TxnConflict`] — then (3) logs `Commit`,
//! syncs, and applies the deltas onto the *current* table state, so
//! non-overlapping concurrent committers merge instead of clobbering.
//!
//! Every in-memory step costs O(|delta| · log n), not O(table): stores
//! keep their row ids strictly ascending, so a row id resolves to its
//! position by binary search on every path (staging, commit, WAL replay).
//! One step is not: a transaction's first read after an INSERT or DELETE
//! copies each ordered index's permutation of its version.

use crate::catalog::{Statistic, Table, TableRef};
use crate::datum::Row;
use crate::error::{CalciteError, Result};
use crate::ivm::{IvmRegistry, SignedDelta};
use crate::store::Version;
use crate::types::RowType;
use crate::wal::{WalRecord, WalWriter};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Deltas
// ---------------------------------------------------------------------

/// One row-level change, addressed by the table's stable row id (assigned
/// at insert, never reused), so deltas survive physical reordering and
/// replay deterministically from the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    Insert { row_id: u64, row: Row },
    Update { row_id: u64, row: Row },
    Delete { row_id: u64 },
}

impl DeltaOp {
    pub fn row_id(&self) -> u64 {
        match self {
            DeltaOp::Insert { row_id, .. }
            | DeltaOp::Update { row_id, .. }
            | DeltaOp::Delete { row_id } => *row_id,
        }
    }

    /// Whether this op participates in write-write conflict detection.
    /// Inserts touch rows no concurrent transaction can see, so they
    /// never conflict.
    pub fn conflicts(&self) -> bool {
        !matches!(self, DeltaOp::Insert { .. })
    }
}

/// The net effect of an op stream on one version of a table ("base"):
/// which base rows end up rewritten or deleted, and which new rows end
/// up inserted. Folding validates every op against the base and the ops
/// before it *without touching the store*, so a stream with a bad op is
/// rejected whole. Size is O(|ops|) — nothing here is table-length.
///
/// It is the plan of every apply: [`Version::apply_delta`] folds one and
/// applies it, and a [`Transaction`] keeps one pending per table until
/// its next read applies it to the transaction's own version.
#[derive(Debug, Default)]
pub struct NetDelta {
    /// Base position → the row's final content, `None` if deleted.
    base: BTreeMap<usize, Option<Row>>,
    /// Rows the stream inserted, ascending by id; `None` marks one the
    /// stream deleted again (ids are never reused).
    inserted: Vec<(u64, Option<Row>)>,
}

impl NetDelta {
    /// Folds `ops`, in order, into the net effect. `position_of` resolves
    /// a row id to its base position (a binary search over the store's
    /// ascending ids). On error `self` is half-folded and must be
    /// discarded; the store was never touched.
    pub fn fold(
        &mut self,
        position_of: impl Fn(u64) -> Option<usize>,
        ops: &[DeltaOp],
        arity: usize,
    ) -> Result<()> {
        let unknown =
            |what: &str, id: u64| CalciteError::internal(format!("{what} of unknown row id {id}"));
        for op in ops {
            if let DeltaOp::Insert { row, .. } | DeltaOp::Update { row, .. } = op {
                if row.len() != arity {
                    return Err(CalciteError::execution(format!(
                        "write arity mismatch: row has {} values, table has {arity} columns",
                        row.len()
                    )));
                }
            }
            let id = op.row_id();
            let staged = self.inserted.binary_search_by_key(&id, |(i, _)| *i);
            match op {
                DeltaOp::Insert { row, .. } => match staged {
                    Err(at) if position_of(id).is_none() => {
                        self.inserted.insert(at, (id, Some(row.clone())));
                    }
                    _ => {
                        return Err(CalciteError::internal(format!(
                            "duplicate row id {id} in insert"
                        )))
                    }
                },
                DeltaOp::Update { row, .. } => {
                    let slot = match staged {
                        Ok(at) => &mut self.inserted[at].1,
                        Err(_) => {
                            let pos = position_of(id).ok_or_else(|| unknown("update", id))?;
                            self.base.entry(pos).or_insert_with(|| Some(vec![]))
                        }
                    };
                    match slot {
                        Some(current) => *current = row.clone(),
                        None => return Err(unknown("update", id)),
                    }
                }
                DeltaOp::Delete { .. } => match staged {
                    Ok(at) => {
                        self.inserted[at]
                            .1
                            .take()
                            .ok_or_else(|| unknown("delete", id))?;
                    }
                    Err(_) => {
                        let pos = position_of(id).ok_or_else(|| unknown("delete", id))?;
                        if self.base.insert(pos, None) == Some(None) {
                            return Err(unknown("delete", id));
                        }
                    }
                },
            }
        }
        Ok(())
    }

    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.inserted.is_empty()
    }

    /// Base positions the stream deleted, ascending.
    pub fn deleted(&self) -> impl Iterator<Item = usize> + '_ {
        self.base
            .iter()
            .filter_map(|(pos, row)| row.is_none().then_some(*pos))
    }

    /// Base rows the stream rewrote (position, final row), ascending.
    pub fn rewritten(&self) -> impl Iterator<Item = (usize, &Row)> + '_ {
        self.base
            .iter()
            .filter_map(|(pos, row)| row.as_ref().map(|r| (*pos, r)))
    }

    /// Applies the net effect to the store it was folded against, which
    /// keeps its ids strictly ascending: rewrites land in place, deletes
    /// compact inside their chunks, and inserts land at their id's sorted
    /// slot — the tail, except when two writers' reserved ids commit out
    /// of order. Only the chunks touched are copied away from versions
    /// that share them. Infallible: `fold` already validated everything
    /// against this very store.
    pub(crate) fn apply(self, store: &mut Version) -> DeltaOutcome {
        let mut out = DeltaOutcome {
            old_len: store.len(),
            ..DeltaOutcome::default()
        };
        for (pos, row) in self.base {
            match row {
                Some(row) => {
                    store.rewrite(pos, row);
                    out.rewritten.push(pos);
                }
                None => out.deleted.push(pos),
            }
        }
        store.remove(&out.deleted);
        let (ids, rows): (Vec<u64>, Vec<Row>) = self
            .inserted
            .into_iter()
            .filter_map(|(id, row)| Some((id, row?)))
            .unzip();
        out.max_inserted_id = ids.last().copied();
        out.inserted = store.insert(ids, rows);
        out
    }
}

/// How applying a [`NetDelta`] moved things — what secondary indexes need
/// to follow the store without a rebuild. Every list is O(|ops|) long.
#[derive(Debug, Default)]
pub struct DeltaOutcome {
    /// Pre-delta positions of deleted rows, ascending.
    pub deleted: Vec<usize>,
    /// Pre-delta positions of rows rewritten in place, ascending.
    pub rewritten: Vec<usize>,
    /// Post-delta positions of inserted rows, ascending.
    pub inserted: Vec<usize>,
    /// Largest row id assigned by an insert, if any — callers bump their
    /// id counter past it (WAL replay inserts carry explicit ids).
    pub max_inserted_id: Option<u64>,
    old_len: usize,
}

impl DeltaOutcome {
    /// Whether any surviving row changed position: a delete that is not
    /// a suffix of the store, or an insert below the tail.
    pub fn shifts(&self) -> bool {
        let survivors = self.old_len - self.deleted.len();
        self.deleted.first().is_some_and(|d| *d < survivors)
            || self.inserted.first().is_some_and(|i| *i < survivors)
    }

    /// The post-delta position of the surviving row that was at `pos`.
    pub fn final_pos(&self, pos: usize) -> usize {
        let q = pos - self.deleted.partition_point(|d| *d < pos);
        // `inserted[k] - k` is insert k's slot among the survivors; the
        // row moves up by the number of inserts at or below it.
        let (mut lo, mut hi) = (0, self.inserted.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.inserted[mid] - mid <= q {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        q + lo
    }
}

// ---------------------------------------------------------------------
// Read views
// ---------------------------------------------------------------------

/// A [`Table`] over a transaction's own version, substituted for
/// base-table scans while the transaction is open so every statement
/// reads the BEGIN-time snapshot plus the transaction's own writes. Its
/// snapshot scans, indexes and probes are the version's, through the
/// [`Table`] defaults.
pub struct SnapshotTable {
    row_type: RowType,
    version: Arc<Version>,
}

impl SnapshotTable {
    pub fn new(row_type: RowType, version: Arc<Version>) -> Arc<SnapshotTable> {
        Arc::new(SnapshotTable { row_type, version })
    }
}

impl Table for SnapshotTable {
    fn row_type(&self) -> RowType {
        self.row_type.clone()
    }

    fn statistic(&self) -> Statistic {
        Statistic::of_rows(self.version.len() as f64)
    }

    fn scan(&self) -> Result<Box<dyn Iterator<Item = Row> + Send>> {
        Ok(Box::new(Arc::clone(&self.version).into_rows()))
    }

    fn txn_snapshot(&self) -> Option<Arc<Version>> {
        Some(Arc::clone(&self.version))
    }
}

// ---------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------

struct TxnTable {
    tref: TableRef,
    /// What this transaction reads: the BEGIN version with `ops[..applied]`
    /// applied, privately. It shares with BEGIN every chunk and index
    /// those writes left alone.
    view: Arc<Version>,
    ops: Vec<DeltaOp>,
    applied: usize,
    /// Net effect of `ops[applied..]` on `view`, folded by every `stage`
    /// in O(|ops| · log n) and applied by the next read.
    pending: NetDelta,
    /// Row ids this transaction updated or deleted (inserts excluded):
    /// the first-committer-wins footprint.
    write_set: HashSet<u64>,
}

/// A transaction handle: BEGIN-time versions of every MVCC-capable table,
/// a staged write set, and the commit/rollback protocol. Dropping an
/// uncommitted transaction is a rollback.
pub struct Transaction {
    id: u64,
    begin_ts: u64,
    mgr: Arc<TxnManager>,
    tables: HashMap<String, TxnTable>,
    finished: bool,
}

impl Transaction {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn begin_ts(&self) -> u64 {
        self.begin_ts
    }

    /// Qualified names of tables with staged writes.
    pub fn written_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .iter()
            .filter(|(_, t)| !t.ops.is_empty())
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        names
    }

    /// Whether `qualified` was captured at BEGIN (i.e. is MVCC-capable).
    pub fn covers(&self, qualified: &str) -> bool {
        self.tables.contains_key(qualified)
    }

    /// The version statements should read for `qualified`: the BEGIN
    /// version with this transaction's staged writes applied. Applies
    /// what was staged since the last read (the chunks and indexes it
    /// touches are copied, in place once this transaction owns them);
    /// with nothing newly staged it hands out the same `Arc` again.
    pub fn read_view(&mut self, qualified: &str) -> Option<Arc<Version>> {
        let t = self.tables.get_mut(qualified)?;
        if !t.pending.is_empty() {
            Version::apply_net(&mut t.view, std::mem::take(&mut t.pending));
        }
        t.applied = t.ops.len();
        Some(Arc::clone(&t.view))
    }

    /// A [`Table`] serving [`Transaction::read_view`], for substituting
    /// into scans of `qualified` while this transaction is open.
    pub fn snapshot_table(&mut self, qualified: &str) -> Option<Arc<SnapshotTable>> {
        let row_type = self.tables.get(qualified)?.tref.table.row_type();
        Some(SnapshotTable::new(row_type, self.read_view(qualified)?))
    }

    /// Stages `ops` against `qualified`: validates them against the
    /// transaction's version and the writes staged since its last read
    /// (unknown or duplicate row ids and arity mismatches fail here, not
    /// at COMMIT), folds them into the pending delta, and records
    /// updated/deleted row ids in the conflict footprint.
    /// O(|ops| · log n). A rejected batch stages nothing.
    pub fn stage(&mut self, qualified: &str, ops: Vec<DeltaOp>) -> Result<usize> {
        if ops.is_empty() {
            return Ok(0);
        }
        let t = self.tables.get_mut(qualified).ok_or_else(|| {
            CalciteError::unsupported(format!(
                "table '{qualified}' does not support transactional writes"
            ))
        })?;
        let arity = t.view.arity();
        let view = &t.view;
        if let Err(e) = t.pending.fold(|id| view.position_of(id), &ops, arity) {
            // Half-folded: rebuild from the ops that did stage cleanly.
            t.pending = NetDelta::default();
            let since = &t.ops[t.applied..];
            t.pending.fold(|id| view.position_of(id), since, arity)?;
            return Err(e);
        }
        for op in &ops {
            if op.conflicts() {
                t.write_set.insert(op.row_id());
            }
        }
        let applied = ops.len();
        t.ops.extend(ops);
        Ok(applied)
    }

    /// Commits: WAL-logs the transaction, runs first-committer-wins, and
    /// applies the staged deltas to the shared tables. Returns the commit
    /// timestamp. A conflict aborts with a retryable error; either way
    /// the transaction is finished.
    pub fn commit(mut self) -> Result<u64> {
        self.finished = true;
        let staged: Vec<(TableRef, Vec<DeltaOp>, HashSet<u64>)> = self
            .tables
            .drain()
            .filter(|(_, t)| !t.ops.is_empty())
            .map(|(_, t)| (t.tref, t.ops, t.write_set))
            .collect();
        let mgr = Arc::clone(&self.mgr);
        mgr.commit(self.id, self.begin_ts, staged)
    }

    /// Abandons every staged write. Nothing was shared or logged, so this
    /// only releases the snapshot.
    pub fn rollback(mut self) {
        self.finished = true;
        self.mgr.end(self.id);
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.finished {
            self.mgr.end(self.id);
        }
    }
}

/// The signed row delta `ops` make to `base`, the version they are about
/// to be applied to: `-pre-image` for each base row rewritten or deleted,
/// `+final row` for each rewritten or live inserted row. O(|ops| · log n):
/// the pre-images are read from `base`, not from a copy of the table.
pub(crate) fn signed_delta(base: &Version, ops: &[DeltaOp]) -> Result<SignedDelta> {
    let mut net = NetDelta::default();
    net.fold(|id| base.position_of(id), ops, base.arity())?;
    let mut out = Vec::with_capacity(ops.len());
    for (pos, row) in net.base {
        out.push((base.row(pos), -1));
        out.extend(row.map(|row| (row, 1)));
    }
    let inserted = net.inserted.into_iter();
    out.extend(inserted.filter_map(|(_, row)| Some((row?, 1))));
    Ok(out)
}

// ---------------------------------------------------------------------
// Manager
// ---------------------------------------------------------------------

struct CommitFootprint {
    commit_ts: u64,
    /// Qualified table name → row ids updated/deleted.
    writes: Vec<(String, HashSet<u64>)>,
}

/// Issues begin/commit timestamps from one monotonic clock, tracks active
/// transactions, runs the first-committer-wins check, and owns the
/// optional WAL. One manager lives on each [`crate::catalog::Catalog`]
/// and is shared by every connection over it.
#[derive(Default)]
pub struct TxnManager {
    clock: AtomicU64,
    ids: AtomicU64,
    /// Serializes the validate→log→apply window of COMMIT.
    commit_lock: Mutex<()>,
    /// Active transaction id → begin timestamp.
    active: Mutex<BTreeMap<u64, u64>>,
    /// Footprints of committed writers, kept only while some active
    /// transaction could still conflict with them.
    history: Mutex<Vec<CommitFootprint>>,
    wal: Mutex<Option<WalWriter>>,
    /// The views every commit maintains, under the commit lock.
    ivm: Arc<IvmRegistry>,
}

impl TxnManager {
    pub fn new() -> TxnManager {
        TxnManager::default()
    }

    /// A manager whose commits maintain the views registered in `ivm`.
    pub fn with_ivm(ivm: Arc<IvmRegistry>) -> TxnManager {
        TxnManager {
            ivm,
            ..TxnManager::default()
        }
    }

    /// Attaches (or replaces) the write-ahead log. Commits from this
    /// point on are logged; recovery is [`crate::wal::replay`].
    pub fn attach_wal(&self, writer: WalWriter) {
        *self.wal.lock() = Some(writer);
    }

    /// Runs `f` while holding the commit lock, so no transaction can
    /// commit (and no BEGIN can capture a snapshot) during it. Used by
    /// operations that must observe or replace multi-table state
    /// atomically with respect to commits — materialized-view creation
    /// and REFRESH. `f` must not commit or begin transactions itself.
    pub fn with_commit_lock<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.commit_lock.lock();
        f()
    }

    /// Advances the transaction-id and timestamp clocks past values an
    /// earlier incarnation already used. Call after WAL recovery with the
    /// [`crate::wal::ReplayReport`] maxima before attaching a writer to
    /// the same log, so continued commits never reuse an id or commit
    /// timestamp already present in the file.
    pub fn seed_counters(&self, max_txn_id: u64, max_commit_ts: u64) {
        self.ids.fetch_max(max_txn_id, Ordering::SeqCst);
        self.clock.fetch_max(max_commit_ts, Ordering::SeqCst);
    }

    /// Active transaction count (diagnostics).
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// Begins a transaction, eagerly capturing a version of every
    /// MVCC-capable table in `tables` — the snapshot a statement at any
    /// later point in the transaction will read.
    pub fn begin(self: &Arc<Self>, tables: &[TableRef]) -> Transaction {
        let id = self.ids.fetch_add(1, Ordering::SeqCst) + 1;
        // Timestamp assignment and version capture happen under the
        // commit lock: COMMIT applies its deltas table-by-table while
        // holding it, so capturing outside could snapshot table A
        // post-commit but table B pre-commit — a half-applied committed
        // transaction, which snapshot isolation forbids. Under the lock,
        // a commit is either entirely before this begin (all its deltas
        // visible) or entirely after (none visible), and begin_ts orders
        // consistently with commit_ts either way.
        let _commit_guard = self.commit_lock.lock();
        let begin_ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        self.active.lock().insert(id, begin_ts);
        let mut captured = HashMap::new();
        for tref in tables {
            if let Some(version) = tref.table.txn_snapshot() {
                captured.insert(
                    tref.qualified_name(),
                    TxnTable {
                        tref: tref.clone(),
                        view: version,
                        ops: vec![],
                        applied: 0,
                        pending: NetDelta::default(),
                        write_set: HashSet::new(),
                    },
                );
            }
        }
        Transaction {
            id,
            begin_ts,
            mgr: Arc::clone(self),
            tables: captured,
            finished: false,
        }
    }

    fn commit(
        &self,
        id: u64,
        begin_ts: u64,
        staged: Vec<(TableRef, Vec<DeltaOp>, HashSet<u64>)>,
    ) -> Result<u64> {
        let _commit_guard = self.commit_lock.lock();
        if staged.is_empty() {
            // Read-only: nothing to validate, log or apply.
            let commit_ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
            self.end(id);
            return Ok(commit_ts);
        }

        // 1. Log the transaction body. A WAL failure (including injected
        // crashes) aborts the commit before anything is shared.
        let mut wal = self.wal.lock();
        if let Some(w) = wal.as_mut() {
            let logged = (|| -> Result<()> {
                w.append(&WalRecord::Begin { txn: id })?;
                for (tref, ops, _) in &staged {
                    let table = tref.qualified_name();
                    for op in ops {
                        w.append(&WalRecord::from_op(id, &table, op))?;
                    }
                }
                Ok(())
            })();
            if let Err(e) = logged {
                drop(wal);
                self.end(id);
                return Err(e);
            }
        }

        // 2. First-committer-wins: anyone who committed after we began
        // and touched a row we updated/deleted wins; we abort.
        let conflict = {
            let history = self.history.lock();
            history
                .iter()
                .filter(|rec| rec.commit_ts > begin_ts)
                .find_map(|rec| {
                    rec.writes.iter().find_map(|(table, rows)| {
                        staged
                            .iter()
                            .find(|(tref, _, ws)| {
                                tref.qualified_name() == *table && !ws.is_disjoint(rows)
                            })
                            .map(|_| table.clone())
                    })
                })
        };
        if let Some(table) = conflict {
            if let Some(w) = wal.as_mut() {
                let _ = w.append(&WalRecord::Abort { txn: id });
                let _ = w.sync();
            }
            drop(wal);
            self.end(id);
            return Err(CalciteError::txn_conflict(format!(
                "concurrent transaction already updated rows of '{table}'"
            )));
        }

        // 3. Commit point: the Commit record is durable before any table
        // state changes.
        let commit_ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(w) = wal.as_mut() {
            let durable = w
                .append(&WalRecord::Commit { txn: id, commit_ts })
                .and_then(|()| w.sync());
            if let Err(e) = durable {
                drop(wal);
                self.end(id);
                return Err(e);
            }
        }
        drop(wal);

        // 4. Apply onto the *current* shared versions (not the snapshot):
        // non-conflicting concurrent commits compose. A table a maintained
        // view reads first yields its signed delta against the version
        // this apply replaces. That `Arc` is released before the apply,
        // so a chunk nobody else pins is rewritten in place.
        let views = self.ivm.views();
        let mut changes = Vec::with_capacity(staged.len());
        for (tref, ops, _) in &staged {
            let name = tref.qualified_name();
            let delta = if views.iter().any(|v| v.maintains_from(&name)) {
                let base = tref.table.txn_snapshot();
                base.map(|base| signed_delta(&base, ops)).transpose()?
            } else {
                None
            };
            tref.table.apply_delta(ops)?;
            changes.push((name, delta));
        }

        // 4b. Maintain the views while the commit lock is still held, so
        // base tables and views advance atomically with respect to
        // snapshot capture: a BEGIN (which takes the lock too) sees either
        // none of a commit or all of it, views included.
        for view in &views {
            self.ivm.maintain_view(view, &changes);
        }

        // 5. Publish the footprint for later committers' FCW checks.
        self.history.lock().push(CommitFootprint {
            commit_ts,
            writes: staged
                .into_iter()
                .map(|(tref, _, ws)| (tref.qualified_name(), ws))
                .collect(),
        });
        self.end(id);
        Ok(commit_ts)
    }

    /// Removes `id` from the active set and prunes history no remaining
    /// transaction can conflict with.
    fn end(&self, id: u64) {
        let mut active = self.active.lock();
        active.remove(&id);
        let min_begin = active.values().min().copied();
        drop(active);
        let mut history = self.history.lock();
        match min_begin {
            // A footprint only matters to transactions that began before
            // it committed; the oldest active begin bounds that.
            Some(m) => history.retain(|rec| rec.commit_ts > m),
            None => history.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemTable;
    use crate::datum::{Column, Datum};
    use crate::index::{BoundProbe, IndexDef};
    use crate::types::{RowTypeBuilder, TypeKind};

    fn table() -> Arc<MemTable> {
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add("v", TypeKind::Integer)
                .build(),
            (0..4)
                .map(|i| vec![Datum::Int(i), Datum::Int(10 * i)])
                .collect(),
        )
    }

    fn tref(t: &Arc<MemTable>) -> TableRef {
        TableRef::new("s", "t", t.clone() as Arc<dyn Table>)
    }

    fn int_rows(vals: &[i64]) -> Vec<Row> {
        vals.iter().map(|v| vec![Datum::Int(*v)]).collect()
    }

    fn upd(row_id: u64, v: i64) -> DeltaOp {
        DeltaOp::Update {
            row_id,
            row: vec![Datum::Int(v)],
        }
    }

    fn ins(row_id: u64, v: i64) -> DeltaOp {
        DeltaOp::Insert {
            row_id,
            row: vec![Datum::Int(v)],
        }
    }

    /// One-column rows under ids `0..`, three to a chunk, so the cases
    /// below cross chunk boundaries.
    fn store(vals: &[i64]) -> Version {
        Version::with_capacity([TypeKind::Integer].into(), 3, 0, int_rows(vals))
    }

    fn contents(store: &Version) -> (Vec<u64>, Vec<Row>) {
        store.rows_with_ids().unzip()
    }

    fn apply(store: &mut Version, ops: &[DeltaOp]) -> Result<DeltaOutcome> {
        let mut net = NetDelta::default();
        net.fold(|id| store.position_of(id), ops, 1)?;
        Ok(net.apply(store))
    }

    #[test]
    fn apply_reports_sparse_outcome() {
        let mut store = store(&[0, 1, 2, 3]);
        let ops = [DeltaOp::Delete { row_id: 1 }, upd(2, 99), ins(7, 70)];
        let out = apply(&mut store, &ops).unwrap();
        assert_eq!(
            contents(&store),
            (vec![0, 2, 3, 7], int_rows(&[0, 99, 3, 70]))
        );
        assert_eq!(out.deleted, vec![1]);
        assert_eq!(out.rewritten, vec![2]);
        assert_eq!(out.inserted, vec![3]);
        assert_eq!(out.max_inserted_id, Some(7));
        assert!(out.shifts());
        assert_eq!(
            [0, 2, 3].map(|p| out.final_pos(p)),
            [0, 1, 2],
            "survivors close the gap the delete left"
        );
    }

    #[test]
    fn outcome_size_is_bounded_by_the_ops_not_the_table() {
        let n = 50_000;
        let mut store = store(&(0..n).collect::<Vec<_>>());
        let ops = [
            upd(17, -1),
            upd(17, -2), // same row twice: one entry
            DeltaOp::Delete { row_id: 40_000 },
            ins(n as u64, 5),
            ins(n as u64 + 1, 6),
            DeltaOp::Delete { row_id: n as u64 }, // insert-then-delete: gone
        ];
        let mut net = NetDelta::default();
        net.fold(|id| store.position_of(id), &ops, 1).unwrap();
        assert_eq!(net.rewritten().count() + net.deleted().count(), 2);
        let out = net.apply(&mut store);
        assert_eq!(
            (out.deleted.len(), out.rewritten.len(), out.inserted.len()),
            (1, 1, 1)
        );
        assert_eq!(store.len(), n as usize); // -1 deleted, +1 inserted
        assert_eq!(store.row(17), vec![Datum::Int(-2)]);
        assert_eq!(store.row_id(store.len() - 1), n as u64 + 1);
        // A tail insert and an in-place rewrite move nobody.
        let out = apply(&mut store, &[upd(3, 0), ins(n as u64 + 9, 1)]).unwrap();
        assert!(!out.shifts());
    }

    #[test]
    fn ids_stay_ascending_when_reservations_commit_out_of_order() {
        let mut store = store(&[0, 10]);
        // Writer B (ids 4,5) commits before writer A (ids 2,3).
        apply(&mut store, &[ins(4, 40), ins(5, 50)]).unwrap();
        let out = apply(&mut store, &[ins(3, 30), ins(2, 20)]).unwrap();
        assert_eq!(
            contents(&store),
            (vec![0, 1, 2, 3, 4, 5], int_rows(&[0, 10, 20, 30, 40, 50]))
        );
        assert_eq!(out.inserted, vec![2, 3]);
        assert!(out.shifts());
        assert_eq!([1, 2, 3].map(|p| out.final_pos(p)), [1, 4, 5]);
    }

    #[test]
    fn update_then_delete_same_row() {
        let mut store = store(&[1]);
        let ops = [upd(0, 2), DeltaOp::Delete { row_id: 0 }];
        apply(&mut store, &ops).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
    }

    /// A stream whose last op is invalid must leave the table — rows,
    /// ids, every index, the data version — exactly as it was.
    #[test]
    fn invalid_op_leaves_the_table_untouched() {
        let t = table();
        t.create_index(&IndexDef::ordered("o", vec![1])).unwrap();
        t.create_index(&IndexDef::hash("h", vec![0])).unwrap();
        let image = |t: &MemTable| {
            let probes: Vec<Vec<usize>> = ["o", "h"]
                .iter()
                .flat_map(|name| {
                    let snap = t.index_probe_snapshot(name).unwrap().unwrap();
                    (-1..60).map(move |k| snap.positions(&BoundProbe::point(vec![Datum::Int(k)])))
                })
                .collect();
            (t.rows(), t.row_ids(), probes, t.data_version())
        };
        let before = image(&t);
        let good = [
            DeltaOp::Delete { row_id: 1 },
            DeltaOp::Update {
                row_id: 2,
                row: vec![Datum::Int(2), Datum::Int(-5)],
            },
            DeltaOp::Insert {
                row_id: 9,
                row: vec![Datum::Int(9), Datum::Int(90)],
            },
        ];
        let bad_tails = [
            DeltaOp::Delete { row_id: 77 },
            DeltaOp::Delete { row_id: 1 }, // already deleted by this stream
            DeltaOp::Update {
                row_id: 77,
                row: vec![Datum::Int(0), Datum::Int(0)],
            },
            DeltaOp::Update {
                row_id: 0,
                row: vec![Datum::Int(0)], // arity
            },
            DeltaOp::Insert {
                row_id: 3, // id already in the table
                row: vec![Datum::Int(0), Datum::Int(0)],
            },
            DeltaOp::Insert {
                row_id: 9, // id already inserted by this stream
                row: vec![Datum::Int(0), Datum::Int(0)],
            },
        ];
        for bad in bad_tails {
            let mut ops = good.to_vec();
            ops.push(bad.clone());
            assert!(t.apply_delta(&ops).is_err(), "{bad:?} must be rejected");
            assert_eq!(image(&t), before, "{bad:?} changed the table");
        }
        t.apply_delta(&good).unwrap();
        assert_eq!(t.row_ids(), vec![0, 2, 3, 9]);
        assert_eq!(t.data_version(), before.3.map(|v| v + 1));
    }

    #[test]
    fn rejected_stage_keeps_the_writes_of_earlier_statements() {
        let t = table();
        let mgr = Arc::new(TxnManager::new());
        let mut txn = mgr.begin(&[tref(&t)]);
        let row = |v: i64| vec![Datum::Int(3), Datum::Int(v)];
        txn.stage(
            "s.t",
            vec![DeltaOp::Update {
                row_id: 3,
                row: row(7),
            }],
        )
        .unwrap();
        let err = txn
            .stage(
                "s.t",
                vec![
                    DeltaOp::Update {
                        row_id: 3,
                        row: row(8),
                    },
                    DeltaOp::Delete { row_id: 99 },
                ],
            )
            .unwrap_err();
        assert!(err.to_string().contains("unknown row id 99"), "{err}");
        // The rejected batch staged nothing; the first statement stands.
        assert_eq!(txn.read_view("s.t").unwrap().row(3), row(7));
        txn.commit().unwrap();
        assert_eq!(t.rows()[3], row(7));
    }

    /// Read-your-writes through the index: the transaction's version
    /// carries the index, maintained by the same unlink/relink as a
    /// commit. Positions are dense, so answers are read as row ids.
    #[test]
    fn written_view_still_probes_the_index() {
        let t = table(); // (id, v) = (i, 10 i), i in 0..4
        t.create_index(&IndexDef::ordered("by_v", vec![1])).unwrap();
        let mgr = Arc::new(TxnManager::new());
        let mut txn = mgr.begin(&[tref(&t)]);
        let id = t.reserve_row_ids(1).unwrap();
        txn.stage(
            "s.t",
            vec![
                // Row 1 moves from key 10 to key 30; row 2 is deleted; a
                // new row arrives at key 10.
                DeltaOp::Update {
                    row_id: 1,
                    row: vec![Datum::Int(1), Datum::Int(30)],
                },
                DeltaOp::Delete { row_id: 2 },
                DeltaOp::Insert {
                    row_id: id,
                    row: vec![Datum::Int(9), Datum::Int(10)],
                },
            ],
        )
        .unwrap();
        let view = txn.read_view("s.t").unwrap();
        assert_eq!(view.len(), 4);
        let probe = view.index_probe("by_v").expect("index survives the write");
        let at = |v: i64| -> Vec<u64> {
            let found = probe.positions(&BoundProbe::point(vec![Datum::Int(v)]));
            found.into_iter().map(|pos| view.row_id(pos)).collect()
        };
        assert_eq!(at(10), vec![4], "the old key-10 row moved away");
        assert_eq!(at(20), Vec::<u64>::new(), "deleted");
        assert_eq!(at(30), vec![1, 3], "moved-in row, in position order");
        assert_eq!(view.row_id(view.len() - 1), id);
        assert_eq!(view.position_of(2), None);
        let scanned: Vec<u64> = view.row_ids().collect();
        assert_eq!(scanned, vec![0, 1, 3, 4]);
    }

    /// A written view is the BEGIN version with the write applied: one
    /// UPDATE copies the chunk it lands in and shares every other one, an
    /// INSERT is found by the view's own index, and a read with nothing
    /// newly staged hands out the same version.
    #[test]
    fn a_written_view_shares_what_it_did_not_touch() {
        let n = 3 * crate::store::CHUNK_ROWS as i64;
        let t = MemTable::new(
            table().row_type(),
            (0..n)
                .map(|i| vec![Datum::Int(i), Datum::Int(10 * i)])
                .collect(),
        );
        t.create_index(&IndexDef::ordered("by_v", vec![1])).unwrap();
        let mgr = Arc::new(TxnManager::new());
        let mut txn = mgr.begin(&[tref(&t)]);
        let begin = txn.read_view("s.t").unwrap();
        let row = vec![Datum::Int(5), Datum::Int(-1)];
        txn.stage("s.t", vec![DeltaOp::Update { row_id: 5, row }])
            .unwrap();
        let updated = txn.read_view("s.t").unwrap();
        let chunks = |v: &Version| -> Vec<*const Column> {
            v.chunks().map(|(_, columns)| columns.as_ptr()).collect()
        };
        let (before, after) = (chunks(&begin), chunks(&updated));
        assert_eq!(before.len(), 3);
        let shared = before.iter().zip(&after).filter(|(a, b)| a == b).count();
        assert_eq!((after.len(), shared), (3, 2), "one UPDATE copies one chunk");
        assert_eq!(updated.row(5)[1], Datum::Int(-1));
        assert_eq!(begin.row(5)[1], Datum::Int(50), "BEGIN is untouched");
        let again = txn.read_view("s.t").unwrap();
        assert!(Arc::ptr_eq(&updated, &again), "nothing newly staged");

        let id = t.reserve_row_ids(1).unwrap();
        let row = vec![Datum::Int(n), Datum::Int(-7)];
        txn.stage("s.t", vec![DeltaOp::Insert { row_id: id, row }])
            .unwrap();
        let inserted = txn.read_view("s.t").unwrap();
        let probe = inserted.index_probe("by_v").unwrap();
        let found = probe.positions(&BoundProbe::point(vec![Datum::Int(-7)]));
        let ids: Vec<u64> = found.iter().map(|pos| inserted.row_id(*pos)).collect();
        assert_eq!(ids, vec![id]);
        assert_eq!(inserted.len(), n as usize + 1);
        assert_eq!(begin.len(), n as usize);
    }

    #[test]
    fn snapshot_pins_begin_state_and_reads_own_writes() {
        let t = table();
        let mgr = Arc::new(TxnManager::new());
        let mut txn = mgr.begin(&[tref(&t)]);
        // Another writer commits directly.
        t.apply_delta(&[DeltaOp::Update {
            row_id: 0,
            row: vec![Datum::Int(0), Datum::Int(-1)],
        }])
        .unwrap();
        let view = txn.read_view("s.t").unwrap();
        assert_eq!(view.row(0)[1], Datum::Int(0)); // pre-commit value

        // Own write becomes visible through the transaction's version.
        txn.stage(
            "s.t",
            vec![DeltaOp::Update {
                row_id: 3,
                row: vec![Datum::Int(3), Datum::Int(999)],
            }],
        )
        .unwrap();
        let view = txn.read_view("s.t").unwrap();
        assert_eq!(view.row(3)[1], Datum::Int(999));
        assert_eq!(view.row(0)[1], Datum::Int(0)); // still the snapshot
        txn.rollback();
        // Rollback left the live table with only the direct write.
        assert_eq!(t.rows()[0][1], Datum::Int(-1));
        assert_eq!(t.rows()[3][1], Datum::Int(30));
    }

    #[test]
    fn first_committer_wins() {
        let t = table();
        let mgr = Arc::new(TxnManager::new());
        let mut a = mgr.begin(&[tref(&t)]);
        let mut b = mgr.begin(&[tref(&t)]);
        let upd = |v: i64| DeltaOp::Update {
            row_id: 2,
            row: vec![Datum::Int(2), Datum::Int(v)],
        };
        a.stage("s.t", vec![upd(100)]).unwrap();
        b.stage("s.t", vec![upd(200)]).unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(err.is_retryable(), "FCW loser must be retryable: {err}");
        assert_eq!(t.rows()[2][1], Datum::Int(100));
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let t = table();
        let mgr = Arc::new(TxnManager::new());
        let mut a = mgr.begin(&[tref(&t)]);
        let mut b = mgr.begin(&[tref(&t)]);
        a.stage(
            "s.t",
            vec![DeltaOp::Update {
                row_id: 0,
                row: vec![Datum::Int(0), Datum::Int(111)],
            }],
        )
        .unwrap();
        b.stage("s.t", vec![DeltaOp::Delete { row_id: 3 }]).unwrap();
        a.commit().unwrap();
        b.commit().unwrap();
        let rows = t.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][1], Datum::Int(111));
        assert!(rows.iter().all(|r| r[0] != Datum::Int(3)));
    }

    #[test]
    fn seed_counters_skips_replayed_ids_and_timestamps() {
        let mgr = Arc::new(TxnManager::new());
        mgr.seed_counters(41, 99);
        let txn = mgr.begin(&[]);
        assert_eq!(txn.id(), 42);
        assert!(txn.begin_ts() > 99);
        // Seeding never moves the clocks backwards.
        mgr.seed_counters(1, 1);
        let txn2 = mgr.begin(&[]);
        assert_eq!(txn2.id(), 43);
    }

    /// BEGIN must observe a multi-table commit all-or-nothing: a snapshot
    /// captured while another thread commits to two tables may never pair
    /// table A's post-commit version with table B's pre-commit one.
    #[test]
    fn begin_never_sees_half_applied_multi_table_commit() {
        let a = table();
        let b = table();
        let mgr = Arc::new(TxnManager::new());
        let refs = [
            TableRef::new("s", "a", a.clone() as Arc<dyn Table>),
            TableRef::new("s", "b", b.clone() as Arc<dyn Table>),
        ];
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let mgr = Arc::clone(&mgr);
            let refs = refs.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Each commit sets row 0 of BOTH tables to the same value.
                for i in 1..500i64 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let mut txn = mgr.begin(&refs);
                    for t in ["s.a", "s.b"] {
                        txn.stage(
                            t,
                            vec![DeltaOp::Update {
                                row_id: 0,
                                row: vec![Datum::Int(0), Datum::Int(i)],
                            }],
                        )
                        .unwrap();
                    }
                    txn.commit().unwrap();
                }
            })
        };
        for _ in 0..500 {
            let mut txn = mgr.begin(&refs);
            let va = txn.read_view("s.a").unwrap().row(0)[1].clone();
            let vb = txn.read_view("s.b").unwrap().row(0)[1].clone();
            assert_eq!(va, vb, "snapshot saw a half-applied commit");
            txn.rollback();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn inserts_never_conflict() {
        let t = table();
        let mgr = Arc::new(TxnManager::new());
        let mut a = mgr.begin(&[tref(&t)]);
        let mut b = mgr.begin(&[tref(&t)]);
        let id_a = t.reserve_row_ids(1).unwrap();
        let id_b = t.reserve_row_ids(1).unwrap();
        a.stage(
            "s.t",
            vec![DeltaOp::Insert {
                row_id: id_a,
                row: vec![Datum::Int(100), Datum::Int(0)],
            }],
        )
        .unwrap();
        b.stage(
            "s.t",
            vec![DeltaOp::Insert {
                row_id: id_b,
                row: vec![Datum::Int(101), Datum::Int(0)],
            }],
        )
        .unwrap();
        a.commit().unwrap();
        b.commit().unwrap();
        assert_eq!(t.len(), 6);
    }

    /// COMMIT reads a maintained view's pre-images from the version it
    /// is about to replace and lets go of it before the apply: with
    /// nothing else pinning `t`, a one-row UPDATE rewrites its chunk in
    /// place instead of copying it.
    #[test]
    fn maintaining_a_view_pins_no_version_across_the_apply() {
        let catalog = crate::catalog::Catalog::new();
        let t = table();
        let scan = crate::rel::scan(tref(&t));
        let rt = scan.row_type().clone();
        let sum = crate::rel::AggCall::new(crate::rel::AggFunc::Sum, vec![1], false, "s", &rt);
        let plan = crate::rel::aggregate(scan, vec![], vec![sum]);
        let view = crate::ivm::tests::register_maintained(&catalog, "total", plan);
        let chunk = || {
            let version = t.txn_snapshot().unwrap();
            let (_, columns) = version.chunks().next().unwrap();
            columns.as_ptr() as usize
        };
        let before = chunk();

        let mut txn = catalog.txns().begin(&[tref(&t)]);
        let row = vec![Datum::Int(1), Datum::Int(-5)];
        txn.stage("s.t", vec![DeltaOp::Update { row_id: 1, row }])
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(chunk(), before, "the commit copied the chunk it rewrote");
        assert_eq!(view.storage.rows(), vec![vec![Datum::Int(45)]]);
    }
}
