//! The version store under the writable tables ([`crate::catalog::MemTable`]
//! and the memdb backend): one immutable, columnar [`Version`] per table
//! state, built so that successive versions share everything a write did
//! not touch.
//!
//! A version is a spine of `Arc`'d chunks. Each chunk holds at most
//! `capacity` rows ([`CHUNK_ROWS`] outside tests) as typed [`Column`]s
//! plus their stable row ids; ids ascend across the spine, positions are
//! global and dense, and a prefix array of chunk start positions resolves
//! a position to `(chunk, offset)` — by guessing `pos / capacity`, which
//! is exact for a table that never deleted, and by binary search
//! otherwise. A writer owns its `Arc<Version>` through `Arc::make_mut`:
//! when a reader still pins the previous version that copies the spine
//! (one pointer per chunk) and then only the chunks the delta touches;
//! when nothing is pinned it mutates in place. Either way a pin costs the
//! writer O(|delta| · capacity + n / capacity), never O(n) — the bar
//! Berkholz, Keppeler and Schweikardt set for structures maintained under
//! updates.
//!
//! The secondary indexes ride in the version, so one `Arc` clone pins
//! rows, ids and index state of the same instant.

use crate::catalog::RangeScan;
use crate::datum::{insert_sorted, remove_sorted, Column, Datum, Row};
use crate::error::{CalciteError, Result};
use crate::exec::{BatchOp, ColumnBatch, Operator};
use crate::index::{IndexData, IndexDef, IndexProbe, KeyAccess, SnapshotProbe};
use crate::stats::{analyze_chunks, TableStats};
use crate::txn::{DeltaOp, NetDelta};
use crate::types::TypeKind;
use std::sync::Arc;

/// Rows per chunk: what a single-row write copies when a snapshot pins
/// the chunk it lands in. A multiple of the executors' 1024-row batch and
/// equal to the default morsel, so a scan of a table that never deleted
/// serves only full batches and no morsel straddles two chunks.
pub const CHUNK_ROWS: usize = 4096;

#[derive(Debug, Clone)]
struct Chunk {
    /// Stable row ids, strictly ascending.
    ids: Vec<u64>,
    /// One column per field, each `ids.len()` long.
    columns: Vec<Column>,
}

impl Chunk {
    fn empty(kinds: &[TypeKind]) -> Chunk {
        Chunk {
            ids: vec![],
            columns: kinds.iter().map(Column::for_kind).collect(),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    fn push(&mut self, id: u64, row: Row) {
        self.ids.push(id);
        for (col, d) in self.columns.iter_mut().zip(row) {
            col.push(d);
        }
    }

    /// Cuts an over-full chunk into pieces of `capacity` rows (the last
    /// one takes the remainder).
    fn split(&self, capacity: usize) -> impl Iterator<Item = Arc<Chunk>> + '_ {
        (0..self.len()).step_by(capacity).map(move |start| {
            let end = (start + capacity).min(self.len());
            Arc::new(Chunk {
                ids: self.ids[start..end].to_vec(),
                columns: self
                    .columns
                    .iter()
                    .map(|c| c.slice(start, capacity))
                    .collect(),
            })
        })
    }
}

/// One immutable state of a table: chunked columns, row ids and the
/// secondary indexes over exactly those rows. Shared behind `Arc`; see
/// the module docs for what a write copies.
#[derive(Debug, Clone)]
pub struct Version {
    kinds: Arc<[TypeKind]>,
    capacity: usize,
    chunks: Vec<Arc<Chunk>>,
    /// `starts[k]` is the position of chunk `k`'s first row;
    /// `starts[chunks.len()]` is the row count.
    starts: Vec<usize>,
    indexes: Vec<Arc<IndexData>>,
}

impl Version {
    /// A version holding `rows` under the ids `0..`, with no indexes.
    /// Every row must have one value per entry of `kinds`.
    pub fn new(kinds: Vec<TypeKind>, rows: Vec<Row>) -> Version {
        Version::with_capacity(kinds.into(), CHUNK_ROWS, 0, rows)
    }

    pub(crate) fn with_capacity(
        kinds: Arc<[TypeKind]>,
        capacity: usize,
        first_id: u64,
        rows: Vec<Row>,
    ) -> Version {
        let mut version = Version {
            kinds,
            capacity,
            chunks: Vec::with_capacity(rows.len().div_ceil(capacity)),
            starts: vec![0],
            indexes: vec![],
        };
        // Rows are consumed chunk by chunk, so the row-major input is
        // released as the columns fill.
        let mut rows = rows.into_iter().zip(first_id..).peekable();
        while rows.peek().is_some() {
            let mut chunk = Chunk::empty(&version.kinds);
            for (row, id) in rows.by_ref().take(capacity) {
                assert_eq!(row.len(), version.kinds.len(), "row arity");
                chunk.push(id, row);
            }
            version.chunks.push(Arc::new(chunk));
        }
        version.reindex(0);
        version
    }

    /// This version's schema and indexes over new contents: `rows` under
    /// the ids `first_id..`, every index rebuilt.
    pub fn replaced(&self, first_id: u64, rows: Vec<Row>) -> Version {
        let kinds = Arc::clone(&self.kinds);
        let mut next = Version::with_capacity(kinds, self.capacity, first_id, rows);
        next.indexes = self
            .indexes
            .iter()
            .map(|idx| {
                let rebuilt = IndexData::build(idx.def.clone(), &next);
                Arc::new(rebuilt.expect("existing index definition must stay valid"))
            })
            .collect();
        next
    }

    /// Columns per row.
    pub fn arity(&self) -> usize {
        self.kinds.len()
    }

    pub fn len(&self) -> usize {
        self.starts[self.chunks.len()]
    }

    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The chunk holding position `pos` and the offset inside it.
    fn locate(&self, pos: usize) -> (usize, usize) {
        assert!(pos < self.len(), "position {pos} out of range");
        let mut k = (pos / self.capacity).min(self.chunks.len() - 1);
        if pos < self.starts[k] || self.starts[k + 1] <= pos {
            k = self.starts.partition_point(|start| *start <= pos) - 1;
        }
        (k, pos - self.starts[k])
    }

    /// The chunk an id sorts into (the last one starting at or below it)
    /// and the offset of the first id not below it.
    fn slot_of(&self, id: u64) -> (usize, usize) {
        let starts_at_or_below = |c: &Arc<Chunk>| c.ids.first().is_some_and(|first| *first <= id);
        let k = self
            .chunks
            .partition_point(starts_at_or_below)
            .saturating_sub(1);
        (k, self.chunks[k].ids.partition_point(|x| *x < id))
    }

    /// Recomputes the prefix array from chunk `from` on.
    fn reindex(&mut self, from: usize) {
        self.starts.truncate(from + 1);
        for chunk in &self.chunks[from..] {
            self.starts
                .push(self.starts[self.starts.len() - 1] + chunk.len());
        }
    }

    pub fn row(&self, pos: usize) -> Row {
        let (k, off) = self.locate(pos);
        self.chunks[k].row(off)
    }

    pub fn row_id(&self, pos: usize) -> u64 {
        let (k, off) = self.locate(pos);
        self.chunks[k].ids[off]
    }

    /// The position holding `row_id`: one binary search for the chunk,
    /// one inside it.
    pub fn position_of(&self, row_id: u64) -> Option<usize> {
        if self.chunks.is_empty() {
            return None;
        }
        let (k, off) = self.slot_of(row_id);
        (self.chunks[k].ids.get(off) == Some(&row_id)).then(|| self.starts[k] + off)
    }

    /// The stable row ids, in position order (strictly ascending).
    pub fn row_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks.iter().flat_map(|c| c.ids.iter().copied())
    }

    /// All rows with their ids, in position order.
    pub fn rows_with_ids(&self) -> impl Iterator<Item = (u64, Row)> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| (0..c.len()).map(move |i| (c.ids[i], c.row(i))))
    }

    /// The columnar contents, one `(rows, columns)` pair per chunk, in
    /// position order — `rows` counts a zero-arity chunk too. A column's
    /// representation may differ from chunk to chunk.
    pub fn chunks(&self) -> impl Iterator<Item = (usize, &[Column])> + Clone + '_ {
        self.chunks.iter().map(|c| (c.len(), c.columns.as_slice()))
    }

    /// This version as the columnar snapshot scans slice, zero-copy — or
    /// `None` for a zero-arity version, whose rows stay on the row
    /// surface (the engine counts them into batches). The one zero-arity
    /// guard, behind the default [`crate::catalog::Table::scan_snapshot`].
    pub fn range_scan(self: Arc<Self>) -> Option<Arc<dyn RangeScan>> {
        (!self.kinds.is_empty()).then_some(self as Arc<dyn RangeScan>)
    }

    /// `ANALYZE` over the chunks in place.
    pub fn analyze(&self) -> TableStats {
        let columns = self.chunks().map(|(_, columns)| columns);
        analyze_chunks(self.kinds.len(), self.len(), columns)
    }

    /// A row iterator that owns its version: later writes never show.
    pub fn into_rows(self: Arc<Self>) -> impl Iterator<Item = Row> + Send {
        (0..self.chunks.len()).flat_map(move |k| {
            let chunk = Arc::clone(&self.chunks[k]);
            (0..chunk.len()).map(move |i| chunk.row(i))
        })
    }

    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.indexes.iter().map(|i| i.def.clone()).collect()
    }

    /// Probe handle pairing `index` with the rows it covers.
    pub fn index_probe(self: &Arc<Self>, index: &str) -> Option<Arc<dyn IndexProbe>> {
        let index = self.indexes.iter().find(|i| i.def.name == index)?.clone();
        let data = Arc::clone(self);
        Some(Arc::new(SnapshotProbe { data, index }))
    }

    /// Builds `def` over the current rows. Duplicate names are an error.
    pub fn create_index(this: &mut Arc<Version>, def: &IndexDef) -> Result<()> {
        if this.indexes.iter().any(|i| i.def.name == def.name) {
            return Err(CalciteError::validate(format!(
                "index '{}' already exists",
                def.name
            )));
        }
        let built = Arc::new(IndexData::build(def.clone(), &**this)?);
        Arc::make_mut(this).indexes.push(built);
        Ok(())
    }

    /// Drops an index by name; whether it existed.
    pub fn drop_index(this: &mut Arc<Version>, name: &str) -> bool {
        if !this.indexes.iter().any(|i| i.def.name == name) {
            return false;
        }
        Arc::make_mut(this).indexes.retain(|i| i.def.name != name);
        true
    }

    /// Inserts one row under `id`, a fresh one: the tail, unless ids
    /// reserved earlier were committed later.
    pub fn push(this: &mut Arc<Version>, id: u64, row: Row) {
        assert_eq!(row.len(), this.kinds.len(), "row arity");
        let version = Arc::make_mut(this);
        let pos = version.insert(vec![id], vec![row])[0];
        let mut indexes = std::mem::take(&mut version.indexes);
        for idx in &mut indexes {
            Arc::make_mut(idx).insert(&*version, pos);
        }
        version.indexes = indexes;
    }

    /// Applies a committed delta, indexes included. The stream is
    /// validated whole before anything is copied or changed: a bad op
    /// leaves `this` — and every version sharing chunks with it — as it
    /// was. Returns the largest inserted id, for the caller's id counter.
    pub fn apply_delta(this: &mut Arc<Version>, ops: &[DeltaOp]) -> Result<Option<u64>> {
        let mut net = NetDelta::default();
        net.fold(|id| this.position_of(id), ops, this.kinds.len())?;
        Ok(Version::apply_net(this, net))
    }

    /// The apply half of [`Version::apply_delta`]: `net`, folded against
    /// `this`, lands in the rows and every index.
    pub(crate) fn apply_net(this: &mut Arc<Version>, net: NetDelta) -> Option<u64> {
        let version = Arc::make_mut(this);
        let mut indexes = std::mem::take(&mut version.indexes);
        let rekeyed: Vec<Vec<usize>> = indexes
            .iter_mut()
            .map(|idx| IndexData::unlink(idx, &*version, &net))
            .collect();
        let outcome = net.apply(version);
        for (idx, rekeyed) in indexes.iter_mut().zip(&rekeyed) {
            IndexData::relink(idx, &*version, &outcome, rekeyed);
        }
        version.indexes = indexes;
        outcome.max_inserted_id
    }

    // ----- what `NetDelta::apply` is made of: each copies only the
    // ----- chunks it lands in, and only if another version shares them

    /// Overwrites the row at `pos`.
    pub(crate) fn rewrite(&mut self, pos: usize, row: Row) {
        let (k, off) = self.locate(pos);
        let chunk = Arc::make_mut(&mut self.chunks[k]);
        for (col, d) in chunk.columns.iter_mut().zip(row) {
            col.set(off, d);
        }
    }

    /// Removes the rows at `positions` (ascending), compacting inside
    /// each chunk and dropping the chunks that empty.
    pub(crate) fn remove(&mut self, positions: &[usize]) {
        let Some(&first) = positions.first() else {
            return;
        };
        let (first_chunk, _) = self.locate(first);
        let (mut k, mut rest) = (first_chunk, positions);
        let mut emptied = vec![];
        while let Some(&pos) = rest.first() {
            while self.starts[k + 1] <= pos {
                k += 1;
            }
            let (start, end) = (self.starts[k], self.starts[k + 1]);
            let (here, later) = rest.split_at(rest.partition_point(|p| *p < end));
            rest = later;
            if here.len() == end - start {
                emptied.push(k);
                continue;
            }
            let local: Vec<usize> = here.iter().map(|p| p - start).collect();
            let chunk = Arc::make_mut(&mut self.chunks[k]);
            remove_sorted(&mut chunk.ids, &local);
            for col in &mut chunk.columns {
                col.remove_sorted(&local);
            }
        }
        for k in emptied.into_iter().rev() {
            self.chunks.remove(k);
        }
        self.reindex(first_chunk);
    }

    /// Inserts `rows` under `ids` (ascending, none present), each at its
    /// id's sorted slot, and returns their final positions. Rows past the
    /// end of a full chunk open a new one behind it — the tail insert;
    /// rows landing inside a full chunk split it.
    pub(crate) fn insert(&mut self, ids: Vec<u64>, rows: Vec<Row>) -> Vec<usize> {
        if ids.is_empty() {
            return vec![];
        }
        if self.chunks.is_empty() {
            self.chunks.push(Arc::new(Chunk::empty(&self.kinds)));
            self.reindex(0);
        }
        let (ks, offs): (Vec<usize>, Vec<usize>) = ids.iter().map(|id| self.slot_of(*id)).unzip();
        let at = (0..ids.len())
            .map(|n| self.starts[ks[n]] + offs[n] + n)
            .collect();
        // Chunk by chunk from the top, so the chunks a split adds never
        // move one a later group lands in.
        let mut incoming: Vec<(u64, Row)> = ids.into_iter().zip(rows).collect();
        let mut end = incoming.len();
        while end > 0 {
            let k = ks[end - 1];
            let begin = ks[..end].partition_point(|chunk| *chunk < k);
            self.insert_into(k, &offs[begin..end], incoming.drain(begin..end));
            end = begin;
        }
        self.reindex(ks[0]);
        at
    }

    /// Inserts `rows` into chunk `k`, row `n` before the row currently at
    /// `offs[n]` (ascending).
    fn insert_into(
        &mut self,
        mut k: usize,
        offs: &[usize],
        rows: impl Iterator<Item = (u64, Row)>,
    ) {
        let len = self.chunks[k].len();
        let appends = offs[0] == len;
        if appends && len >= self.capacity {
            k += 1;
            self.chunks.insert(k, Arc::new(Chunk::empty(&self.kinds)));
        }
        let chunk = Arc::make_mut(&mut self.chunks[k]);
        if appends {
            for (id, row) in rows {
                chunk.push(id, row);
            }
        } else {
            let at: Vec<usize> = (0..).zip(offs).map(|(n, off)| off + n).collect();
            let mut added = Chunk::empty(&self.kinds);
            for (id, row) in rows {
                added.push(id, row);
            }
            insert_sorted(&mut chunk.ids, &at, added.ids);
            for (col, added) in chunk.columns.iter_mut().zip(added.columns) {
                col.insert_sorted(&at, added);
            }
        }
        if chunk.len() > self.capacity {
            let pieces: Vec<Arc<Chunk>> = chunk.split(self.capacity).collect();
            self.chunks.splice(k..=k, pieces);
        }
    }
}

impl KeyAccess for Version {
    fn len(&self) -> usize {
        Version::len(self)
    }

    fn arity(&self) -> usize {
        Version::arity(self)
    }

    fn datum(&self, row: usize, col: usize) -> Datum {
        let (k, off) = self.locate(row);
        self.chunks[k].columns[col].get(off)
    }

    fn row(&self, row: usize) -> Row {
        Version::row(self, row)
    }
}

impl RangeScan for Version {
    fn row_count(&self) -> usize {
        self.len()
    }

    fn scan_range(self: Arc<Self>, batch_size: usize, start: usize, len: usize) -> Result<BatchOp> {
        let pos = start.min(self.len());
        Ok(Box::new(ChunkScan {
            end: pos.saturating_add(len).min(self.len()),
            chunk: self.starts.partition_point(|s| *s <= pos) - 1,
            pos,
            batch_size: batch_size.max(1),
            version: self,
        }))
    }
}

/// Batches sliced straight out of one version's chunks, in position
/// order; a batch never spans two chunks, so it may come up short of
/// `batch_size` at a chunk boundary.
struct ChunkScan {
    version: Arc<Version>,
    pos: usize,
    end: usize,
    /// The chunk holding `pos` (any chunk while `pos == end`).
    chunk: usize,
    batch_size: usize,
}

impl Operator<ColumnBatch> for ChunkScan {
    fn next(&mut self) -> Result<Option<ColumnBatch>> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let starts = &self.version.starts;
        while starts[self.chunk + 1] <= self.pos {
            self.chunk += 1;
        }
        let take = self
            .batch_size
            .min(self.end - self.pos)
            .min(starts[self.chunk + 1] - self.pos);
        let off = self.pos - starts[self.chunk];
        let columns = &self.version.chunks[self.chunk].columns;
        self.pos += take;
        Ok(Some(ColumnBatch::with_len(
            columns.iter().map(|c| c.slice(off, take)).collect(),
            take,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BoundProbe;
    use proptest::prelude::*;

    const KINDS: [TypeKind; 2] = [TypeKind::Integer, TypeKind::Varchar];

    /// What a version must equal: its rows under their ids, in id order.
    type Model = Vec<(u64, Row)>;

    /// Row content as a function of one integer; every fifth key is NULL.
    fn row(v: i64) -> Row {
        let key = if v % 5 == 0 {
            Datum::Null
        } else {
            Datum::Int(v % 7)
        };
        vec![key, Datum::str(format!("t{v}"))]
    }

    fn version(capacity: usize, rows: i64) -> Arc<Version> {
        let rows = (0..rows).map(row).collect();
        let mut v = Arc::new(Version::with_capacity(KINDS.into(), capacity, 0, rows));
        Version::create_index(&mut v, &IndexDef::ordered("o", vec![0])).unwrap();
        Version::create_index(&mut v, &IndexDef::hash("h", vec![0])).unwrap();
        v
    }

    fn chunk_ptrs(v: &Version) -> Vec<*const Chunk> {
        v.chunks.iter().map(Arc::as_ptr).collect()
    }

    fn scan(v: &Arc<Version>, batch_size: usize, start: usize, len: usize) -> Vec<Row> {
        let it = Arc::clone(v).scan_range(batch_size, start, len).unwrap();
        crate::exec::drain_rows(it).unwrap()
    }

    /// Everything a version answers, against the `(id, row)` model it
    /// must equal, plus the invariants of its layout.
    fn check(v: &Arc<Version>, model: &[(u64, Row)], what: &str) {
        let got: Vec<(u64, Row)> = v.rows_with_ids().collect();
        assert_eq!(got, model, "contents {what}");
        assert_eq!(v.len(), model.len(), "len {what}");
        assert_eq!(v.is_empty(), model.is_empty(), "is_empty {what}");
        // Layout: no empty or over-full chunk, a consistent prefix array,
        // ids strictly ascending across the spine.
        assert_eq!(v.starts.len(), v.chunks.len() + 1, "prefix length {what}");
        assert_eq!(v.starts[0], 0);
        for (k, chunk) in v.chunks.iter().enumerate() {
            assert!((1..=v.capacity).contains(&chunk.len()), "chunk size {what}");
            assert_eq!(v.starts[k + 1] - v.starts[k], chunk.len(), "prefix {what}");
            assert!(chunk.columns.iter().all(|c| c.len() == chunk.len()));
        }
        let ids: Vec<u64> = v.row_ids().collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend {what}");
        // Positional reads, both directions.
        for (pos, (id, row)) in model.iter().enumerate() {
            assert_eq!(&v.row(pos), row, "row({pos}) {what}");
            assert_eq!(v.row_id(pos), *id, "row_id({pos}) {what}");
            assert_eq!(v.position_of(*id), Some(pos), "position_of({id}) {what}");
        }
        let absent = model.last().map_or(0, |(id, _)| id + 1);
        assert_eq!(v.position_of(absent), None);
        // The columnar surfaces.
        let rows: Vec<Row> = model.iter().map(|(_, row)| row.clone()).collect();
        assert_eq!(scan(v, 3, 0, rows.len()), rows, "scan {what}");
        let (start, len) = (rows.len() / 3, rows.len() / 2);
        assert_eq!(
            scan(v, 2, start, len),
            rows[start..(start + len).min(rows.len())],
            "range scan {what}"
        );
        assert_eq!(
            Arc::clone(v).into_rows().collect::<Vec<_>>(),
            rows,
            "rows {what}"
        );
        // Every index against a fresh build over the same rows.
        for def in v.index_defs() {
            let live = v.index_probe(&def.name).unwrap();
            let fresh = IndexData::build(def.clone(), v).unwrap();
            for k in -1..8 {
                let probe = BoundProbe::point(vec![Datum::Int(k)]);
                assert_eq!(
                    live.positions(&probe),
                    fresh.probe(v, &probe),
                    "index {} on {k} {what}",
                    def.name
                );
            }
        }
    }

    /// One step of a delta stream; `pick` selects among the rows live at
    /// that point (modulo their number).
    #[derive(Debug, Clone)]
    enum Step {
        Insert(i64),
        Update {
            pick: usize,
            v: i64,
        },
        Delete {
            pick: usize,
        },
        /// Deletes a run of neighbours: long enough runs empty a chunk.
        DeleteRun {
            pick: usize,
            len: usize,
        },
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0i64..100).prop_map(Step::Insert),
            (0usize..64, 0i64..100).prop_map(|(pick, v)| Step::Update { pick, v }),
            (0usize..64).prop_map(|pick| Step::Delete { pick }),
            (0usize..64, 2usize..10).prop_map(|(pick, len)| Step::DeleteRun { pick, len }),
        ]
    }

    /// Turns `steps` into ops against `model`, applying them to the model
    /// as it goes. Inserts draw their ids from `fresh`.
    fn concretize(
        model: &mut Model,
        steps: &[Step],
        mut fresh: impl Iterator<Item = u64>,
    ) -> Vec<DeltaOp> {
        let mut ops = vec![];
        for step in steps {
            match *step {
                Step::Insert(v) => {
                    let row_id = fresh.next().expect("block sized to the inserts");
                    let at = model.partition_point(|(id, _)| *id < row_id);
                    model.insert(at, (row_id, row(v)));
                    ops.push(DeltaOp::Insert {
                        row_id,
                        row: row(v),
                    });
                }
                _ if model.is_empty() => {}
                Step::Update { pick, v } => {
                    let n = model.len();
                    let slot = &mut model[pick % n];
                    slot.1 = row(v);
                    ops.push(DeltaOp::Update {
                        row_id: slot.0,
                        row: row(v),
                    });
                }
                Step::Delete { pick } => {
                    let (row_id, _) = model.remove(pick % model.len());
                    ops.push(DeltaOp::Delete { row_id });
                }
                Step::DeleteRun { pick, len } => {
                    let at = pick % model.len();
                    for (row_id, _) in model.drain(at..(at + len).min(model.len())) {
                        ops.push(DeltaOp::Delete { row_id });
                    }
                }
            }
        }
        ops
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random delta streams — id blocks reserved in one order and
        /// committed in another, used descending — against a plain
        /// `Vec<(id, row)>`, with versions pinned along the way that must
        /// keep equalling the model as of their pin.
        #[test]
        fn versions_equal_the_model_as_of_their_pin(
            capacity in 2usize..9,
            seed_rows in 0i64..20,
            script in proptest::collection::vec(
                (proptest::collection::vec(step_strategy(), 1..12), any::<bool>()),
                1..8,
            )
        ) {
            let mut live = version(capacity, seed_rows);
            let mut model: Model = (0..).zip((0..seed_rows).map(row)).collect();
            check(&live, &model, "load");
            let mut next_id = seed_rows as u64;
            let blocks: Vec<Vec<u64>> = script
                .iter()
                .map(|(steps, _)| {
                    let n = steps.iter().filter(|s| matches!(s, Step::Insert(_))).count() as u64;
                    next_id += n;
                    (next_id - n..next_id).collect()
                })
                .collect();
            let mut order: Vec<usize> = (0..script.len()).collect();
            for pair in order.chunks_mut(2) {
                pair.reverse();
            }
            let mut pinned: Vec<(Arc<Version>, Model)> = vec![];
            for s in order {
                let (steps, pin) = &script[s];
                if *pin {
                    pinned.push((Arc::clone(&live), model.clone()));
                }
                let mut block = blocks[s].clone();
                if s % 2 == 1 {
                    block.reverse();
                }
                let ops = concretize(&mut model, steps, block.into_iter());
                let max_inserted = ops.iter().filter_map(|op| match op {
                    DeltaOp::Insert { row_id, .. } if model.iter().any(|(id, _)| id == row_id) => {
                        Some(*row_id)
                    }
                    _ => None,
                });
                prop_assert_eq!(Version::apply_delta(&mut live, &ops).unwrap(), max_inserted.max());
                check(&live, &model, &format!("after stream {s}: {ops:?}"));
                // A direct insert takes a fresh id: the tail, whatever
                // blocks are still uncommitted below it.
                Version::push(&mut live, next_id, row(s as i64));
                model.push((next_id, row(s as i64)));
                next_id += 1;
                for (k, (version, as_of)) in pinned.iter().enumerate() {
                    check(version, as_of, &format!("pin {k} after stream {s}"));
                }
            }
        }
    }

    /// The structural guarantee, machine-independent: beside a pin a
    /// single-row write copies the spine and one chunk; with nothing
    /// pinned it reallocates no chunk at all.
    #[test]
    fn a_write_shares_every_chunk_it_did_not_touch() {
        let update = |id: u64| DeltaOp::Update {
            row_id: id,
            row: row(99),
        };
        let shared = |a: &Version, b: &Version| {
            let pairs = a.chunks.iter().zip(&b.chunks);
            pairs.map(|(x, y)| Arc::ptr_eq(x, y)).collect::<Vec<_>>()
        };
        let mut live = version(4, 20); // five full chunks
        let before = chunk_ptrs(&live);
        Version::apply_delta(&mut live, &[update(9)]).unwrap();
        assert_eq!(chunk_ptrs(&live), before, "unpinned update moved a chunk");

        let pin = Arc::clone(&live);
        Version::apply_delta(&mut live, &[update(9)]).unwrap();
        assert_eq!(shared(&pin, &live), [true, true, false, true, true]);
        assert_eq!(pin.row(9), row(99));

        // A tail insert behind a full last chunk opens a new one: the
        // pinned chunks are all still shared.
        let pin = Arc::clone(&live);
        Version::push(&mut live, 20, row(20));
        assert_eq!(shared(&pin, &live), [true; 5]);
        assert_eq!(live.chunks.len(), 6);
        // The next one fills that chunk in place of copying any other.
        let pin = Arc::clone(&live);
        Version::push(&mut live, 21, row(21));
        assert_eq!(shared(&pin, &live), [true, true, true, true, true, false]);

        // Deleting a whole chunk copies nothing; deleting inside one
        // copies that one.
        let pin = Arc::clone(&live);
        let ops: Vec<DeltaOp> = (4..8).map(|row_id| DeltaOp::Delete { row_id }).collect();
        Version::apply_delta(&mut live, &ops).unwrap();
        assert_eq!(live.chunks.len(), 5);
        assert!(Arc::ptr_eq(&pin.chunks[0], &live.chunks[0]));
        let survivors = pin.chunks[2..].iter().zip(&live.chunks[1..]);
        assert!(survivors.clone().all(|(x, y)| Arc::ptr_eq(x, y)));
        let pin = Arc::clone(&live);
        Version::apply_delta(&mut live, &[DeltaOp::Delete { row_id: 0 }]).unwrap();
        assert_eq!(shared(&pin, &live), [false, true, true, true, true]);
        assert_eq!((pin.chunks[0].len(), live.chunks[0].len()), (4, 3));
    }

    /// An id committed below rows already present lands inside a full
    /// chunk and splits it; one that sorts behind a full chunk opens a
    /// chunk of its own instead.
    #[test]
    fn an_out_of_order_insert_splits_a_full_chunk() {
        let mut live = version(4, 4);
        let sizes = |v: &Version| v.chunks.iter().map(|c| c.len()).collect::<Vec<_>>();
        let mut model: Vec<(u64, Row)> = (0..4).map(|id| (id, row(id as i64))).collect();
        // Ids 4..12 are reserved by two writers; they commit interleaved.
        for (id, want) in [
            (4, vec![4, 1]),
            (8, vec![4, 2]),
            (9, vec![4, 3]),
            (10, vec![4, 4]), // chunk [4, 8, 9, 10] is full
            (11, vec![4, 4, 1]),
            (5, vec![4, 4, 1, 1]), // inside the full chunk: [4, 5, 8, 9] + [10]
            (12, vec![4, 4, 1, 2]),
        ] {
            let pin = Arc::clone(&live);
            let as_of = model.clone();
            let op = DeltaOp::Insert {
                row_id: id,
                row: row(id as i64),
            };
            Version::apply_delta(&mut live, &[op]).unwrap();
            let at = model.partition_point(|(x, _)| *x < id);
            model.insert(at, (id, row(id as i64)));
            assert_eq!(sizes(&live), want, "after id {id}");
            check(&live, &model, &format!("after id {id}"));
            check(&pin, &as_of, &format!("pinned before id {id}"));
        }
    }

    /// An update that leaves an index's key columns alone must not even
    /// un-share that index from open snapshots; a rejected stream
    /// un-shares nothing at all.
    #[test]
    fn untouched_key_leaves_the_index_shared() {
        let mut live = version(4, 6);
        let pin = Arc::clone(&live);
        let bad = [DeltaOp::Delete { row_id: 77 }];
        assert!(Version::apply_delta(&mut live, &bad).is_err());
        assert!(
            Arc::ptr_eq(&pin, &live),
            "a rejected delta copied the spine"
        );
        let mut same_key = row(3);
        same_key[1] = Datum::str("renamed");
        let op = DeltaOp::Update {
            row_id: 3,
            row: same_key.clone(),
        };
        Version::apply_delta(&mut live, &[op]).unwrap();
        assert_eq!(live.row(3), same_key);
        assert_eq!(pin.row(3), row(3));
        for (old, new) in pin.indexes.iter().zip(&live.indexes) {
            assert!(Arc::ptr_eq(old, new), "index {} was copied", old.def.name);
        }
    }

    /// A value that does not fit a chunk's typed column demotes that
    /// chunk's column only; scans then serve batches whose representation
    /// differs from chunk to chunk.
    #[test]
    fn a_demoted_chunk_sits_beside_typed_neighbours() {
        let mut live = version(4, 12);
        let op = DeltaOp::Update {
            row_id: 5,
            row: vec![Datum::Double(0.5), Datum::str("odd")],
        };
        Version::apply_delta(&mut live, &[op]).unwrap();
        let key_columns: Vec<&Column> = live.chunks().map(|(_, cols)| &cols[0]).collect();
        assert!(matches!(key_columns[0], Column::Int { .. }));
        assert!(matches!(key_columns[1], Column::Generic(_)));
        assert!(matches!(key_columns[2], Column::Int { .. }));
        let mut model: Vec<(u64, Row)> = (0..12).map(|id| (id, row(id as i64))).collect();
        model[5].1 = vec![Datum::Double(0.5), Datum::str("odd")];
        check(&live, &model, "after the demotion");
        assert_eq!(live.analyze().row_count, 12.0);
    }

    #[test]
    fn zero_arity_and_empty_versions() {
        let mut v = Arc::new(Version::with_capacity([].into(), 2, 0, vec![vec![]; 3]));
        assert_eq!((v.len(), v.row(2)), (3, vec![]));
        assert!(Arc::clone(&v).range_scan().is_none());
        Version::push(&mut v, 3, vec![]);
        assert_eq!(Arc::clone(&v).into_rows().count(), 4);

        let mut empty = version(3, 0);
        check(&empty, &[], "empty");
        assert_eq!(empty.position_of(0), None);
        Version::push(&mut empty, 7, row(1));
        check(&empty, &[(7, row(1))], "first row");
        let ops = [DeltaOp::Delete { row_id: 7 }];
        Version::apply_delta(&mut empty, &ops).unwrap();
        check(&empty, &[], "emptied again");
    }
}
