//! `memdb`: an in-process relational store standing in for the paper's
//! JDBC backends (MySQL/PostgreSQL). It executes a structured query spec
//! covering the SQL subset a remote RDBMS would receive from the JDBC
//! adapter: conjunctive predicates, projection, ordering and limits. The
//! adapter renders the equivalent SQL *text* in the target dialect; this
//! spec is the executable form.

use crate::common::ColPredicate;
use parking_lot::{Mutex, RwLock};
use rcalcite_core::catalog::RangeScan;
use rcalcite_core::datum::{Column, Datum, Row};
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::exec::{BatchIter, SlicedColumns};
use rcalcite_core::index::{IndexData, IndexDef, IndexProbe, KeyAccess, SnapshotProbe};
use rcalcite_core::stats::{analyze_columns, TableStats};
use rcalcite_core::txn::{DeltaOp, NetDelta, TxnVersion};
use rcalcite_core::types::TypeKind;
use std::collections::HashMap;
use std::sync::Arc;

/// One relation: schema plus rows, mirrored columnar.
#[derive(Debug, Clone)]
pub struct MemRelation {
    pub columns: Vec<(String, TypeKind)>,
    pub rows: Vec<Row>,
    /// Stable row ids, parallel to `rows` and strictly ascending — inside
    /// the copy-on-write struct, so a relation snapshot pins rows and ids
    /// together, and an id resolves to its position by binary search. The
    /// id counter lives on [`MemDb`] (outside the snapshot), so
    /// reservations never clone the relation.
    row_ids: Vec<u64>,
    /// Columnar mirror of `rows`, built at load time and maintained on
    /// insert, so batch scans read typed vectors directly instead of
    /// pivoting rows per scan.
    col_store: Vec<Column>,
    /// Secondary indexes over the columnar mirror, maintained
    /// incrementally on insert. Stored *inside* the relation so the
    /// copy-on-write `Arc` snapshot discipline covers them too: an
    /// in-flight probe snapshot pairs index state with exactly the rows
    /// it was built over.
    indexes: Vec<Arc<IndexData>>,
}

impl MemRelation {
    fn new(columns: Vec<(String, TypeKind)>, rows: Vec<Row>) -> MemRelation {
        let col_store = columns
            .iter()
            .enumerate()
            .map(|(i, (_, kind))| Column::from_rows(kind, &rows, i))
            .collect();
        let row_ids = (0..rows.len() as u64).collect();
        MemRelation {
            columns,
            rows,
            row_ids,
            col_store,
            indexes: vec![],
        }
    }

    /// Stable ids of the current rows, parallel to `rows`.
    pub fn row_ids(&self) -> &[u64] {
        &self.row_ids
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(name))
    }

    /// The native columnar form of this relation.
    pub fn column_data(&self) -> &[Column] {
        &self.col_store
    }

    /// Definitions of the secondary indexes on this relation.
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.indexes.iter().map(|i| i.def.clone()).collect()
    }
}

/// [`KeyAccess`] over a relation snapshot's columnar mirror: index
/// build/probe reads typed vectors positionally, no row pivoting.
pub struct RelAccess(pub Arc<MemRelation>);

impl KeyAccess for RelAccess {
    fn len(&self) -> usize {
        self.0.rows.len()
    }

    fn arity(&self) -> usize {
        self.0.columns.len()
    }

    fn datum(&self, row: usize, col: usize) -> Datum {
        self.0.col_store[col].get(row)
    }
}

/// Borrowed columnar [`KeyAccess`] for in-place index maintenance.
struct ColAccess<'a>(&'a [Column]);

impl KeyAccess for ColAccess<'_> {
    fn len(&self) -> usize {
        self.0.first().map_or(0, Column::len)
    }

    fn arity(&self) -> usize {
        self.0.len()
    }

    fn datum(&self, row: usize, col: usize) -> Datum {
        self.0[col].get(row)
    }
}

/// The query spec the `jdbc` adapter ships to the database.
#[derive(Debug, Clone, Default)]
pub struct SqlQuerySpec {
    pub table: String,
    /// Conjunction of simple predicates (the WHERE clause).
    pub predicates: Vec<ColPredicate>,
    /// Output columns (base-table indexes); `None` = all.
    pub projection: Option<Vec<usize>>,
    /// ORDER BY: (base column, descending).
    pub order: Vec<(usize, bool)>,
    pub offset: Option<usize>,
    pub fetch: Option<usize>,
}

impl SqlQuerySpec {
    pub fn scan(table: impl Into<String>) -> SqlQuerySpec {
        SqlQuerySpec {
            table: table.into(),
            ..Default::default()
        }
    }
}

/// The database: a set of named relations. Each relation sits behind an
/// `Arc` so scans can snapshot it (cheap pointer clone) and stream from
/// the snapshot without holding the lock or copying the data.
#[derive(Default)]
pub struct MemDb {
    tables: RwLock<HashMap<String, Arc<MemRelation>>>,
    /// Per-table next row id. Kept outside the relations so reserving
    /// ids (a counter bump) never copies a snapshot.
    next_ids: Mutex<HashMap<String, u64>>,
    /// Per-table data versions, bumped on every mutation (insert or
    /// delta apply). Serves the adapter's `Table::data_version`, which
    /// incremental view maintenance uses for freshness tracking.
    versions: Mutex<HashMap<String, u64>>,
}

/// An `Arc` snapshot of a relation's columnar mirror, viewable as a
/// column slice for [`SlicedColumns`]. Also serves as the [`RangeScan`]
/// morsel-driven parallel scans slice: every worker's range reads the
/// same snapshot, zero-copy (only the slice being pulled is cloned).
pub struct ColStoreSnapshot(Arc<MemRelation>);

impl AsRef<[Column]> for ColStoreSnapshot {
    fn as_ref(&self) -> &[Column] {
        &self.0.col_store
    }
}

impl RangeScan for ColStoreSnapshot {
    fn row_count(&self) -> usize {
        self.0.rows.len()
    }

    fn scan_range(
        self: Arc<Self>,
        batch_size: usize,
        start: usize,
        len: usize,
    ) -> Result<Box<dyn BatchIter>> {
        Ok(Box::new(SlicedColumns::new_range(
            ColStoreSnapshot(self.0.clone()),
            batch_size,
            start,
            len,
        )))
    }
}

/// A [`TxnVersion`] of a relation: the `Arc` snapshot pins rows, ids,
/// columnar mirror and indexes at one instant.
struct RelVersion(Arc<MemRelation>);

impl TxnVersion for RelVersion {
    fn row_count(&self) -> usize {
        self.0.rows.len()
    }

    fn row(&self, pos: usize) -> Row {
        self.0.rows[pos].clone()
    }

    fn row_id(&self, pos: usize) -> u64 {
        self.0.row_ids[pos]
    }

    fn position_of(&self, row_id: u64) -> Option<usize> {
        self.0.row_ids.binary_search(&row_id).ok()
    }

    fn index_defs(&self) -> Vec<IndexDef> {
        self.0.index_defs()
    }

    fn index_probe(&self, index: &str) -> Option<Arc<dyn IndexProbe>> {
        let idx = self.0.indexes.iter().find(|i| i.def.name == index)?.clone();
        Some(Arc::new(SnapshotProbe {
            data: RelAccess(Arc::clone(&self.0)),
            index: idx,
        }))
    }
}

impl MemDb {
    pub fn new() -> Arc<MemDb> {
        Arc::new(MemDb::default())
    }

    pub fn create_table(
        &self,
        name: impl Into<String>,
        columns: Vec<(String, TypeKind)>,
        rows: Vec<Row>,
    ) {
        let name = name.into().to_ascii_lowercase();
        let rel = MemRelation::new(columns, rows);
        self.next_ids
            .lock()
            .insert(name.clone(), rel.rows.len() as u64);
        self.tables.write().insert(name, Arc::new(rel));
    }

    pub fn insert(&self, table: &str, row: Row) -> Result<()> {
        let mut tables = self.tables.write();
        let rel = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{table}'")))?;
        // Copy-on-write: in-flight scan snapshots keep the pre-insert
        // relation; new scans see the new row.
        let rel = Arc::make_mut(rel);
        if row.len() != rel.columns.len() {
            return Err(CalciteError::execution(format!(
                "memdb: arity mismatch inserting into '{table}'"
            )));
        }
        for (col, d) in rel.col_store.iter_mut().zip(row.iter()) {
            col.push(d.clone());
        }
        rel.rows.push(row);
        {
            let mut ids = self.next_ids.lock();
            let next = ids.entry(table.to_ascii_lowercase()).or_default();
            rel.row_ids.push(*next);
            *next += 1;
        }
        // Incremental index maintenance (no rebuild): the new row is the
        // last position of the already-updated columnar mirror. Disjoint
        // field borrows let the indexes read the mirror while mutating.
        let MemRelation {
            col_store, indexes, ..
        } = rel;
        let access = ColAccess(col_store);
        let pos = access.len() - 1;
        for idx in indexes.iter_mut() {
            Arc::make_mut(idx).insert(&access, pos);
        }
        self.bump_version(table);
        Ok(())
    }

    /// The current data version of `table`: advances on every mutation.
    /// `None` for unknown tables.
    pub fn data_version(&self, table: &str) -> Option<u64> {
        let key = table.to_ascii_lowercase();
        if !self.tables.read().contains_key(&key) {
            return None;
        }
        Some(self.versions.lock().get(&key).copied().unwrap_or(0))
    }

    fn bump_version(&self, table: &str) {
        *self
            .versions
            .lock()
            .entry(table.to_ascii_lowercase())
            .or_default() += 1;
    }

    /// Captures an immutable MVCC version of `table`: one `Arc` snapshot
    /// carrying rows, ids, columnar mirror and index state together.
    pub fn txn_snapshot(&self, table: &str) -> Result<Arc<dyn TxnVersion>> {
        let rel = self
            .table(table)
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{table}'")))?;
        Ok(Arc::new(RelVersion(rel)))
    }

    /// Applies a committed MVCC delta under the copy-on-write swap: open
    /// snapshots keep the pre-delta relation, and rows, the columnar
    /// mirror and the indexes are all patched in place at the touched
    /// positions — O(|delta| · log n), plus one compaction pass per
    /// dense array when the delta deletes. The stream is validated whole
    /// first: a bad op changes nothing, the data version included.
    pub fn apply_delta(&self, table: &str, ops: &[DeltaOp]) -> Result<usize> {
        let mut tables = self.tables.write();
        let rel = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{table}'")))?;
        let mut net = NetDelta::default();
        net.fold(
            |id| rel.row_ids.binary_search(&id).ok(),
            ops,
            rel.columns.len(),
        )?;
        let MemRelation {
            columns,
            rows,
            row_ids,
            col_store,
            indexes,
        } = Arc::make_mut(rel);
        let rekeyed: Vec<Vec<usize>> = indexes
            .iter_mut()
            .map(|idx| IndexData::unlink(idx, &ColAccess(col_store), &net))
            .collect();
        let outcome = net.apply(rows, row_ids);
        if let Some(max_id) = outcome.max_inserted_id {
            let mut ids = self.next_ids.lock();
            let next = ids.entry(table.to_ascii_lowercase()).or_default();
            *next = (*next).max(max_id + 1);
        }
        // The mirror follows the rows: same three steps, same order.
        let rewritten: Vec<(usize, &Row)> = outcome
            .rewritten
            .iter()
            .map(|&pos| (pos, &rows[outcome.final_pos(pos)]))
            .collect();
        for (c, col) in col_store.iter_mut().enumerate() {
            for (pos, row) in &rewritten {
                col.set(*pos, row[c].clone());
            }
            col.remove_sorted(&outcome.deleted);
            let added = outcome.inserted.iter().map(|&pos| rows[pos][c].clone());
            col.insert_sorted(&outcome.inserted, Column::from_datums(&columns[c].1, added));
        }
        for (idx, rekeyed) in indexes.iter_mut().zip(&rekeyed) {
            IndexData::relink(idx, &ColAccess(col_store), &outcome, rekeyed);
        }
        self.bump_version(table);
        Ok(ops.len())
    }

    /// Reserves `n` consecutive row ids for `table`, returning the first.
    pub fn reserve_row_ids(&self, table: &str, n: usize) -> Result<u64> {
        let key = table.to_ascii_lowercase();
        if !self.tables.read().contains_key(&key) {
            return Err(CalciteError::execution(format!(
                "memdb: no table '{table}'"
            )));
        }
        let mut ids = self.next_ids.lock();
        let next = ids.entry(key).or_default();
        let start = *next;
        *next += n as u64;
        Ok(start)
    }

    /// Creates a secondary index on `table`, built over the current
    /// columnar mirror. Copy-on-write like `insert`: open snapshots keep
    /// the index-less relation.
    pub fn create_index(&self, table: &str, def: &IndexDef) -> Result<()> {
        let mut tables = self.tables.write();
        let rel = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{table}'")))?;
        let rel = Arc::make_mut(rel);
        if rel.indexes.iter().any(|i| i.def.name == def.name) {
            return Err(CalciteError::validate(format!(
                "index '{}' already exists on '{table}'",
                def.name
            )));
        }
        let built = IndexData::build(def.clone(), &ColAccess(&rel.col_store))?;
        rel.indexes.push(Arc::new(built));
        Ok(())
    }

    /// Drops an index from `table`; `Ok(true)` if it existed.
    pub fn drop_index(&self, table: &str, name: &str) -> Result<bool> {
        let mut tables = self.tables.write();
        let rel = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{table}'")))?;
        let rel = Arc::make_mut(rel);
        let before = rel.indexes.len();
        rel.indexes.retain(|i| i.def.name != name);
        Ok(rel.indexes.len() < before)
    }

    /// The index definitions on `table` (empty for unknown tables).
    pub fn indexes(&self, table: &str) -> Vec<IndexDef> {
        self.table(table).map_or(vec![], |rel| rel.index_defs())
    }

    /// A consistent probe snapshot of `index` on `table`: one `Arc`
    /// snapshot carries rows, columnar mirror and index state together,
    /// so probes are undisturbed by concurrent inserts. `Ok(None)` when
    /// the index does not exist.
    pub fn index_probe(&self, table: &str, index: &str) -> Result<Option<Arc<dyn IndexProbe>>> {
        let rel = self
            .table(table)
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{table}'")))?;
        let Some(idx) = rel.indexes.iter().find(|i| i.def.name == index).cloned() else {
            return Ok(None);
        };
        Ok(Some(Arc::new(SnapshotProbe {
            data: RelAccess(rel),
            index: idx,
        })))
    }

    /// Native columnar scan: clones the typed column vectors of a table —
    /// no per-row pivoting. This is the materializing form; batch
    /// executors stream through [`MemDb::scan_batches`] instead.
    pub fn scan_columns(&self, name: &str) -> Result<Vec<Column>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .map(|t| t.col_store.clone())
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{name}'")))
    }

    /// Streaming columnar scan: takes an `Arc` snapshot of the relation
    /// and serves `batch_size`-row slices of the columnar mirror on
    /// demand. Nothing beyond the slice being pulled is copied, so the
    /// batch pipeline's memory stays bounded regardless of table size.
    pub fn scan_batches(&self, name: &str, batch_size: usize) -> Result<Box<dyn BatchIter>> {
        let rel = self
            .tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{name}'")))?;
        Ok(Box::new(SlicedColumns::new(
            ColStoreSnapshot(rel),
            batch_size,
        )))
    }

    /// A consistent snapshot of a table's columnar mirror for
    /// morsel-driven parallel scans: workers slice disjoint row ranges
    /// out of one `Arc` snapshot without copying the store.
    pub fn scan_snapshot(&self, name: &str) -> Result<Arc<ColStoreSnapshot>> {
        let rel = self
            .tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{name}'")))?;
        Ok(Arc::new(ColStoreSnapshot(rel)))
    }

    pub fn table(&self, name: &str) -> Option<Arc<MemRelation>> {
        self.tables.read().get(&name.to_ascii_lowercase()).cloned()
    }

    /// Computes planner statistics (row count, per-column NDV/min/max/null
    /// fraction, equi-depth histograms) straight from the columnar mirror
    /// of an `Arc` snapshot — no row pivoting, no copy of the store. This
    /// is the native `ANALYZE` path the JDBC adapter's tables expose.
    pub fn analyze(&self, name: &str) -> Result<TableStats> {
        let rel = self
            .table(name)
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{name}'")))?;
        Ok(analyze_columns(rel.column_data(), rel.rows.len()))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    pub fn row_count(&self, name: &str) -> usize {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .map(|t| t.rows.len())
            .unwrap_or(0)
    }

    /// Executes a query spec, applying predicates and ordering on base
    /// columns, then projecting.
    pub fn execute(&self, q: &SqlQuerySpec) -> Result<Vec<Row>> {
        let tables = self.tables.read();
        let rel = tables
            .get(&q.table.to_ascii_lowercase())
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{}'", q.table)))?;
        let ncols = rel.columns.len();
        for p in &q.predicates {
            if p.col >= ncols {
                return Err(CalciteError::execution(format!(
                    "memdb: predicate column {} out of range for '{}'",
                    p.col, q.table
                )));
            }
        }
        let mut rows: Vec<Row> = rel
            .rows
            .iter()
            .filter(|r| q.predicates.iter().all(|p| p.matches(r)))
            .cloned()
            .collect();
        if !q.order.is_empty() {
            // NULLs sort last for both directions, matching the default
            // `FieldCollation` the planner pushes down (so a sort executed
            // here is indistinguishable from one run by the enumerable
            // executors).
            rows.sort_by(|a, b| {
                for (col, desc) in &q.order {
                    let (x, y) = (&a[*col], &b[*col]);
                    let ord = match (x.is_null(), y.is_null()) {
                        (true, true) => std::cmp::Ordering::Equal,
                        (true, false) => std::cmp::Ordering::Greater,
                        (false, true) => std::cmp::Ordering::Less,
                        (false, false) => {
                            let o = x.cmp(y);
                            if *desc {
                                o.reverse()
                            } else {
                                o
                            }
                        }
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        let start = q.offset.unwrap_or(0).min(rows.len());
        let end = match q.fetch {
            Some(f) => (start + f).min(rows.len()),
            None => rows.len(),
        };
        let mut rows: Vec<Row> = rows.drain(start..end).collect();
        if let Some(proj) = &q.projection {
            rows = rows
                .into_iter()
                .map(|r| proj.iter().map(|i| r[*i].clone()).collect())
                .collect();
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::CmpOp;
    use rcalcite_core::datum::Datum;

    fn db() -> Arc<MemDb> {
        let db = MemDb::new();
        db.create_table(
            "products",
            vec![
                ("productid".into(), TypeKind::Integer),
                ("name".into(), TypeKind::Varchar),
                ("price".into(), TypeKind::Double),
            ],
            vec![
                vec![Datum::Int(1), Datum::str("anvil"), Datum::Double(10.0)],
                vec![Datum::Int(2), Datum::str("rocket"), Datum::Double(100.0)],
                vec![Datum::Int(3), Datum::str("rope"), Datum::Double(5.0)],
            ],
        );
        db
    }

    #[test]
    fn full_scan() {
        let db = db();
        let rows = db.execute(&SqlQuerySpec::scan("products")).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(db.row_count("products"), 3);
    }

    #[test]
    fn filter_project_order_limit() {
        let db = db();
        let q = SqlQuerySpec {
            table: "products".into(),
            predicates: vec![ColPredicate::new(2, CmpOp::Ge, Datum::Double(6.0))],
            projection: Some(vec![1]),
            order: vec![(2, true)],
            offset: None,
            fetch: Some(1),
        };
        let rows = db.execute(&q).unwrap();
        assert_eq!(rows, vec![vec![Datum::str("rocket")]]);
    }

    #[test]
    fn offset_pagination() {
        let db = db();
        let q = SqlQuerySpec {
            table: "products".into(),
            order: vec![(0, false)],
            offset: Some(1),
            fetch: Some(1),
            ..SqlQuerySpec::scan("products")
        };
        let rows = db.execute(&q).unwrap();
        assert_eq!(rows[0][0], Datum::Int(2));
    }

    #[test]
    fn insert_and_arity_check() {
        let db = db();
        db.insert(
            "products",
            vec![Datum::Int(4), Datum::str("tnt"), Datum::Double(50.0)],
        )
        .unwrap();
        assert_eq!(db.row_count("products"), 4);
        assert!(db.insert("products", vec![Datum::Int(5)]).is_err());
        assert!(db.insert("missing", vec![]).is_err());
    }

    #[test]
    fn unknown_table_and_bad_predicate() {
        let db = db();
        assert!(db.execute(&SqlQuerySpec::scan("missing")).is_err());
        let q = SqlQuerySpec {
            predicates: vec![ColPredicate::new(99, CmpOp::Eq, Datum::Int(1))],
            ..SqlQuerySpec::scan("products")
        };
        assert!(db.execute(&q).is_err());
    }

    #[test]
    fn columnar_mirror_tracks_inserts() {
        let db = db();
        let cols = db.scan_columns("products").unwrap();
        assert_eq!(cols.len(), 3);
        assert!(matches!(cols[0], Column::Int { .. }));
        assert!(matches!(cols[1], Column::Str { .. }));
        assert_eq!(cols[0].len(), 3);
        db.insert(
            "products",
            vec![Datum::Int(4), Datum::str("tnt"), Datum::Double(50.0)],
        )
        .unwrap();
        let cols = db.scan_columns("products").unwrap();
        assert_eq!(cols[0].len(), 4);
        assert_eq!(cols[1].get(3), Datum::str("tnt"));
        assert!(db.scan_columns("missing").is_err());
    }

    #[test]
    fn scan_batches_streams_slices_from_a_snapshot() {
        let db = db();
        let mut it = db.scan_batches("products", 2).unwrap();
        assert_eq!(it.arity(), 3);
        let first = it.next_batch().unwrap().unwrap();
        assert_eq!(first[0].len(), 2);
        // An insert between pulls must not disturb the open scan: it
        // reads from its Arc snapshot.
        db.insert(
            "products",
            vec![Datum::Int(4), Datum::str("tnt"), Datum::Double(50.0)],
        )
        .unwrap();
        let second = it.next_batch().unwrap().unwrap();
        assert_eq!(second[0].len(), 1);
        assert!(it.next_batch().unwrap().is_none());
        // A fresh scan sees the inserted row.
        let mut it = db.scan_batches("products", 10).unwrap();
        assert_eq!(it.next_batch().unwrap().unwrap()[0].len(), 4);
        assert!(db.scan_batches("missing", 2).is_err());
    }

    #[test]
    fn range_snapshot_is_zero_copy_and_stable() {
        let db = db();
        let snap = db.scan_snapshot("products").unwrap();
        assert_eq!(snap.row_count(), 3);
        // Inserts after the snapshot stay invisible to its ranges.
        db.insert(
            "products",
            vec![Datum::Int(4), Datum::str("tnt"), Datum::Double(50.0)],
        )
        .unwrap();
        let mut it = snap.clone().scan_range(2, 1, 10).unwrap();
        let first = it.next_batch().unwrap().unwrap();
        assert_eq!(first[0].len(), 2);
        assert_eq!(first[0].get(0), Datum::Int(2));
        assert!(it.next_batch().unwrap().is_none());
        assert_eq!(db.scan_snapshot("products").unwrap().row_count(), 4);
        assert!(db.scan_snapshot("missing").is_err());
    }

    #[test]
    fn order_puts_nulls_last_both_directions() {
        let db = MemDb::new();
        db.create_table(
            "t",
            vec![("v".into(), TypeKind::Integer)],
            vec![vec![Datum::Null], vec![Datum::Int(2)], vec![Datum::Int(1)]],
        );
        let q = SqlQuerySpec {
            order: vec![(0, false)],
            ..SqlQuerySpec::scan("t")
        };
        let rows = db.execute(&q).unwrap();
        assert_eq!(rows[0][0], Datum::Int(1));
        assert!(rows[2][0].is_null());
        let q = SqlQuerySpec {
            order: vec![(0, true)],
            ..SqlQuerySpec::scan("t")
        };
        let rows = db.execute(&q).unwrap();
        assert_eq!(rows[0][0], Datum::Int(2));
        assert!(rows[2][0].is_null());
    }

    #[test]
    fn apply_delta_cow_keeps_open_snapshots() {
        let db = db();
        let before = db.txn_snapshot("products").unwrap();
        db.create_index("products", &IndexDef::ordered("p_id", vec![0]))
            .unwrap();
        // Update product 2's price, delete product 1, insert product 4.
        let start = db.reserve_row_ids("products", 1).unwrap();
        db.apply_delta(
            "products",
            &[
                DeltaOp::Update {
                    row_id: 1,
                    row: vec![Datum::Int(2), Datum::str("rocket"), Datum::Double(99.0)],
                },
                DeltaOp::Delete { row_id: 0 },
                DeltaOp::Insert {
                    row_id: start,
                    row: vec![Datum::Int(4), Datum::str("tnt"), Datum::Double(50.0)],
                },
            ],
        )
        .unwrap();
        // The pre-delta snapshot is untouched.
        assert_eq!(before.row_count(), 3);
        assert_eq!(before.row(0)[1], Datum::str("anvil"));
        assert_eq!(before.row(1)[2], Datum::Double(100.0));
        // The live relation reflects the delta; ids stay stable.
        let rel = db.table("products").unwrap();
        assert_eq!(rel.rows.len(), 3);
        assert_eq!(rel.row_ids(), &[1, 2, start]);
        assert_eq!(rel.rows[0][2], Datum::Double(99.0));
        // Columnar mirror tracks it.
        assert_eq!(rel.column_data()[2].get(0), Datum::Double(99.0));
        // The index was maintained incrementally and stays exact.
        let probe = db.index_probe("products", "p_id").unwrap().unwrap();
        use rcalcite_core::index::BoundProbe;
        assert_eq!(
            probe.positions(&BoundProbe::point(vec![Datum::Int(4)])),
            vec![2]
        );
        assert!(probe
            .positions(&BoundProbe::point(vec![Datum::Int(1)]))
            .is_empty());
    }

    #[test]
    fn column_lookup() {
        let db = db();
        let rel = db.table("products").unwrap();
        assert_eq!(rel.column_index("NAME"), Some(1));
        assert_eq!(rel.column_index("nope"), None);
    }
}
