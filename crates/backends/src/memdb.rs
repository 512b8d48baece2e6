//! `memdb`: an in-process relational store standing in for the paper's
//! JDBC backends (MySQL/PostgreSQL). It executes a structured query spec
//! covering the SQL subset a remote RDBMS would receive from the JDBC
//! adapter: conjunctive predicates, projection, ordering and limits. The
//! adapter renders the equivalent SQL *text* in the target dialect; this
//! spec is the executable form.

use crate::common::ColPredicate;
use parking_lot::{Mutex, RwLock};
use rcalcite_core::datum::{Column, Row};
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::index::IndexDef;
use rcalcite_core::store::Version;
use rcalcite_core::txn::DeltaOp;
use rcalcite_core::types::TypeKind;
use std::collections::HashMap;
use std::sync::Arc;

/// One relation: schema plus the current [`Version`] of its contents —
/// chunked typed columns, stable row ids and secondary indexes behind one
/// `Arc`, the same store core's `MemTable` sits on. Every snapshot the
/// database hands out (scan, probe, transaction) is a clone of that
/// `Arc`; a write copies only the chunks it touches away from them. The
/// id counter lives on [`MemDb`], so reservations never touch a relation.
#[derive(Debug, Clone)]
pub struct MemRelation {
    pub columns: Vec<(String, TypeKind)>,
    version: Arc<Version>,
}

impl MemRelation {
    fn new(columns: Vec<(String, TypeKind)>, rows: Vec<Row>) -> MemRelation {
        let kinds = columns.iter().map(|(_, kind)| kind.clone()).collect();
        MemRelation {
            columns,
            version: Arc::new(Version::new(kinds, rows)),
        }
    }

    /// The current rows, in position order.
    pub fn rows(&self) -> Vec<Row> {
        self.version.rows_with_ids().map(|(_, row)| row).collect()
    }

    /// Stable ids of the current rows, parallel to [`MemRelation::rows`]
    /// and strictly ascending.
    pub fn row_ids(&self) -> Vec<u64> {
        self.version.row_ids().collect()
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(name))
    }

    /// The native columnar form of this relation: one `(rows, columns)`
    /// pair per chunk of the store, in position order.
    pub fn column_chunks(&self) -> impl Iterator<Item = (usize, &[Column])> + '_ {
        self.version.chunks()
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
        self.next_ids.lock().insert(name.clone(), rows.len() as u64);
        let rel = MemRelation::new(columns, rows);
        self.tables.write().insert(name, Arc::new(rel));
    }

    fn relation(&self, table: &str) -> Result<Arc<MemRelation>> {
        self.table(table)
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{table}'")))
    }

    /// The current [`Version`] of `table`: one `Arc` clone carrying its
    /// chunked columns, row ids and indexes of one instant. Every read
    /// beyond [`MemDb::execute`] — MVCC snapshots, range scans, index
    /// probes, `ANALYZE` — is a method of the version, unaffected by
    /// later writes, which copy only the chunks they touch away from it.
    pub fn version(&self, table: &str) -> Result<Arc<Version>> {
        Ok(Arc::clone(&self.relation(table)?.version))
    }

    /// Runs `f` on the current version of `table` under the write lock.
    /// Snapshots taken earlier keep the version they cloned.
    fn write<R>(&self, table: &str, f: impl FnOnce(&mut Arc<Version>) -> Result<R>) -> Result<R> {
        let mut tables = self.tables.write();
        let rel = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| CalciteError::execution(format!("memdb: no table '{table}'")))?;
        f(&mut Arc::make_mut(rel).version)
    }

    pub fn insert(&self, table: &str, row: Row) -> Result<()> {
        self.write(table, |version| {
            if row.len() != version.arity() {
                return Err(CalciteError::execution(format!(
                    "memdb: arity mismatch inserting into '{table}'"
                )));
            }
            let mut ids = self.next_ids.lock();
            let next = ids.entry(table.to_ascii_lowercase()).or_default();
            Version::push(version, *next, row);
            *next += 1;
            Ok(())
        })?;
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

    /// Applies a committed MVCC delta: open snapshots keep the pre-delta
    /// version, sharing every chunk the delta does not touch, and the
    /// indexes are patched at the touched positions. The stream is
    /// validated whole first: a bad op changes nothing, the data version
    /// included.
    pub fn apply_delta(&self, table: &str, ops: &[DeltaOp]) -> Result<usize> {
        let max_inserted = self.write(table, |version| Version::apply_delta(version, ops))?;
        if let Some(max_id) = max_inserted {
            let mut ids = self.next_ids.lock();
            let next = ids.entry(table.to_ascii_lowercase()).or_default();
            *next = (*next).max(max_id + 1);
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
    /// rows. Open snapshots keep the index-less version.
    pub fn create_index(&self, table: &str, def: &IndexDef) -> Result<()> {
        self.write(table, |version| Version::create_index(version, def))
    }

    /// Drops an index from `table`; `Ok(true)` if it existed.
    pub fn drop_index(&self, table: &str, name: &str) -> Result<bool> {
        self.write(table, |version| Ok(Version::drop_index(version, name)))
    }

    pub fn table(&self, name: &str) -> Option<Arc<MemRelation>> {
        self.tables.read().get(&name.to_ascii_lowercase()).cloned()
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    pub fn row_count(&self, name: &str) -> usize {
        self.table(name).map_or(0, |rel| rel.version.len())
    }

    /// Executes a query spec, applying predicates and ordering on base
    /// columns, then projecting.
    pub fn execute(&self, q: &SqlQuerySpec) -> Result<Vec<Row>> {
        let rel = self.relation(&q.table)?;
        let ncols = rel.columns.len();
        for p in &q.predicates {
            if p.col >= ncols {
                return Err(CalciteError::execution(format!(
                    "memdb: predicate column {} out of range for '{}'",
                    p.col, q.table
                )));
            }
        }
        // Predicates read their column in place; only matches become rows.
        let mut rows: Vec<Row> = vec![];
        for (len, chunk) in rel.column_chunks() {
            let passes = |r: &usize| {
                let mut preds = q.predicates.iter();
                preds.all(|p| p.op.matches(&chunk[p.col].get(*r), &p.value))
            };
            let hits = (0..len).filter(passes);
            rows.extend(hits.map(|r| chunk.iter().map(|c| c.get(r)).collect::<Row>()));
        }
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

    /// A chunk's length is its own, not its first column's: a
    /// zero-column table still executes to every row it holds.
    #[test]
    fn zero_column_table_executes_every_row() {
        let db = MemDb::new();
        db.create_table("z", vec![], vec![vec![]; 5000]);
        let rows = db.execute(&SqlQuerySpec::scan("z")).unwrap();
        assert_eq!((rows.len(), db.row_count("z")), (5000, 5000));
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

    /// A version's batches, `batch_size` rows at most, in position order.
    fn version_scan(
        db: &MemDb,
        table: &str,
        batch_size: usize,
    ) -> Result<Box<dyn rcalcite_core::exec::BatchIter>> {
        use rcalcite_core::catalog::RangeScan;
        let version = db.version(table)?;
        let rows = version.len();
        version.scan_range(batch_size, 0, rows)
    }

    #[test]
    fn columnar_scan_tracks_inserts() {
        let db = db();
        let cols = version_scan(&db, "products", 10)
            .unwrap()
            .next_batch()
            .unwrap()
            .unwrap();
        assert_eq!(cols.len(), 3);
        assert!(matches!(cols[0], Column::Int { .. }));
        assert!(matches!(cols[1], Column::Str { .. }));
        assert_eq!(cols[0].len(), 3);
        db.insert(
            "products",
            vec![Datum::Int(4), Datum::str("tnt"), Datum::Double(50.0)],
        )
        .unwrap();
        let mut it = version_scan(&db, "products", 10).unwrap();
        let cols = it.next_batch().unwrap().unwrap();
        assert_eq!(cols[0].len(), 4);
        assert_eq!(cols[1].get(3), Datum::str("tnt"));
        assert!(version_scan(&db, "missing", 10).is_err());
    }

    #[test]
    fn version_scan_streams_slices_from_a_snapshot() {
        let db = db();
        let mut it = version_scan(&db, "products", 2).unwrap();
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
        let mut it = version_scan(&db, "products", 10).unwrap();
        assert_eq!(it.next_batch().unwrap().unwrap()[0].len(), 4);
        assert!(version_scan(&db, "missing", 2).is_err());
    }

    #[test]
    fn range_snapshot_is_zero_copy_and_stable() {
        use rcalcite_core::catalog::RangeScan;
        let db = db();
        let snap = db.version("products").unwrap();
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
        assert_eq!(db.version("products").unwrap().row_count(), 4);
        assert!(db.version("missing").is_err());
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
        let before = db.version("products").unwrap();
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
        assert_eq!(before.len(), 3);
        assert_eq!(before.row(0)[1], Datum::str("anvil"));
        assert_eq!(before.row(1)[2], Datum::Double(100.0));
        // The live relation reflects the delta; ids stay stable.
        let rel = db.table("products").unwrap();
        assert_eq!(rel.row_ids(), [1, 2, start]);
        assert_eq!(rel.rows()[0][2], Datum::Double(99.0));
        assert_eq!(
            rel.column_chunks().next().unwrap().1[2].get(0),
            Datum::Double(99.0)
        );
        // The index was maintained incrementally and stays exact.
        let version = db.version("products").unwrap();
        let probe = version.index_probe("p_id").unwrap();
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
