//! The catalog SPI: tables, schemas and statistics. Calcite "provides a
//! mechanism to define table schemas and views in external storage engines
//! via adapters" (§3) — this module is that mechanism's core interface.

use crate::datum::Row;
use crate::error::{CalciteError, Result};
use crate::exec::BatchOp;
use crate::index::{IndexDef, IndexProbe};
use crate::store::Version;
use crate::traits::{Collation, Convention};
use crate::types::RowType;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Statistics a table exposes to the optimizer. Per §6, "for many
/// \[systems\], it is sufficient to provide statistics about their input
/// data ... and Calcite will do the rest of the work".
#[derive(Debug, Clone)]
pub struct Statistic {
    /// Estimated number of rows.
    pub row_count: f64,
    /// Sets of columns that are unique keys.
    pub keys: Vec<Vec<usize>>,
    /// Orderings the physical data already has (lets the optimizer drop
    /// redundant sorts).
    pub collations: Vec<Collation>,
}

impl Statistic {
    pub fn unknown() -> Statistic {
        Statistic {
            row_count: 100.0,
            keys: vec![],
            collations: vec![],
        }
    }

    pub fn of_rows(row_count: f64) -> Statistic {
        Statistic {
            row_count,
            keys: vec![],
            collations: vec![],
        }
    }

    pub fn with_key(mut self, key: Vec<usize>) -> Statistic {
        self.keys.push(key);
        self
    }

    pub fn with_collation(mut self, collation: Collation) -> Statistic {
        self.collations.push(collation);
        self
    }
}

/// The adapter contract (§5: "If an adapter implements the table scan
/// operator, the Calcite optimizer is then able to use client-side
/// operators ... to execute arbitrary SQL queries against these tables").
///
/// - **Required:** a row type and [`Table::scan`], the row scan. That is
///   all a row-only adapter implements, and the only place the contract
///   speaks rows: the engine pivots them into the [`crate::exec::ColumnBatch`]
///   stream every execution boundary hands over
///   ([`crate::exec::RowsOp`]).
/// - **Columnar:** a table that holds its data as a
///   [`crate::store::Version`] returns it from [`Table::txn_snapshot`].
///   Every other read then derives from that one `Arc`: the snapshot
///   scans slice ([`Table::scan_snapshot`]), the indexes and their probes,
///   and `ANALYZE` ([`crate::stats::analyze_table`]). A table with some
///   other columnar form overrides [`Table::scan_snapshot`] instead.
/// - **Writable:** index DDL and the transactional write methods; the
///   defaults refuse.
pub trait Table: Send + Sync {
    fn row_type(&self) -> RowType;

    fn statistic(&self) -> Statistic {
        Statistic::unknown()
    }

    /// Enumerates all rows. Backends with richer access paths expose them
    /// through adapter rules instead.
    fn scan(&self) -> Result<Box<dyn Iterator<Item = Row> + Send>>;

    /// A consistent columnar snapshot of the table, sliced by position:
    /// the serial scan streams the whole of it, and morsel workers claim
    /// `[start, start + len)` ranges of the *same* snapshot, so a
    /// concurrent write cannot tear a scan. Must be cheap — sizing a
    /// parallel scan and EXPLAIN take one without scanning.
    ///
    /// The default is the [`Table::txn_snapshot`] version itself, shared
    /// and never copied. `Ok(None)` — no version, or a zero-arity one —
    /// means the engine pivots [`Table::scan`].
    fn scan_snapshot(&self) -> Result<Option<Arc<dyn RangeScan>>> {
        Ok(self.txn_snapshot().and_then(Version::range_scan))
    }

    /// The calling convention in which scans of this table naturally start.
    /// Adapter tables return their backend convention; plain tables return
    /// the logical convention.
    fn convention(&self) -> Convention {
        Convention::none()
    }

    /// Whether this table is a stream (time-ordered, unbounded; §7.2).
    fn is_stream(&self) -> bool {
        false
    }

    // ----- secondary-index SPI (§5: adapters expose access paths; the
    // ----- optimizer picks among them by cost) -----

    /// The secondary indexes currently defined on this table — by
    /// default, those of its [`Table::txn_snapshot`] version. Planner
    /// rules enumerate these to propose seek access paths; a table with
    /// none stays on full scans.
    fn indexes(&self) -> Vec<IndexDef> {
        self.txn_snapshot()
            .map_or_else(Vec::new, |v| v.index_defs())
    }

    /// Takes a consistent point-in-time snapshot for probing `index`:
    /// positions, rows and index state all refer to the same data, so
    /// concurrent INSERTs cannot tear a multi-probe seek or an in-flight
    /// index-nested-loop join. By default the probe of the
    /// [`Table::txn_snapshot`] version. `Ok(None)` means the index does
    /// not exist (e.g. it was dropped after the plan was cached) —
    /// callers fall back to a scan.
    fn index_probe_snapshot(&self, index: &str) -> Result<Option<Arc<dyn IndexProbe>>> {
        Ok(self.txn_snapshot().and_then(|v| v.index_probe(index)))
    }

    /// Creates a secondary index. `Ok(false)` means this table kind does
    /// not support indexes; duplicate names are an error.
    fn create_index(&self, def: &IndexDef) -> Result<bool> {
        let _ = def;
        Ok(false)
    }

    /// Drops an index by name; `Ok(true)` if it existed. Tables without
    /// index support report `Ok(false)`.
    fn drop_index(&self, name: &str) -> Result<bool> {
        let _ = name;
        Ok(false)
    }

    // ----- transactional write SPI (MVCC + WAL; `core::txn`) -----

    /// The table's current [`Version`] — chunked columns, stable row ids
    /// and index state of one instant, behind one `Arc` — for
    /// snapshot-isolated reads and every derived read surface. `None`
    /// (the default) means the table is not MVCC-capable: transactions
    /// leave it alone and its reads go through [`Table::scan`].
    fn txn_snapshot(&self) -> Option<Arc<Version>> {
        None
    }

    /// Applies a committed delta (keyed by stable row ids) to the live
    /// table state, maintaining secondary indexes incrementally, while
    /// open snapshots keep serving pre-delta data. Returns the number of
    /// operations applied.
    fn apply_delta(&self, ops: &[crate::txn::DeltaOp]) -> Result<usize> {
        let _ = ops;
        Err(CalciteError::unsupported(
            "table does not support transactional writes",
        ))
    }

    /// Reserves `n` consecutive row ids for upcoming inserts, returning
    /// the first. Ids are never reused.
    fn reserve_row_ids(&self, n: usize) -> Result<u64> {
        let _ = n;
        Err(CalciteError::unsupported(
            "table does not support transactional writes",
        ))
    }

    /// A counter that advances on every mutation of this table's data
    /// (insert, delta apply, bulk replace), whatever path the write took
    /// — including ones that bypass the transaction manager, like WAL
    /// replay or direct [`MemTable::insert`] calls. Incremental view
    /// maintenance records the versions of a view's base tables after
    /// each successful maintenance pass; a mismatch on a later read
    /// means the view can no longer be trusted and substitution must
    /// skip it. `None` (the default) means the table cannot report
    /// change versions, so views over it cannot be freshness-tracked.
    fn data_version(&self) -> Option<u64> {
        None
    }
}

/// A consistent, positionally-addressable view of a table taken at scan
/// open, from which the serial scan and morsel workers slice their row
/// ranges as [`BatchOp`] streams — the same batch contract as every
/// other execution boundary. Implementations are immutable snapshots
/// (shared behind `Arc`), so concurrent range scans need no locking.
pub trait RangeScan: Send + Sync {
    /// Total rows in the snapshot (morsel ranges partition `0..rows`).
    fn row_count(&self) -> usize;

    /// Streams rows `[start, start + len)` as dense batches of at most
    /// `batch_size` rows — an unopened [`BatchOp`], the stream every
    /// execution boundary hands over. Out-of-range windows clamp.
    fn scan_range(self: Arc<Self>, batch_size: usize, start: usize, len: usize) -> Result<BatchOp>;
}

/// A resolved reference to a table in the catalog; carried by scan nodes.
#[derive(Clone)]
pub struct TableRef {
    pub schema: String,
    pub name: String,
    pub table: Arc<dyn Table>,
}

impl TableRef {
    pub fn new(schema: impl Into<String>, name: impl Into<String>, table: Arc<dyn Table>) -> Self {
        TableRef {
            schema: schema.into(),
            name: name.into(),
            table,
        }
    }

    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.schema, self.name)
    }
}

impl fmt::Debug for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TableRef({})", self.qualified_name())
    }
}

impl PartialEq for TableRef {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.name == other.name
            && Arc::ptr_eq(
                &(self.table.clone() as Arc<dyn Table>),
                &(other.table.clone() as Arc<dyn Table>),
            )
    }
}

/// An in-memory table: the simplest `Table` implementation, used by tests,
/// examples, materialized-view storage and every `memdb` table.
pub struct MemTable {
    row_type: RowType,
    /// The current version: chunked columns, stable row ids (assigned at
    /// insert, never reused — the addressing MVCC deltas and the WAL use)
    /// and index state, behind one `Arc`. Every read surface clones that
    /// `Arc` (O(1)) and works off it with no lock held; a write takes the
    /// lock and path-copies away from whatever readers still pin.
    current: RwLock<Arc<Version>>,
    next_row_id: std::sync::atomic::AtomicU64,
    statistic: RwLock<Option<Statistic>>,
    /// Monotonic data version, bumped on every mutation (while the write
    /// lock is held, so version order matches write order). Serves
    /// [`Table::data_version`] for view-freshness tracking.
    version: std::sync::atomic::AtomicU64,
}

impl MemTable {
    pub fn new(row_type: RowType, rows: Vec<Row>) -> Arc<MemTable> {
        let n = rows.len() as u64;
        let kinds = row_type.fields.iter().map(|f| f.ty.kind.clone()).collect();
        Arc::new(MemTable {
            row_type,
            current: RwLock::new(Arc::new(Version::new(kinds, rows))),
            next_row_id: std::sync::atomic::AtomicU64::new(n),
            statistic: RwLock::new(None),
            version: std::sync::atomic::AtomicU64::new(0),
        })
    }

    pub fn with_statistic(self: Arc<Self>, s: Statistic) -> Arc<Self> {
        *self.statistic.write() = Some(s);
        self
    }

    pub(crate) fn snapshot(&self) -> Arc<Version> {
        Arc::clone(&self.current.read())
    }

    /// Runs one mutation under the write lock, bumping the data version.
    fn write<R>(&self, f: impl FnOnce(&mut Arc<Version>) -> R) -> R {
        let mut current = self.current.write();
        self.version
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        f(&mut current)
    }

    pub fn rows(&self) -> Vec<Row> {
        self.snapshot()
            .rows_with_ids()
            .map(|(_, row)| row)
            .collect()
    }

    /// Stable ids of the current rows, parallel to [`MemTable::rows`].
    pub fn row_ids(&self) -> Vec<u64> {
        self.snapshot().row_ids().collect()
    }

    pub fn insert(&self, row: Row) {
        self.write(|current| {
            let id = self
                .next_row_id
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Version::push(current, id, row);
        })
    }

    pub fn replace_all(&self, rows: Vec<Row>) {
        self.write(|current| {
            let start = self
                .next_row_id
                .fetch_add(rows.len() as u64, std::sync::atomic::Ordering::SeqCst);
            *current = Arc::new(current.replaced(start, rows));
        })
    }

    pub fn len(&self) -> usize {
        self.current.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.current.read().is_empty()
    }
}

impl Table for MemTable {
    fn row_type(&self) -> RowType {
        self.row_type.clone()
    }

    fn statistic(&self) -> Statistic {
        self.statistic
            .read()
            .clone()
            .unwrap_or_else(|| Statistic::of_rows(self.len() as f64))
    }

    fn scan(&self) -> Result<Box<dyn Iterator<Item = Row> + Send>> {
        Ok(Box::new(self.snapshot().into_rows()))
    }

    fn create_index(&self, def: &IndexDef) -> Result<bool> {
        // An index changes no data: the data version stays.
        Version::create_index(&mut self.current.write(), def)?;
        Ok(true)
    }

    fn drop_index(&self, name: &str) -> Result<bool> {
        Ok(Version::drop_index(&mut self.current.write(), name))
    }

    fn txn_snapshot(&self) -> Option<Arc<Version>> {
        Some(self.snapshot())
    }

    fn apply_delta(&self, ops: &[crate::txn::DeltaOp]) -> Result<usize> {
        let mut current = self.current.write();
        // A rejected stream leaves rows, ids, indexes and the data
        // version exactly as they were.
        if let Some(max_id) = Version::apply_delta(&mut current, ops)? {
            self.next_row_id
                .fetch_max(max_id + 1, std::sync::atomic::Ordering::SeqCst);
        }
        self.version
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(ops.len())
    }

    fn reserve_row_ids(&self, n: usize) -> Result<u64> {
        Ok(self
            .next_row_id
            .fetch_add(n as u64, std::sync::atomic::Ordering::SeqCst))
    }

    fn data_version(&self) -> Option<u64> {
        Some(self.version.load(std::sync::atomic::Ordering::SeqCst))
    }
}

/// A named collection of tables, typically produced by an adapter's schema
/// factory from a model (§5, Figure 3). Interior-mutable so DDL (§9 future
/// work, implemented here) can add and drop tables on a live catalog.
#[derive(Default)]
pub struct Schema {
    tables: RwLock<HashMap<String, Arc<dyn Table>>>,
}

impl Schema {
    pub fn new() -> Schema {
        Schema::default()
    }

    pub fn add_table(&self, name: impl Into<String>, table: Arc<dyn Table>) {
        self.tables
            .write()
            .insert(name.into().to_ascii_lowercase(), table);
    }

    /// Removes a table; returns whether it existed.
    pub fn remove_table(&self, name: &str) -> bool {
        self.tables
            .write()
            .remove(&name.to_ascii_lowercase())
            .is_some()
    }

    pub fn table(&self, name: &str) -> Option<Arc<dyn Table>> {
        self.tables.read().get(&name.to_ascii_lowercase()).cloned()
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// The root catalog: a set of named schemas plus a default search schema,
/// and the `ANALYZE`d statistics store the planner's stats-backed
/// metadata provider reads from.
pub struct Catalog {
    schemas: RwLock<HashMap<String, Arc<Schema>>>,
    default_schema: RwLock<Option<String>>,
    stats: Arc<crate::stats::StatsRegistry>,
    txns: Arc<crate::txn::TxnManager>,
    /// Incremental-view-maintenance registry: every commit through
    /// `txns` keeps the materialized views registered here up to date.
    ivm: Arc<crate::ivm::IvmRegistry>,
    /// DDL generation counter, shared by every connection over this
    /// catalog: plans cached at generation `g` are discarded once the
    /// counter moves past `g`. Lives here (not per-connection) so
    /// core-level events — a maintained view going stale, a view
    /// dropped on another connection — invalidate every cache.
    generation: Arc<std::sync::atomic::AtomicU64>,
}

impl Default for Catalog {
    fn default() -> Catalog {
        let stats = Arc::new(crate::stats::StatsRegistry::default());
        let generation = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let ivm = Arc::new(crate::ivm::IvmRegistry::new(
            Arc::clone(&stats),
            Arc::clone(&generation),
        ));
        let txns = Arc::new(crate::txn::TxnManager::with_ivm(Arc::clone(&ivm)));
        Catalog {
            schemas: RwLock::new(HashMap::new()),
            default_schema: RwLock::new(None),
            stats,
            txns,
            ivm,
            generation,
        }
    }
}

impl Catalog {
    pub fn new() -> Arc<Catalog> {
        Arc::new(Catalog::default())
    }

    /// The catalog's statistics store (qualified table name → stats),
    /// populated by `ANALYZE` and generation-stamped against the plan
    /// cache's DDL counter.
    pub fn stats(&self) -> &crate::stats::StatsRegistry {
        &self.stats
    }

    /// The maintained-view registry this catalog's commits maintain.
    pub fn ivm(&self) -> &Arc<crate::ivm::IvmRegistry> {
        &self.ivm
    }

    /// Current DDL/staleness generation. Cached plans carry the value
    /// current when they were built and are re-planned once it moves.
    pub fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Invalidates every plan cached against this catalog (DDL, ANALYZE,
    /// view freshness transitions).
    pub fn bump_generation(&self) -> u64 {
        self.generation
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            + 1
    }

    /// The transaction manager every connection over this catalog
    /// shares: one timestamp clock, one commit lock, one conflict
    /// history, one (optional) write-ahead log.
    pub fn txns(&self) -> &Arc<crate::txn::TxnManager> {
        &self.txns
    }

    /// Every table in the catalog, resolved. Transactions capture their
    /// BEGIN snapshots from this set.
    pub fn all_tables(&self) -> Vec<TableRef> {
        let mut out = vec![];
        for schema_name in self.schema_names() {
            if let Some(schema) = self.schema(&schema_name) {
                for table_name in schema.table_names() {
                    if let Some(table) = schema.table(&table_name) {
                        out.push(TableRef::new(schema_name.clone(), table_name, table));
                    }
                }
            }
        }
        out
    }

    pub fn add_schema(&self, name: impl Into<String>, schema: Schema) {
        let name = name.into().to_ascii_lowercase();
        let mut schemas = self.schemas.write();
        let is_first = schemas.is_empty();
        schemas.insert(name.clone(), Arc::new(schema));
        if is_first {
            *self.default_schema.write() = Some(name);
        }
    }

    pub fn set_default_schema(&self, name: impl Into<String>) {
        *self.default_schema.write() = Some(name.into().to_ascii_lowercase());
    }

    pub fn default_schema_name(&self) -> Option<String> {
        self.default_schema.read().clone()
    }

    pub fn schema(&self, name: &str) -> Option<Arc<Schema>> {
        self.schemas.read().get(&name.to_ascii_lowercase()).cloned()
    }

    pub fn schema_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.schemas.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Resolves `[schema.]table` against the default schema.
    pub fn resolve(&self, parts: &[&str]) -> Result<TableRef> {
        match parts {
            [table] => {
                let default = self.default_schema.read().clone().ok_or_else(|| {
                    CalciteError::validate(format!(
                        "no default schema while resolving table '{table}'"
                    ))
                })?;
                self.resolve(&[&default, table])
            }
            [schema, table] => {
                let s = self.schema(schema).ok_or_else(|| {
                    CalciteError::validate(format!("schema '{schema}' not found"))
                })?;
                let t = s.table(table).ok_or_else(|| {
                    CalciteError::validate(format!("table '{schema}.{table}' not found"))
                })?;
                Ok(TableRef::new(
                    schema.to_ascii_lowercase(),
                    table.to_ascii_lowercase(),
                    t,
                ))
            }
            _ => Err(CalciteError::validate(format!(
                "cannot resolve table name {:?}",
                parts
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::{Column, Datum};
    use crate::types::{RowTypeBuilder, TypeKind};

    fn emp_table() -> Arc<MemTable> {
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("deptno", TypeKind::Integer)
                .add("sal", TypeKind::Double)
                .build(),
            vec![
                vec![Datum::Int(10), Datum::Double(1000.0)],
                vec![Datum::Int(20), Datum::Double(2000.0)],
            ],
        )
    }

    #[test]
    fn mem_table_scan_and_stats() {
        let t = emp_table();
        let rows: Vec<Row> = t.scan().unwrap().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(t.statistic().row_count, 2.0);
        t.insert(vec![Datum::Int(30), Datum::Double(3000.0)]);
        assert_eq!(t.statistic().row_count, 3.0);
    }

    #[test]
    fn catalog_resolution() {
        let cat = Catalog::new();
        let s = Schema::new();
        s.add_table("emp", emp_table());
        cat.add_schema("hr", s);

        // Qualified.
        let r = cat.resolve(&["hr", "emp"]).unwrap();
        assert_eq!(r.qualified_name(), "hr.emp");
        // Unqualified falls back to the default (first) schema.
        let r = cat.resolve(&["emp"]).unwrap();
        assert_eq!(r.schema, "hr");
        // Case-insensitive.
        let r = cat.resolve(&["HR", "EMP"]).unwrap();
        assert_eq!(r.name, "emp");
    }

    #[test]
    fn catalog_errors() {
        let cat = Catalog::new();
        assert!(cat.resolve(&["nope"]).is_err());
        let s = Schema::new();
        s.add_table("emp", emp_table());
        cat.add_schema("hr", s);
        assert!(cat.resolve(&["hr", "nothere"]).is_err());
        assert!(cat.resolve(&["badschema", "emp"]).is_err());
    }

    #[test]
    fn default_schema_switch() {
        let cat = Catalog::new();
        let a = Schema::new();
        a.add_table("t", emp_table());
        cat.add_schema("a", a);
        let b = Schema::new();
        b.add_table("u", emp_table());
        cat.add_schema("b", b);
        assert!(cat.resolve(&["t"]).is_ok());
        cat.set_default_schema("b");
        assert!(cat.resolve(&["u"]).is_ok());
        assert!(cat.resolve(&["t"]).is_err());
    }

    #[test]
    fn snapshot_serves_consistent_ranges() {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("v", TypeKind::Integer)
                .build(),
            (0..20).map(|i| vec![Datum::Int(i)]).collect(),
        );
        let snap = t.scan_snapshot().unwrap().unwrap();
        assert_eq!(snap.row_count(), 20);
        // A row inserted after the snapshot is invisible to its ranges.
        t.insert(vec![Datum::Int(99)]);
        let got = crate::exec::drain_rows(snap.clone().scan_range(8, 10, 10).unwrap()).unwrap();
        assert_eq!(
            got,
            (10..20).map(|i| vec![Datum::Int(i)]).collect::<Vec<_>>()
        );
        // But a fresh snapshot sees it.
        assert_eq!(t.scan_snapshot().unwrap().unwrap().row_count(), 21);
    }

    /// Every read surface hands out the table's current version: one
    /// allocation while nothing writes, a new one — the old left intact
    /// for its holders — once something does.
    #[test]
    fn read_surfaces_share_the_current_version() {
        let t = emp_table();
        let ptr = |s: &Arc<dyn RangeScan>| Arc::as_ptr(s) as *const ();
        let a = t.scan_snapshot().unwrap().unwrap();
        let b = t.scan_snapshot().unwrap().unwrap();
        let pinned = t.txn_snapshot().unwrap().range_scan().unwrap();
        assert_eq!(ptr(&a), ptr(&b));
        assert_eq!(ptr(&a), ptr(&pinned));
        drop((b, pinned));

        t.insert(vec![Datum::Int(30), Datum::Double(3000.0)]);
        let c = t.scan_snapshot().unwrap().unwrap();
        assert_ne!(ptr(&a), ptr(&c), "a pinned version is never written");
        assert_eq!((a.row_count(), c.row_count()), (2, 3));
        let analyzed = crate::stats::analyze_table(t.as_ref()).unwrap();
        assert_eq!(analyzed.row_count, 3.0);

        t.replace_all(vec![vec![Datum::Int(1), Datum::Double(1.0)]]);
        assert_eq!(c.row_count(), 3);
        let version = t.txn_snapshot().unwrap();
        assert_eq!(
            version.rows_with_ids().collect::<Vec<_>>(),
            vec![(3, vec![Datum::Int(1), Datum::Double(1.0)])]
        );
        assert_eq!(
            version.chunks().map(|(_, cols)| cols).collect::<Vec<_>>(),
            vec![[
                Column::from_datums(&TypeKind::Integer, [Datum::Int(1)]),
                Column::from_datums(&TypeKind::Double, [Datum::Double(1.0)]),
            ]]
        );
    }

    /// A zero-arity table has no column to carry a batch's row count: it
    /// stays on the row surface (no snapshot); the store still counts.
    #[test]
    fn zero_arity_table_has_no_columnar_surface() {
        let t = MemTable::new(RowTypeBuilder::new().build(), vec![vec![], vec![]]);
        assert!(t.scan_snapshot().unwrap().is_none());
        assert_eq!(t.txn_snapshot().unwrap().analyze().row_count, 2.0);
        assert_eq!(
            crate::stats::analyze_table(t.as_ref()).unwrap().row_count,
            2.0
        );
        assert_eq!(t.scan().unwrap().count(), 2);
    }

    #[test]
    fn statistic_builders() {
        let s = Statistic::of_rows(50.0)
            .with_key(vec![0])
            .with_collation(vec![crate::traits::FieldCollation::asc(1)]);
        assert_eq!(s.row_count, 50.0);
        assert_eq!(s.keys, vec![vec![0]]);
        assert_eq!(s.collations.len(), 1);
    }
}
