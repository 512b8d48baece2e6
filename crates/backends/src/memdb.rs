//! `memdb`: an in-process relational store standing in for the paper's
//! JDBC backends (MySQL/PostgreSQL). It executes a structured query spec
//! covering the SQL subset a remote RDBMS would receive from the JDBC
//! adapter: conjunctive predicates, projection, ordering and limits. The
//! adapter renders the equivalent SQL *text* in the target dialect; this
//! spec is the executable form.
//!
//! Storage is not memdb's own: every table is a core `MemTable`, the
//! chunked version store the built-in tables use. memdb adds the names
//! and the pushdown [`MemDb::execute`].

use crate::common::ColPredicate;
use parking_lot::RwLock;
use rcalcite_core::catalog::{MemTable, Table};
use rcalcite_core::datum::Row;
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::types::{Field, RelType, RowType, TypeKind};
use std::collections::HashMap;
use std::sync::Arc;

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

/// The database: a set of named tables, each a core [`MemTable`] — the
/// store built-in tables use, with its own lock, row-id counter and data
/// version. Reads take the table's current version (one `Arc` clone) and
/// run without a lock; the JDBC adapter hands the same tables to the
/// engine for its transactional writes and snapshot scans.
#[derive(Default)]
pub struct MemDb {
    tables: RwLock<HashMap<String, Arc<MemTable>>>,
}

fn no_table(table: &str) -> CalciteError {
    CalciteError::execution(format!("memdb: no table '{table}'"))
}

impl MemDb {
    pub fn new() -> Arc<MemDb> {
        Arc::new(MemDb::default())
    }

    /// Creates (or replaces) `name`. Every column is nullable, as in a
    /// remote catalog that reports no constraints.
    pub fn create_table(
        &self,
        name: impl Into<String>,
        columns: Vec<(String, TypeKind)>,
        rows: Vec<Row>,
    ) {
        let fields = columns
            .into_iter()
            .map(|(n, k)| Field::new(n, RelType::nullable(k)))
            .collect();
        let table = MemTable::new(RowType::new(fields), rows);
        let name = name.into().to_ascii_lowercase();
        self.tables.write().insert(name, table);
    }

    /// Appends one row, checking its arity first: a mismatch is an
    /// error here, where the store itself would panic.
    pub fn insert(&self, table: &str, row: Row) -> Result<()> {
        let t = self.table(table).ok_or_else(|| no_table(table))?;
        if row.len() != t.row_type().arity() {
            return Err(CalciteError::execution(format!(
                "memdb: arity mismatch inserting into '{table}'"
            )));
        }
        t.insert(row);
        Ok(())
    }

    pub fn table(&self, name: &str) -> Option<Arc<MemTable>> {
        self.tables.read().get(&name.to_ascii_lowercase()).cloned()
    }

    /// Every table with its (lower-case) name.
    pub fn tables(&self) -> HashMap<String, Arc<MemTable>> {
        self.tables.read().clone()
    }

    /// Executes a query spec, applying predicates and ordering on base
    /// columns, then projecting.
    pub fn execute(&self, q: &SqlQuerySpec) -> Result<Vec<Row>> {
        let version = self.table(&q.table).and_then(|t| t.txn_snapshot());
        let version = version.ok_or_else(|| no_table(&q.table))?;
        let ncols = version.arity();
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
        for (len, chunk) in version.chunks() {
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
    use rcalcite_core::datum::{Column, Datum};
    use rcalcite_core::index::IndexDef;
    use rcalcite_core::txn::DeltaOp;

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
        assert_eq!(db.table("products").unwrap().len(), 3);
    }

    /// A chunk's length is its own, not its first column's: a
    /// zero-column table still executes to every row it holds.
    #[test]
    fn zero_column_table_executes_every_row() {
        let db = MemDb::new();
        db.create_table("z", vec![], vec![vec![]; 5000]);
        let rows = db.execute(&SqlQuerySpec::scan("z")).unwrap();
        assert_eq!((rows.len(), db.table("z").unwrap().len()), (5000, 5000));
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
        assert_eq!(db.table("products").unwrap().len(), 4);
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
    fn scan_current(
        db: &MemDb,
        table: &str,
        batch_size: usize,
    ) -> Result<rcalcite_core::exec::BatchOp> {
        use rcalcite_core::catalog::RangeScan;
        let version = db.table(table).and_then(|t| t.txn_snapshot());
        let version = version.ok_or_else(|| no_table(table))?;
        let rows = version.len();
        version.scan_range(batch_size, 0, rows)
    }

    #[test]
    fn columnar_scan_tracks_inserts() {
        let db = db();
        let cols = scan_current(&db, "products", 10)
            .unwrap()
            .next()
            .unwrap()
            .unwrap();
        assert_eq!(cols.arity(), 3);
        assert!(matches!(cols.column(0), Column::Int { .. }));
        assert!(matches!(cols.column(1), Column::Str { .. }));
        assert_eq!(cols.num_rows(), 3);
        db.insert(
            "products",
            vec![Datum::Int(4), Datum::str("tnt"), Datum::Double(50.0)],
        )
        .unwrap();
        let mut it = scan_current(&db, "products", 10).unwrap();
        let cols = it.next().unwrap().unwrap();
        assert_eq!(cols.num_rows(), 4);
        assert_eq!(cols.column(1).get(3), Datum::str("tnt"));
        assert!(scan_current(&db, "missing", 10).is_err());
    }

    #[test]
    fn version_scan_streams_slices_from_a_snapshot() {
        let db = db();
        let mut it = scan_current(&db, "products", 2).unwrap();
        let first = it.next().unwrap().unwrap();
        assert_eq!((first.arity(), first.num_rows()), (3, 2));
        // An insert between pulls must not disturb the open scan: it
        // reads from its Arc snapshot.
        db.insert(
            "products",
            vec![Datum::Int(4), Datum::str("tnt"), Datum::Double(50.0)],
        )
        .unwrap();
        let second = it.next().unwrap().unwrap();
        assert_eq!(second.num_rows(), 1);
        assert!(it.next().unwrap().is_none());
        // A fresh scan sees the inserted row.
        let mut it = scan_current(&db, "products", 10).unwrap();
        assert_eq!(it.next().unwrap().unwrap().num_rows(), 4);
        assert!(scan_current(&db, "missing", 2).is_err());
    }

    #[test]
    fn range_snapshot_is_zero_copy_and_stable() {
        use rcalcite_core::catalog::RangeScan;
        let db = db();
        let snap = db.table("products").unwrap().txn_snapshot().unwrap();
        assert_eq!(snap.row_count(), 3);
        // Inserts after the snapshot stay invisible to its ranges.
        db.insert(
            "products",
            vec![Datum::Int(4), Datum::str("tnt"), Datum::Double(50.0)],
        )
        .unwrap();
        let mut it = snap.clone().scan_range(2, 1, 10).unwrap();
        let first = it.next().unwrap().unwrap();
        assert_eq!(first.num_rows(), 2);
        assert_eq!(first.column(0).get(0), Datum::Int(2));
        assert!(it.next().unwrap().is_none());
        let now = db.table("products").unwrap().txn_snapshot().unwrap();
        assert_eq!(now.row_count(), 4);
        assert!(db.table("missing").is_none());
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
        let t = db.table("products").unwrap();
        let before = t.txn_snapshot().unwrap();
        t.create_index(&IndexDef::ordered("p_id", vec![0])).unwrap();
        // Update product 2's price, delete product 1, insert product 4.
        let start = t.reserve_row_ids(1).unwrap();
        t.apply_delta(&[
            DeltaOp::Update {
                row_id: 1,
                row: vec![Datum::Int(2), Datum::str("rocket"), Datum::Double(99.0)],
            },
            DeltaOp::Delete { row_id: 0 },
            DeltaOp::Insert {
                row_id: start,
                row: vec![Datum::Int(4), Datum::str("tnt"), Datum::Double(50.0)],
            },
        ])
        .unwrap();
        // The pre-delta snapshot is untouched.
        assert_eq!(before.len(), 3);
        assert_eq!(before.row(0)[1], Datum::str("anvil"));
        assert_eq!(before.row(1)[2], Datum::Double(100.0));
        // The live table reflects the delta; ids stay stable.
        assert_eq!(t.row_ids(), [1, 2, start]);
        assert_eq!(t.rows()[0][2], Datum::Double(99.0));
        let version = t.txn_snapshot().unwrap();
        assert_eq!(
            version.chunks().next().unwrap().1[2].get(0),
            Datum::Double(99.0)
        );
        // The index was maintained incrementally and stays exact.
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
}
