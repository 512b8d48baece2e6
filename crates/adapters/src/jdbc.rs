//! The JDBC adapter: bridges rcalcite to `memdb` (the stand-in for
//! MySQL/PostgreSQL). Whole subplans — filter, projection, sort, limit —
//! are pushed to the database; the adapter renders the corresponding SQL
//! text in the configured dialect (paper §8.2: "The JDBC adapter supports
//! the generation of multiple SQL dialects").

use crate::helpers::{placeholders, rex_to_predicates, QueryLog};
use crate::Pushdown;
use rcalcite_backends::memdb::{MemDb, SqlQuerySpec};
use rcalcite_core::catalog::{MemTable, Schema, Statistic, Table};
use rcalcite_core::datum::Row;
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::exec::ExecContext;
use rcalcite_core::rel::{Rel, RelKind, RelOp};
use rcalcite_core::rules::Pattern;
use rcalcite_core::store::Version;
use rcalcite_core::traits::Convention;
use rcalcite_core::types::RowType;
use rcalcite_sql::unparser::{to_sql, Dialect};
use std::sync::Arc;

/// A table backed by a `memdb` table: its `MemTable`, scanned in this
/// adapter's convention so the planner pushes whole subplans to memdb.
pub struct JdbcTable {
    table: Arc<MemTable>,
    convention: Convention,
}

impl Table for JdbcTable {
    fn row_type(&self) -> RowType {
        self.table.row_type()
    }

    fn statistic(&self) -> Statistic {
        self.table.statistic()
    }

    fn scan(&self) -> Result<Box<dyn Iterator<Item = Row> + Send>> {
        self.table.scan()
    }

    fn convention(&self) -> Convention {
        self.convention.clone()
    }

    fn create_index(&self, def: &rcalcite_core::index::IndexDef) -> Result<bool> {
        self.table.create_index(def)
    }

    fn drop_index(&self, name: &str) -> Result<bool> {
        self.table.drop_index(name)
    }

    fn txn_snapshot(&self) -> Option<Arc<Version>> {
        self.table.txn_snapshot()
    }

    fn apply_delta(&self, ops: &[rcalcite_core::txn::DeltaOp]) -> Result<usize> {
        self.table.apply_delta(ops)
    }

    fn reserve_row_ids(&self, n: usize) -> Result<u64> {
        self.table.reserve_row_ids(n)
    }

    fn data_version(&self) -> Option<u64> {
        self.table.data_version()
    }
}

/// One JDBC data source: a database handle, a convention named after it
/// (e.g. `jdbc:mysql`), and a SQL dialect.
pub struct JdbcAdapter {
    pub db: Arc<MemDb>,
    pub convention: Convention,
    pub dialect: Arc<dyn Dialect>,
    pub log: QueryLog,
}

impl JdbcAdapter {
    pub fn new(db: Arc<MemDb>, name: &str, dialect: Arc<dyn Dialect>) -> Arc<JdbcAdapter> {
        Arc::new(JdbcAdapter {
            db,
            convention: Convention::new(format!("jdbc:{name}")),
            dialect,
            log: QueryLog::new(),
        })
    }
}

/// Folds a jdbc-convention subtree into one query spec. Dynamic
/// parameters in pushed filters are bound from `ctx` here — the rendered
/// SQL keeps the JDBC `?` form, but the backend receives the concrete
/// values of this execution.
fn build_spec(rel: &Rel, ctx: &ExecContext, spec: &mut SqlQuerySpec) -> Result<()> {
    match &rel.op {
        RelOp::Scan { table } => {
            spec.table = table.name.clone();
            Ok(())
        }
        RelOp::Filter { condition } => {
            build_spec(rel.input(0), ctx, spec)?;
            let bound = ctx.bind(condition)?;
            let preds = rex_to_predicates(&bound).ok_or_else(|| {
                CalciteError::internal("jdbc executor: unpushable filter reached backend")
            })?;
            spec.predicates.extend(preds);
            Ok(())
        }
        RelOp::Sort {
            collation,
            offset,
            fetch,
        } => {
            build_spec(rel.input(0), ctx, spec)?;
            spec.order = collation
                .iter()
                .map(|fc| (fc.field, fc.descending))
                .collect();
            spec.offset = *offset;
            spec.fetch = *fetch;
            Ok(())
        }
        RelOp::Project { exprs, .. } => {
            build_spec(rel.input(0), ctx, spec)?;
            let cols: Option<Vec<usize>> = exprs.iter().map(|e| e.as_input_ref()).collect();
            spec.projection = cols;
            Ok(())
        }
        other => Err(CalciteError::execution(format!(
            "jdbc executor cannot run {other:?}"
        ))),
    }
}

/// Whole subplans push down: filters, column-reference projections,
/// ORDER BY and LIMIT.
impl Pushdown for JdbcAdapter {
    const FACTORY: &'static str = "jdbc";

    fn convention(&self) -> &Convention {
        &self.convention
    }

    /// Exposes every table the database holds now; a table created later
    /// needs a fresh schema.
    fn schema(&self) -> Schema {
        let s = Schema::new();
        for (name, table) in self.db.tables() {
            let convention = self.convention.clone();
            s.add_table(name, Arc::new(JdbcTable { table, convention }));
        }
        s
    }

    fn patterns(&self) -> Vec<Pattern> {
        [RelKind::Filter, RelKind::Project, RelKind::Sort]
            .map(|kind| Pattern::with_children(kind, vec![Pattern::any()]))
            .into()
    }

    fn accepts(&self, rels: &[Rel]) -> bool {
        let input = rels[1].kind();
        match &rels[0].op {
            RelOp::Filter { condition } => {
                matches!(input, RelKind::Scan | RelKind::Filter)
                    && rex_to_predicates(&placeholders(condition)).is_some()
            }
            RelOp::Project { exprs, .. } => {
                matches!(input, RelKind::Scan | RelKind::Filter | RelKind::Sort)
                    && exprs.iter().all(|e| e.as_input_ref().is_some())
            }
            // memdb sorts NULLs last in both directions; only push
            // collations with matching NULL placement so a pushed sort
            // can't diverge from one executed by the enumerable engines.
            RelOp::Sort { collation, .. } => {
                matches!(input, RelKind::Scan | RelKind::Filter)
                    && collation.iter().all(|fc| !fc.nulls_first)
            }
            _ => false,
        }
    }

    fn run(&self, rel: &Rel, ctx: &ExecContext) -> Result<Vec<Row>> {
        // Record the SQL text shipped to the database (the generated
        // target language of Table 2) — parameterized form, `?` and all,
        // as a JDBC driver would send it.
        if let Ok(sql) = to_sql(rel, self.dialect.as_ref()) {
            self.log.record(sql);
        }
        let mut spec = SqlQuerySpec::default();
        build_spec(rel, ctx, &mut spec)?;
        self.db.execute(&spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcalcite_core::catalog::Catalog;
    use rcalcite_core::datum::Datum;
    use rcalcite_core::types::TypeKind;
    use rcalcite_sql::{Connection, PostgresDialect};

    fn sample_db() -> Arc<MemDb> {
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

    fn connection() -> (Connection, Arc<JdbcAdapter>) {
        let db = sample_db();
        let adapter = JdbcAdapter::new(db, "mysql", Arc::new(PostgresDialect));
        let catalog = Catalog::new();
        catalog.add_schema("db", adapter.schema());
        let mut conn = Connection::new(catalog);
        adapter.install(&mut conn);
        (conn, adapter)
    }

    #[test]
    fn full_query_through_adapter() {
        let (conn, adapter) = connection();
        let r = conn
            .query("SELECT name FROM products WHERE price > 6 ORDER BY price DESC")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Datum::str("rocket")], vec![Datum::str("anvil")]]
        );
        // The filter was pushed: the generated SQL contains the predicate.
        let sql = adapter.log.entries().join("\n");
        assert!(sql.contains("WHERE (c2 > 6"), "{sql}");
    }

    #[test]
    fn plan_pushes_filter_into_jdbc_convention() {
        let (conn, _) = connection();
        let plan = conn
            .optimize(
                &conn
                    .parse_to_rel("SELECT name FROM products WHERE price > 6")
                    .unwrap(),
            )
            .unwrap();
        let text = rcalcite_core::explain::explain(&plan);
        assert!(text.contains("[jdbc:mysql]"), "{text}");
        // The filter node must be inside the jdbc convention, not above the
        // converter.
        let mut saw_jdbc_filter = false;
        fn walk(r: &Rel, f: &mut impl FnMut(&Rel)) {
            f(r);
            for i in &r.inputs {
                walk(i, f);
            }
        }
        walk(&plan, &mut |n| {
            if n.kind() == RelKind::Filter && n.convention.name() == "jdbc:mysql" {
                saw_jdbc_filter = true;
            }
        });
        assert!(saw_jdbc_filter, "{text}");
    }

    #[test]
    fn unpushable_filter_stays_in_engine() {
        let (conn, _) = connection();
        // price * 2 > 12 is not a simple predicate: must execute in the
        // enumerable engine but still produce correct results.
        let r = conn
            .query("SELECT name FROM products WHERE price * 2 > 12 ORDER BY name")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Datum::str("anvil")], vec![Datum::str("rocket")]]
        );
    }

    #[test]
    fn dynamic_params_bind_inside_pushed_subtree() {
        // Regression: the unparser emits JDBC `?` for pushed filters, but
        // the backend used to receive the unbound placeholder. The filter
        // must still push down AND receive each execution's binding.
        let (conn, adapter) = connection();
        let stmt = conn
            .prepare("SELECT name FROM products WHERE price > ? ORDER BY price")
            .unwrap();
        let r = stmt.query(&[Datum::Double(6.0)]).unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Datum::str("anvil")], vec![Datum::str("rocket")]]
        );
        // Same compiled plan, different binding.
        let r = stmt.query(&[Datum::Double(50.0)]).unwrap();
        assert_eq!(r.rows, vec![vec![Datum::str("rocket")]]);
        // The filter went to the backend as parameterized SQL, not to the
        // enumerable engine.
        let sql = adapter.log.entries().join("\n");
        assert!(sql.contains("WHERE (c2 > ?)"), "{sql}");
    }

    #[test]
    fn analyze_reads_stored_columns() {
        let db = sample_db();
        let adapter = JdbcAdapter::new(db, "pg", Arc::new(PostgresDialect));
        let t = adapter.schema().table("products").unwrap();
        let stats = rcalcite_core::stats::analyze_table(t.as_ref()).unwrap();
        assert_eq!(stats.row_count, 3.0);
        assert_eq!(stats.columns.len(), 3);
        assert_eq!(stats.columns[0].ndv, 3.0);
        assert_eq!(stats.columns[2].min, Some(5.0));
        assert_eq!(stats.columns[2].max, Some(100.0));
    }

    #[test]
    fn table_statistics_come_from_backend() {
        let db = sample_db();
        let adapter = JdbcAdapter::new(db.clone(), "pg", Arc::new(PostgresDialect));
        let schema = adapter.schema();
        let t = schema.table("products").unwrap();
        assert_eq!(t.statistic().row_count, 3.0);
        assert_eq!(t.convention().name(), "jdbc:pg");
        assert_eq!(
            t.row_type().field_names(),
            vec!["productid", "name", "price"]
        );
    }

    /// View freshness trusts `data_version`, so it must never trail the
    /// rows a reader can see: a reader that snapshots, counts, then reads
    /// the version finds at least one bump per inserted row it counted,
    /// while a writer inserts beside it. A barrier starts all three
    /// together, so the readers are looping before the first insert.
    #[test]
    fn data_version_never_trails_visible_rows() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        const INSERTS: i64 = 2_000;
        let db = sample_db();
        let adapter = JdbcAdapter::new(db.clone(), "pg", Arc::new(PostgresDialect));
        let t = adapter.schema().table("products").unwrap();
        let (done, start) = (AtomicBool::new(false), Barrier::new(3));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    while !done.load(Ordering::SeqCst) {
                        let seen = t.txn_snapshot().unwrap().len() as u64 - 3;
                        let version = t.data_version().unwrap();
                        assert!(
                            version >= seen,
                            "{seen} inserts visible at version {version}"
                        );
                    }
                });
            }
            start.wait();
            for i in 0..INSERTS {
                let row = vec![Datum::Int(100 + i), Datum::str("x"), Datum::Double(1.0)];
                db.insert("products", row).unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
    }

    fn find(rel: &Rel, pred: &dyn Fn(&Rel) -> bool) -> bool {
        pred(rel) || rel.inputs.iter().any(|i| find(i, pred))
    }

    #[test]
    fn computed_projection_stays_in_engine() {
        // Only bare column references push into the SQL select list.
        let (conn, adapter) = connection();
        let sql = "SELECT price * 2 AS p FROM products WHERE price > 6 ORDER BY p";
        let plan = conn.optimize(&conn.parse_to_rel(sql).unwrap()).unwrap();
        let text = rcalcite_core::explain::explain(&plan);
        let computes = |n: &Rel| match &n.op {
            RelOp::Project { exprs, .. } => exprs.iter().any(|e| e.as_input_ref().is_none()),
            _ => false,
        };
        assert!(
            find(&plan, &|n: &Rel| computes(n)
                && n.convention.name() == "enumerable"),
            "{text}"
        );
        assert!(
            !find(&plan, &|n: &Rel| computes(n)
                && n.convention.name() == "jdbc:mysql"),
            "{text}"
        );
        adapter.log.clear();
        let r = conn.query(sql).unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Datum::Double(20.0)], vec![Datum::Double(200.0)]]
        );
        let sql_text = adapter.log.entries().join("\n");
        assert!(!sql_text.contains('*'), "{sql_text}");
    }

    #[test]
    fn nulls_first_sort_is_not_pushed() {
        // memdb sorts NULLs last; SQL has no NULLS FIRST, so the
        // collation is built directly.
        use rcalcite_core::traits::FieldCollation;
        let (conn, _) = connection();
        let scan = conn.parse_to_rel("SELECT * FROM products").unwrap();
        let logical = rcalcite_core::rel::sort(
            scan,
            vec![FieldCollation {
                field: 2,
                descending: false,
                nulls_first: true,
            }],
        );
        let plan = conn.optimize(&logical).unwrap();
        let text = rcalcite_core::explain::explain(&plan);
        assert!(
            !find(&plan, &|n: &Rel| n.kind() == RelKind::Sort
                && n.convention.name() == "jdbc:mysql"),
            "{text}"
        );
        assert!(
            find(&plan, &|n: &Rel| n.kind() == RelKind::Sort
                && n.convention.name() == "enumerable"),
            "{text}"
        );
        let rows = conn.exec_context().execute_collect(&plan).unwrap();
        let names: Vec<Datum> = rows.iter().map(|r| r[1].clone()).collect();
        assert_eq!(
            names,
            vec![
                Datum::str("rope"),
                Datum::str("anvil"),
                Datum::str("rocket")
            ]
        );
    }

    #[test]
    fn limit_pushdown() {
        let (conn, adapter) = connection();
        adapter.log.clear();
        let r = conn
            .query("SELECT productid FROM products ORDER BY productid LIMIT 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let sql = adapter.log.entries().join("\n");
        assert!(sql.contains("LIMIT 2"), "{sql}");
    }
}
