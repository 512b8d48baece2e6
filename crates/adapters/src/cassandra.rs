//! The Cassandra adapter over `kvwide`. Implements the paper's §6 worked
//! example: a rule pushing a Sort into Cassandra "must check two
//! conditions: (1) the table has been previously filtered to a single
//! partition (since rows are only sorted within a partition) and (2) the
//! sorting of partitions in Cassandra has some common prefix with the
//! required sort". The rule requires the `LogicalFilter` to already be a
//! `CassandraFilter` (same operator, cassandra convention), exactly as in
//! the paper.

use crate::helpers::{placeholders, rex_to_predicates, QueryLog};
use crate::Pushdown;
use rcalcite_backends::common::{CmpOp, ColPredicate};
use rcalcite_backends::kvwide::{CqlQuery, KvWideStore, WideTableDef};
use rcalcite_core::catalog::{Schema, Statistic, Table};
use rcalcite_core::cost::Cost;
use rcalcite_core::datum::Row;
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::exec::ExecContext;
use rcalcite_core::metadata::MetadataQuery;
use rcalcite_core::rel::{Rel, RelKind, RelOp};
use rcalcite_core::rules::Pattern;
use rcalcite_core::traits::{Collation, Convention};
use rcalcite_core::types::{Field, RelType, RowType};
use std::sync::Arc;

pub struct CassandraTable {
    store: Arc<KvWideStore>,
    name: String,
    convention: Convention,
}

impl Table for CassandraTable {
    fn row_type(&self) -> RowType {
        let def = self.store.table_def(&self.name).expect("table vanished");
        RowType::new(
            def.columns
                .iter()
                .map(|(n, k)| Field::new(n.clone(), RelType::nullable(k.clone())))
                .collect(),
        )
    }

    fn statistic(&self) -> Statistic {
        Statistic::of_rows(self.store.row_count(&self.name) as f64)
    }

    fn scan(&self) -> Result<Box<dyn Iterator<Item = Row> + Send>> {
        let rows = self.store.execute(&CqlQuery::scan(&self.name))?;
        Ok(Box::new(rows.into_iter()))
    }

    fn convention(&self) -> Convention {
        self.convention.clone()
    }
}

pub struct CassandraAdapter {
    pub store: Arc<KvWideStore>,
    pub convention: Convention,
    pub log: QueryLog,
}

impl CassandraAdapter {
    pub fn new(store: Arc<KvWideStore>) -> Arc<CassandraAdapter> {
        Arc::new(CassandraAdapter {
            store,
            convention: Convention::new("cassandra"),
            log: QueryLog::new(),
        })
    }

    /// Folds a cassandra-convention subtree into one CQL query, binding
    /// the `?`s of pushed filters from `ctx`.
    fn build(
        &self,
        rel: &Rel,
        ctx: &ExecContext,
        q: &mut CqlQuery,
        def: &mut Option<WideTableDef>,
    ) -> Result<()> {
        match &rel.op {
            RelOp::Scan { table } => {
                q.table = table.name.clone();
                *def = self.store.table_def(&table.name);
                Ok(())
            }
            RelOp::Filter { condition } => {
                self.build(rel.input(0), ctx, q, def)?;
                let d = def.as_ref().ok_or_else(|| {
                    CalciteError::internal("cassandra executor: filter without scan")
                })?;
                let preds = rex_to_predicates(&ctx.bind(condition)?).ok_or_else(|| {
                    CalciteError::internal("cassandra executor: unpushable filter")
                })?;
                q.partition_eq = partition_eqs(&preds, d);
                q.predicates = preds
                    .into_iter()
                    .filter(|p| !(p.op == CmpOp::Eq && d.partition_key.contains(&p.col)))
                    .collect();
                q.allow_filtering = true;
                Ok(())
            }
            RelOp::Sort {
                collation, fetch, ..
            } => {
                self.build(rel.input(0), ctx, q, def)?;
                let d = def.as_ref().ok_or_else(|| {
                    CalciteError::internal("cassandra executor: sort without scan")
                })?;
                let reverse =
                    collation_matches_clustering(collation, &d.clustering).ok_or_else(|| {
                        CalciteError::internal("cassandra executor: incompatible sort")
                    })?;
                q.reverse = reverse;
                q.limit = *fetch;
                Ok(())
            }
            other => Err(CalciteError::execution(format!(
                "cassandra executor cannot run {other:?}"
            ))),
        }
    }
}

/// The partition-key equalities of a pushed filter.
fn partition_eqs(
    preds: &[ColPredicate],
    def: &WideTableDef,
) -> Vec<(usize, rcalcite_core::datum::Datum)> {
    preds
        .iter()
        .filter(|p| p.op == CmpOp::Eq && def.partition_key.contains(&p.col))
        .map(|p| (p.col, p.value.clone()))
        .collect()
}

fn pins_single_partition(preds: &[ColPredicate], def: &WideTableDef) -> bool {
    let eqs = partition_eqs(preds, def);
    def.partition_key
        .iter()
        .all(|pk| eqs.iter().any(|(c, _)| c == pk))
}

/// Whether the requested collation matches the clustering order (prefix,
/// all same direction) or its exact reverse. Returns `Some(reverse)`.
fn collation_matches_clustering(
    collation: &Collation,
    clustering: &[(usize, bool)],
) -> Option<bool> {
    if collation.is_empty() || collation.len() > clustering.len() {
        return None;
    }
    let forward = collation
        .iter()
        .zip(clustering.iter())
        .all(|(fc, (col, desc))| fc.field == *col && fc.descending == *desc);
    if forward {
        return Some(false);
    }
    let reversed = collation
        .iter()
        .zip(clustering.iter())
        .all(|(fc, (col, desc))| fc.field == *col && fc.descending != *desc);
    if reversed {
        return Some(true);
    }
    None
}

/// Renders the CQL text of a query (Table 2's target language).
fn to_cql(q: &CqlQuery, def: &WideTableDef) -> String {
    let col_name = |i: usize| def.columns[i].0.clone();
    let mut sql = format!("SELECT * FROM {}", q.table);
    let mut clauses: Vec<String> = q
        .partition_eq
        .iter()
        .map(|(c, v)| format!("{} = {}", col_name(*c), v))
        .collect();
    clauses.extend(q.predicates.iter().map(|p| match p.op {
        CmpOp::IsNull => format!("{} IS NULL", col_name(p.col)),
        CmpOp::IsNotNull => format!("{} IS NOT NULL", col_name(p.col)),
        _ => format!("{} {} {}", col_name(p.col), p.op.symbol(), p.value),
    }));
    if !clauses.is_empty() {
        sql.push_str(&format!(" WHERE {}", clauses.join(" AND ")));
    }
    if q.reverse || (q.limit.is_some() && !q.partition_eq.is_empty()) {
        let order: Vec<String> = def
            .clustering
            .iter()
            .map(|(c, desc)| {
                let dir = if *desc != q.reverse { "DESC" } else { "ASC" };
                format!("{} {dir}", col_name(*c))
            })
            .collect();
        if !order.is_empty() {
            sql.push_str(&format!(" ORDER BY {}", order.join(", ")));
        }
    }
    if let Some(l) = q.limit {
        sql.push_str(&format!(" LIMIT {l}"));
    }
    if !q.predicates.is_empty() {
        sql.push_str(" ALLOW FILTERING");
    }
    sql
}

/// Filters push down; a sort pushes down under the paper's two
/// conditions.
impl Pushdown for CassandraAdapter {
    const FACTORY: &'static str = "cassandra";

    fn convention(&self) -> &Convention {
        &self.convention
    }

    fn schema(&self) -> Schema {
        let s = Schema::new();
        for t in self.store.table_names() {
            s.add_table(
                t.clone(),
                Arc::new(CassandraTable {
                    store: self.store.clone(),
                    name: t,
                    convention: self.convention.clone(),
                }),
            );
        }
        s
    }

    fn patterns(&self) -> Vec<Pattern> {
        let filter = || Pattern::with_children(RelKind::Filter, vec![Pattern::of(RelKind::Scan)]);
        vec![
            filter(),
            Pattern::with_children(RelKind::Sort, vec![filter()]),
        ]
    }

    fn accepts(&self, rels: &[Rel]) -> bool {
        match &rels[0].op {
            RelOp::Filter { condition } => rex_to_predicates(&placeholders(condition)).is_some(),
            // The filter is already a CassandraFilter (paper: "this
            // requires that a LogicalFilter has been rewritten to a
            // CassandraFilter to ensure the partition filter is pushed
            // down"), over a scan of ours.
            RelOp::Sort {
                collation,
                offset: None,
                ..
            } => {
                let (RelOp::Filter { condition }, RelOp::Scan { table }) =
                    (&rels[1].op, &rels[2].op)
                else {
                    return false;
                };
                if rels[2].convention != self.convention {
                    return false;
                }
                let (Some(def), Some(preds)) = (
                    self.store.table_def(&table.name),
                    rex_to_predicates(&placeholders(condition)),
                ) else {
                    return false;
                };
                // Condition 1: single partition. Condition 2: common
                // prefix with the clustering order.
                pins_single_partition(&preds, &def)
                    && collation_matches_clustering(collation, &def.clustering).is_some()
            }
            _ => false,
        }
    }

    fn run(&self, rel: &Rel, ctx: &ExecContext) -> Result<Vec<Row>> {
        let mut q = CqlQuery {
            allow_filtering: true,
            ..Default::default()
        };
        let mut def = None;
        self.build(rel, ctx, &mut q, &mut def)?;
        if let Some(d) = &def {
            self.log.record(to_cql(&q, d));
        }
        self.store.execute(&q)
    }

    /// A `CassandraSort` reads rows in clustered order, so it costs a
    /// linear pass instead of an n·log n sort.
    fn cost(&self, rel: &Rel, mq: &MetadataQuery) -> Option<Cost> {
        (rel.kind() == RelKind::Sort).then(|| {
            let out = mq.row_count(rel);
            Cost::new(out, out, 0.0, 0.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcalcite_core::catalog::Catalog;
    use rcalcite_core::datum::Datum;
    use rcalcite_core::types::TypeKind;
    use rcalcite_sql::Connection;

    fn sample_store() -> Arc<KvWideStore> {
        let s = KvWideStore::new();
        s.create_table(
            "events",
            WideTableDef {
                columns: vec![
                    ("device".into(), TypeKind::Integer),
                    ("ts".into(), TypeKind::Integer),
                    ("reading".into(), TypeKind::Double),
                ],
                partition_key: vec![0],
                clustering: vec![(1, true)],
            },
        );
        for d in 1..=3i64 {
            for t in [10, 20, 30, 40] {
                s.insert(
                    "events",
                    vec![Datum::Int(d), Datum::Int(t), Datum::Double((d * t) as f64)],
                )
                .unwrap();
            }
        }
        s
    }

    fn connection() -> (Connection, Arc<CassandraAdapter>) {
        let adapter = CassandraAdapter::new(sample_store());
        let catalog = Catalog::new();
        catalog.add_schema("cass", adapter.schema());
        let mut conn = Connection::new(catalog);
        adapter.install(&mut conn);
        (conn, adapter)
    }

    #[test]
    fn partition_query_executes_natively() {
        let (conn, adapter) = connection();
        let r = conn
            .query("SELECT ts, reading FROM events WHERE device = 2 ORDER BY ts DESC")
            .unwrap();
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.rows[0][0], Datum::Int(40));
        let cql = adapter.log.entries().join("\n");
        assert!(cql.contains("device = 2"), "{cql}");
    }

    #[test]
    fn sort_pushdown_requires_single_partition() {
        let (conn, _) = connection();
        // Sort over single-partition filter: CassandraSort appears.
        let plan = conn
            .optimize(
                &conn
                    .parse_to_rel("SELECT ts FROM events WHERE device = 1 ORDER BY ts DESC")
                    .unwrap(),
            )
            .unwrap();
        let text = rcalcite_core::explain::explain(&plan);
        assert!(
            text.contains("Sort") && text.contains("[cassandra]"),
            "{text}"
        );
        let cass_sort = find(&plan, |n| {
            n.kind() == RelKind::Sort && n.convention.name() == "cassandra"
        });
        assert!(cass_sort, "{text}");

        // Without the partition filter the sort must NOT be pushed.
        let plan = conn
            .optimize(
                &conn
                    .parse_to_rel("SELECT ts FROM events ORDER BY ts DESC")
                    .unwrap(),
            )
            .unwrap();
        let cass_sort = find(&plan, |n| {
            n.kind() == RelKind::Sort && n.convention.name() == "cassandra"
        });
        assert!(!cass_sort, "{}", rcalcite_core::explain::explain(&plan));
    }

    #[test]
    fn sort_pushdown_requires_clustering_prefix() {
        let (conn, _) = connection();
        // Ordering by reading (not a clustering column): no CassandraSort.
        let plan = conn
            .optimize(
                &conn
                    .parse_to_rel("SELECT reading FROM events WHERE device = 1 ORDER BY reading")
                    .unwrap(),
            )
            .unwrap();
        let cass_sort = find(&plan, |n| {
            n.kind() == RelKind::Sort && n.convention.name() == "cassandra"
        });
        assert!(!cass_sort);
    }

    #[test]
    fn reversed_clustering_order_is_pushable() {
        let (conn, adapter) = connection();
        adapter.log.clear();
        // Clustering is ts DESC; ORDER BY ts ASC is the exact reverse.
        let r = conn
            .query("SELECT ts FROM events WHERE device = 1 ORDER BY ts")
            .unwrap();
        let ts: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
        assert_eq!(ts, vec![10, 20, 30, 40]);
    }

    #[test]
    fn results_match_enumerable_fallback() {
        let (conn, _) = connection();
        // A query cassandra cannot fully answer (aggregate): executed by
        // the engine above the adapter, results still correct.
        let r = conn
            .query("SELECT device, COUNT(*) AS c FROM events GROUP BY device ORDER BY device")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert!(r.rows.iter().all(|row| row[1] == Datum::Int(4)));
    }

    fn find(rel: &Rel, pred: impl Fn(&Rel) -> bool + Copy) -> bool {
        if pred(rel) {
            return true;
        }
        rel.inputs.iter().any(|i| find(i, pred))
    }

    /// Runs `sql`'s logical plan on the row engine, the oracle every
    /// refusal test compares its pushed-down rows against.
    fn oracle(conn: &Connection, sql: &str) -> Vec<Vec<Datum>> {
        let mut ctx = ExecContext::new();
        rcalcite_enumerable::register_executors(&mut ctx);
        ctx.execute_collect(&conn.parse_to_rel(sql).unwrap())
            .unwrap()
    }

    #[test]
    fn sort_with_offset_is_not_pushed() {
        // CQL has no OFFSET: the Sort stays in the engine, above the
        // conversion out of the cassandra convention.
        let (conn, _) = connection();
        let sql = "SELECT ts FROM events WHERE device = 3 ORDER BY ts DESC LIMIT 2 OFFSET 1";
        let plan = conn.optimize(&conn.parse_to_rel(sql).unwrap()).unwrap();
        let text = rcalcite_core::explain::explain(&plan);
        assert!(
            !find(&plan, |n| n.kind() == RelKind::Sort
                && n.convention.name() == "cassandra"),
            "{text}"
        );
        assert!(
            find(&plan, |n| n.kind() == RelKind::Sort
                && n.convention.name() == "enumerable"
                && find(
                    n,
                    |c| matches!(&c.op, RelOp::Convert { from } if from.name() == "cassandra")
                )),
            "{text}"
        );
        let rows = conn.query(sql).unwrap().rows;
        assert_eq!(rows, vec![vec![Datum::Int(30)], vec![Datum::Int(20)]]);
        assert_eq!(rows, oracle(&conn, sql));
    }

    #[test]
    fn dynamic_param_filter_binds_at_run_time() {
        // The executor binds `?` before it builds the CQL, so a
        // parameterised partition filter pushes down like its literal
        // form (the sort over it too), and each execution ships its own
        // value.
        let (conn, adapter) = connection();
        let sql = "SELECT ts, reading FROM events WHERE device = ? ORDER BY ts";
        let plan = conn.optimize(&conn.parse_to_rel(sql).unwrap()).unwrap();
        assert!(
            find(&plan, |n| n.kind() == RelKind::Filter
                && n.convention.name() == "cassandra"),
            "{}",
            rcalcite_core::explain::explain(&plan)
        );
        let prepared = conn.prepare(sql).unwrap();
        adapter.log.clear();
        let bound = prepared.query(&[Datum::Int(2)]).unwrap();
        let pushed = adapter.log.entries();
        adapter.log.clear();
        let literal = conn
            .query("SELECT ts, reading FROM events WHERE device = 2 ORDER BY ts")
            .unwrap();
        assert_eq!(pushed, adapter.log.entries());
        assert_eq!(
            pushed,
            vec!["SELECT * FROM events WHERE device = 2 ORDER BY ts ASC"]
        );
        assert_eq!(bound.rows, literal.rows);
        assert_eq!(bound.rows.len(), 4);
        adapter.log.clear();
        prepared.query(&[Datum::Int(3)]).unwrap();
        assert_eq!(
            adapter.log.entries(),
            vec!["SELECT * FROM events WHERE device = 3 ORDER BY ts ASC"]
        );
        // `device = NULL` is never true, as in the engine, even with a
        // row whose partition key is NULL.
        adapter
            .store
            .insert(
                "events",
                vec![Datum::Null, Datum::Int(1), Datum::Double(0.5)],
            )
            .unwrap();
        assert!(prepared.query(&[Datum::Null]).unwrap().rows.is_empty());
    }

    #[test]
    fn collation_matching() {
        use rcalcite_core::traits::FieldCollation;
        let clustering = vec![(1usize, true)];
        assert_eq!(
            collation_matches_clustering(&vec![FieldCollation::desc(1)], &clustering),
            Some(false)
        );
        assert_eq!(
            collation_matches_clustering(&vec![FieldCollation::asc(1)], &clustering),
            Some(true)
        );
        assert_eq!(
            collation_matches_clustering(&vec![FieldCollation::asc(2)], &clustering),
            None
        );
        assert_eq!(collation_matches_clustering(&vec![], &clustering), None);
    }
}
