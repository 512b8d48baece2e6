//! The Cassandra adapter over `kvwide`. Implements the paper's §6 worked
//! example: a rule pushing a Sort into Cassandra "must check two
//! conditions: (1) the table has been previously filtered to a single
//! partition (since rows are only sorted within a partition) and (2) the
//! sorting of partitions in Cassandra has some common prefix with the
//! required sort". The rule requires the `LogicalFilter` to already be a
//! `CassandraFilter` (same operator, cassandra convention), exactly as in
//! the paper.

use crate::helpers::{rex_to_predicates, QueryLog};
use rcalcite_backends::common::{CmpOp, ColPredicate};
use rcalcite_backends::kvwide::{CqlQuery, KvWideStore, WideTableDef};
use rcalcite_core::catalog::{Schema, Statistic, Table};
use rcalcite_core::datum::Row;
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::exec::{BatchOp, ConventionExecutor, ExecContext, RowsOp};
use rcalcite_core::rel::{Rel, RelKind, RelOp};
use rcalcite_core::rules::{Pattern, Rule, RuleCall};
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

    pub fn schema(&self) -> Schema {
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

    pub fn rules(self: &Arc<Self>) -> Vec<Arc<dyn Rule>> {
        vec![
            Arc::new(crate::AdapterScanRule::new(self.convention.clone())),
            Arc::new(CassandraFilterRule {
                conv: self.convention.clone(),
            }),
            Arc::new(CassandraSortRule {
                conv: self.convention.clone(),
                store: self.store.clone(),
            }),
        ]
    }

    pub fn executor(self: &Arc<Self>) -> Arc<dyn ConventionExecutor> {
        Arc::new(CassandraExecutor {
            adapter: self.clone(),
        })
    }

    pub fn install(self: &Arc<Self>, conn: &mut rcalcite_sql::Connection) {
        for r in self.rules() {
            conn.add_rule(r);
        }
        conn.add_converter(self.convention.clone(), Convention::enumerable());
        conn.register_executor(self.executor());
        conn.add_metadata_provider(Arc::new(CassandraMdProvider {
            conv: self.convention.clone(),
        }));
    }
}

/// Adapter-supplied metadata (§6: systems "may choose to write providers
/// that override the existing functions"): a `CassandraSort` reads rows in
/// clustered order, so it costs a linear pass instead of an n·log n sort.
struct CassandraMdProvider {
    conv: Convention,
}

impl rcalcite_core::metadata::MetadataProvider for CassandraMdProvider {
    fn non_cumulative_cost(
        &self,
        rel: &Rel,
        mq: &rcalcite_core::metadata::MetadataQuery,
    ) -> Option<rcalcite_core::cost::Cost> {
        if rel.convention == self.conv && rel.kind() == RelKind::Sort {
            let out = mq.row_count(rel);
            return Some(rcalcite_core::cost::Cost::new(out, out, 0.0, 0.0));
        }
        None
    }
}

/// `LogicalFilter` over a cassandra scan → `CassandraFilter`.
struct CassandraFilterRule {
    conv: Convention,
}

impl Rule for CassandraFilterRule {
    fn name(&self) -> &str {
        "CassandraFilterRule"
    }

    fn pattern(&self) -> Pattern {
        Pattern::with_children(RelKind::Filter, vec![Pattern::of(RelKind::Scan)])
    }

    fn on_match(&self, call: &mut RuleCall) {
        let f = call.rel(0).clone();
        let child = call.rel(1);
        if !f.convention.is_none() || child.convention != self.conv {
            return;
        }
        if let RelOp::Filter { condition } = &f.op {
            if rex_to_predicates(condition).is_some() {
                call.transform_to(f.with_convention(self.conv.clone()));
            }
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

/// The paper's two-condition sort-pushdown rule: `LogicalSort` over a
/// `CassandraFilter` → `CassandraSort`.
struct CassandraSortRule {
    conv: Convention,
    store: Arc<KvWideStore>,
}

impl Rule for CassandraSortRule {
    fn name(&self) -> &str {
        "CassandraSortRule"
    }

    fn pattern(&self) -> Pattern {
        Pattern::with_children(
            RelKind::Sort,
            vec![Pattern::with_children(
                RelKind::Filter,
                vec![Pattern::of(RelKind::Scan)],
            )],
        )
    }

    fn on_match(&self, call: &mut RuleCall) {
        let sort_node = call.rel(0).clone();
        let filter_node = call.rel(1);
        let scan_node = call.rel(2);
        // The filter must already be a CassandraFilter (paper: "this
        // requires that a LogicalFilter has been rewritten to a
        // CassandraFilter to ensure the partition filter is pushed down").
        if !sort_node.convention.is_none()
            || filter_node.convention != self.conv
            || scan_node.convention != self.conv
        {
            return;
        }
        let RelOp::Sort {
            collation,
            offset: None,
            ..
        } = &sort_node.op
        else {
            return;
        };
        let RelOp::Filter { condition } = &filter_node.op else {
            return;
        };
        let RelOp::Scan { table } = &scan_node.op else {
            return;
        };
        let Some(def) = self.store.table_def(&table.name) else {
            return;
        };
        let Some(preds) = rex_to_predicates(condition) else {
            return;
        };
        // Condition 1: single partition.
        if !pins_single_partition(&preds, &def) {
            return;
        }
        // Condition 2: common prefix with the clustering order.
        if collation_matches_clustering(collation, &def.clustering).is_none() {
            return;
        }
        call.transform_to(sort_node.with_convention(self.conv.clone()));
    }
}

struct CassandraExecutor {
    adapter: Arc<CassandraAdapter>,
}

impl CassandraExecutor {
    fn build(&self, rel: &Rel, q: &mut CqlQuery, def: &mut Option<WideTableDef>) -> Result<()> {
        match &rel.op {
            RelOp::Scan { table } => {
                q.table = table.name.clone();
                *def = self.adapter.store.table_def(&table.name);
                Ok(())
            }
            RelOp::Filter { condition } => {
                self.build(rel.input(0), q, def)?;
                let d = def.as_ref().ok_or_else(|| {
                    CalciteError::internal("cassandra executor: filter without scan")
                })?;
                let preds = rex_to_predicates(condition).ok_or_else(|| {
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
                self.build(rel.input(0), q, def)?;
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

    /// Renders the CQL text of a query (Table 2's target language).
    fn to_cql(&self, q: &CqlQuery, def: &WideTableDef) -> String {
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
}

impl ConventionExecutor for CassandraExecutor {
    fn convention(&self) -> Convention {
        self.adapter.convention.clone()
    }

    fn execute(&self, rel: &Rel, _ctx: &ExecContext) -> Result<BatchOp> {
        let mut q = CqlQuery {
            allow_filtering: true,
            ..Default::default()
        };
        let mut def = None;
        self.build(rel, &mut q, &mut def)?;
        if let Some(d) = &def {
            self.adapter.log.record(self.to_cql(&q, d));
        }
        let rows = self.adapter.store.execute(&q)?;
        Ok(Box::new(RowsOp::new(rows, rel.row_type().kinds())))
    }
}

impl crate::framework::SchemaFactory for CassandraAdapter {
    fn factory_name(&self) -> &str {
        "cassandra"
    }

    fn create_schema(&self, _operand: &rcalcite_backends::json::Json) -> Result<Schema> {
        Ok(self.schema())
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
