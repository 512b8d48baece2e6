//! The Splunk adapter over `logstore`, including the Figure 2 machinery:
//! an adapter-specific rule pushes filters into the search, and — because
//! "Splunk can perform lookups into MySQL via ODBC" — a join rule lets an
//! equi-join run *inside* the splunk convention as a `lookup` stage, with
//! the foreign side entering splunk through a registered converter. The
//! cost model then prefers this plan whenever it avoids shipping the large
//! event stream across the engine boundary.

use crate::helpers::{placeholders, rex_to_predicates, QueryLog};
use crate::Pushdown;
use rcalcite_backends::logstore::{LogStore, LookupStage, Search, SearchTerm, SourceDef};
use rcalcite_core::catalog::{Schema, Statistic, Table};
use rcalcite_core::cost::Cost;
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::exec::ExecContext;
use rcalcite_core::metadata::MetadataQuery;
use rcalcite_core::rel::{JoinKind, Rel, RelKind, RelOp};
use rcalcite_core::rex::{Op, RexNode};
use rcalcite_core::rules::Pattern;
use rcalcite_core::traits::{Convention, FieldCollation};
use rcalcite_core::types::{Field, RelType, RowType};
use std::collections::HashMap;
use std::sync::Arc;

pub struct SplunkTable {
    store: Arc<LogStore>,
    source: String,
    convention: Convention,
    stream: bool,
}

impl Table for SplunkTable {
    fn row_type(&self) -> RowType {
        let def = self
            .store
            .source_def(&self.source)
            .expect("source vanished");
        RowType::new(
            def.fields
                .iter()
                .map(|(n, k)| Field::new(n.clone(), RelType::nullable(k.clone())))
                .collect(),
        )
    }

    fn statistic(&self) -> Statistic {
        // Events are stored in time order: expose the collation so sorts
        // on the time column can be removed (§4's trait example).
        Statistic::of_rows(self.store.count(&self.source) as f64)
            .with_collation(vec![FieldCollation::asc(0)])
    }

    fn scan(&self) -> Result<Box<dyn Iterator<Item = Row> + Send>> {
        let rows = self.store.search(&Search::source(&self.source))?;
        Ok(Box::new(rows.into_iter()))
    }

    fn convention(&self) -> Convention {
        self.convention.clone()
    }

    fn is_stream(&self) -> bool {
        self.stream
    }
}

pub struct SplunkAdapter {
    pub store: Arc<LogStore>,
    pub convention: Convention,
    pub log: QueryLog,
    /// Sources exposed as streams (queryable with SELECT STREAM).
    pub stream_sources: Vec<String>,
}

impl SplunkAdapter {
    pub fn new(store: Arc<LogStore>) -> Arc<SplunkAdapter> {
        Arc::new(SplunkAdapter {
            store,
            convention: Convention::new("splunk"),
            log: QueryLog::new(),
            stream_sources: vec![],
        })
    }

    pub fn with_streams(store: Arc<LogStore>, streams: Vec<String>) -> Arc<SplunkAdapter> {
        Arc::new(SplunkAdapter {
            store,
            convention: Convention::new("splunk"),
            log: QueryLog::new(),
            stream_sources: streams,
        })
    }

    /// Installs the adapter. `lookup_bridges` lists foreign conventions
    /// splunk can perform lookups into (Figure 2: the jdbc-mysql
    /// convention) — each gets a converter edge into splunk.
    pub fn install(
        self: &Arc<Self>,
        conn: &mut rcalcite_sql::Connection,
        lookup_bridges: &[Convention],
    ) {
        Pushdown::install(self, conn);
        for bridge in lookup_bridges {
            conn.add_converter(bridge.clone(), self.convention.clone());
        }
    }

    /// Folds a scan and its pushed filters into one search, binding the
    /// filters' `?`s from `ctx`.
    fn build_search(
        &self,
        rel: &Rel,
        ctx: &ExecContext,
        q: &mut Search,
        def: &mut Option<SourceDef>,
    ) -> Result<()> {
        match &rel.op {
            RelOp::Scan { table } => {
                q.source = table.name.clone();
                *def = self.store.source_def(&table.name);
                Ok(())
            }
            RelOp::Filter { condition } => {
                self.build_search(rel.input(0), ctx, q, def)?;
                let d = def.as_ref().ok_or_else(|| {
                    CalciteError::internal("splunk executor: filter without scan")
                })?;
                let preds = rex_to_predicates(&ctx.bind(condition)?)
                    .ok_or_else(|| CalciteError::internal("splunk executor: unpushable filter"))?;
                for p in preds {
                    let field = d.fields.get(p.col).map(|(n, _)| n.clone()).ok_or_else(|| {
                        CalciteError::internal("splunk executor: bad column index")
                    })?;
                    q.terms.push(SearchTerm {
                        field,
                        op: p.op,
                        value: p.value,
                    });
                }
                Ok(())
            }
            other => Err(CalciteError::execution(format!(
                "splunk executor cannot run {other:?}"
            ))),
        }
    }
}

/// Single-pair equi-join key extraction; returns (left col, right col).
fn equi_pair(condition: &RexNode, left_arity: usize) -> Option<(usize, usize)> {
    let conjuncts = condition.conjuncts();
    if conjuncts.len() != 1 {
        return None;
    }
    if let RexNode::Call {
        op: Op::Eq, args, ..
    } = &conjuncts[0]
    {
        let a = args[0].as_input_ref()?;
        let b = args[1].as_input_ref()?;
        if a < left_arity && b >= left_arity {
            return Some((a, b - left_arity));
        }
        if b < left_arity && a >= left_arity {
            return Some((b, a - left_arity));
        }
    }
    None
}

/// Filters push into the search. Figure 2's join: an inner equi-join whose
/// probe side is already in the splunk convention becomes a splunk-side
/// lookup join; the other side reaches splunk through a converter.
impl Pushdown for SplunkAdapter {
    const FACTORY: &'static str = "splunk";

    fn convention(&self) -> &Convention {
        &self.convention
    }

    fn schema(&self) -> Schema {
        let s = Schema::new();
        for src in self.store.source_names() {
            s.add_table(
                src.clone(),
                Arc::new(SplunkTable {
                    store: self.store.clone(),
                    stream: self
                        .stream_sources
                        .iter()
                        .any(|x| x.eq_ignore_ascii_case(&src)),
                    source: src,
                    convention: self.convention.clone(),
                }),
            );
        }
        s
    }

    fn patterns(&self) -> Vec<Pattern> {
        vec![
            Pattern::with_children(RelKind::Filter, vec![Pattern::of(RelKind::Scan)]),
            Pattern::with_children(RelKind::Join, vec![Pattern::any(), Pattern::any()]),
        ]
    }

    fn accepts(&self, rels: &[Rel]) -> bool {
        match &rels[0].op {
            RelOp::Filter { condition } => rex_to_predicates(&placeholders(condition)).is_some(),
            // The left side must be a shape `run` turns into a search.
            RelOp::Join {
                kind: JoinKind::Inner,
                condition,
            } => {
                let left = &rels[1];
                matches!(left.kind(), RelKind::Scan | RelKind::Filter)
                    && equi_pair(condition, left.row_type().arity()).is_some()
            }
            _ => false,
        }
    }

    fn run(&self, rel: &Rel, ctx: &ExecContext) -> Result<Vec<Row>> {
        let RelOp::Join {
            kind: JoinKind::Inner,
            condition,
        } = &rel.op
        else {
            let mut search = Search::default();
            self.build_search(rel, ctx, &mut search, &mut None)?;
            self.log.record(search.to_spl(None));
            return self.store.search(&search);
        };
        let left = rel.input(0);
        let right = rel.input(1);
        let (lk, rk) = equi_pair(condition, left.row_type().arity())
            .ok_or_else(|| CalciteError::internal("splunk executor: join without equi pair"))?;

        let mut search = Search::default();
        let mut def = None;
        self.build_search(left, ctx, &mut search, &mut def)?;
        let d =
            def.ok_or_else(|| CalciteError::internal("splunk executor: join without source"))?;
        let key_field = d.fields[lk].0.clone();

        // Materialize the foreign side (it arrives via a converter) and
        // index it — the "lookup table".
        let ext_rows = ctx.execute_collect(right)?;
        let arity = right.row_type().arity();
        let mut index: HashMap<Datum, Vec<Row>> = HashMap::new();
        for r in ext_rows {
            index.entry(r[rk].clone()).or_default().push(r);
        }
        let resolve =
            move |key: &Datum| -> Vec<Row> { index.get(key).cloned().unwrap_or_default() };
        let lookup = LookupStage {
            key_field: key_field.clone(),
            resolve: &resolve,
            arity,
        };
        self.log.record(search.to_spl(Some(&key_field)));
        self.store.search_with_lookup(&search, &lookup)
    }

    /// A splunk-side join is a streaming `lookup` over an indexed table —
    /// no hash build over the event stream, so it costs one pass plus
    /// output instead of hashing both inputs.
    fn cost(&self, rel: &Rel, mq: &MetadataQuery) -> Option<Cost> {
        (rel.kind() == RelKind::Join).then(|| {
            let out = mq.row_count(rel);
            let events = mq.row_count(rel.input(0));
            let lookup = mq.row_count(rel.input(1));
            Cost::new(out, events + out, 0.0, lookup)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcalcite_backends::memdb::MemDb;
    use rcalcite_core::catalog::Catalog;
    use rcalcite_core::types::TypeKind;
    use rcalcite_sql::{Connection, MySqlDialect};

    /// Builds the Figure 2 federation: Orders in "Splunk", Products in
    /// "MySQL".
    fn figure2() -> (
        Connection,
        Arc<SplunkAdapter>,
        Arc<crate::jdbc::JdbcAdapter>,
    ) {
        let logs = LogStore::new();
        logs.create_source(
            "orders",
            SourceDef {
                fields: vec![
                    ("rowtime".into(), TypeKind::Timestamp),
                    ("productid".into(), TypeKind::Integer),
                    ("units".into(), TypeKind::Integer),
                ],
            },
        );
        for i in 0..200i64 {
            logs.append(
                "orders",
                vec![
                    Datum::Timestamp(i * 1000),
                    Datum::Int(i % 10),
                    Datum::Int((i % 50) + 1),
                ],
            )
            .unwrap();
        }
        let db = MemDb::new();
        db.create_table(
            "products",
            vec![
                ("productid".into(), TypeKind::Integer),
                ("name".into(), TypeKind::Varchar),
            ],
            (0..10i64)
                .map(|i| vec![Datum::Int(i), Datum::str(format!("product{i}"))])
                .collect(),
        );
        let splunk = SplunkAdapter::new(logs);
        let jdbc = crate::jdbc::JdbcAdapter::new(db, "mysql", Arc::new(MySqlDialect));

        let catalog = Catalog::new();
        catalog.add_schema("splunk", splunk.schema());
        catalog.add_schema("mysql", jdbc.schema());
        catalog.set_default_schema("splunk");
        let mut conn = Connection::new(catalog);
        jdbc.install(&mut conn);
        splunk.install(&mut conn, std::slice::from_ref(&jdbc.convention));
        (conn, splunk, jdbc)
    }

    #[test]
    fn filter_pushes_into_search() {
        let (conn, splunk, _) = figure2();
        splunk.log.clear();
        let r = conn
            .query("SELECT productid FROM orders WHERE units > 45")
            .unwrap();
        assert!(!r.rows.is_empty());
        let spl = splunk.log.entries().join("\n");
        assert!(spl.contains("search source=orders units>45"), "{spl}");
    }

    #[test]
    fn dynamic_param_filter_binds_at_run_time() {
        // `?` is bound before the search is built: the parameterised
        // filter pushes down and ships the same SPL as its literal form.
        let (conn, splunk, _) = figure2();
        let prepared = conn
            .prepare("SELECT productid FROM orders WHERE units > ?")
            .unwrap();
        splunk.log.clear();
        let bound = prepared.query(&[Datum::Int(45)]).unwrap();
        let pushed = splunk.log.entries();
        splunk.log.clear();
        let literal = conn
            .query("SELECT productid FROM orders WHERE units > 45")
            .unwrap();
        assert_eq!(pushed, splunk.log.entries());
        assert!(
            pushed[0].contains("search source=orders units>45"),
            "{pushed:?}"
        );
        assert_eq!(bound.rows, literal.rows);
        assert_eq!(bound.rows.len(), 20);
    }

    #[test]
    fn figure2_join_runs_inside_splunk() {
        let (conn, splunk, _) = figure2();
        splunk.log.clear();
        let sql = "SELECT o.rowtime, p.name \
                   FROM orders o JOIN mysql.products p ON o.productid = p.productid \
                   WHERE o.units > 30";
        let plan = conn.optimize(&conn.parse_to_rel(sql).unwrap()).unwrap();
        let text = rcalcite_core::explain::explain(&plan);
        // The join node is in the splunk convention (Figure 2's final
        // plan), not in enumerable.
        let splunk_join = find(&plan, &|n: &Rel| {
            n.kind() == RelKind::Join && n.convention.name() == "splunk"
        });
        assert!(splunk_join, "{text}");

        // And execution produces correct results with the lookup SPL
        // recorded.
        // units = (i % 50) + 1, so units > 30 keeps 20 of every 50-event
        // cycle: 80 of the 200 events.
        let r = conn.query(sql).unwrap();
        assert_eq!(r.rows.len(), 80);
        let spl = splunk.log.entries().join("\n");
        assert!(spl.contains("| lookup productid"), "{spl}");
    }

    #[test]
    fn join_results_match_enumerable_plan() {
        // Differential test: same query executed through the interpreter
        // (logical plan, enumerable semantics) must give identical rows.
        let (conn, _, _) = figure2();
        let sql = "SELECT o.productid, p.name \
                   FROM orders o JOIN mysql.products p ON o.productid = p.productid \
                   WHERE o.units > 40 ORDER BY o.productid";
        let optimized = conn.query(sql).unwrap();

        let logical = conn.parse_to_rel(sql).unwrap();
        let mut interp_ctx = rcalcite_core::exec::ExecContext::new();
        rcalcite_enumerable::register_executors(&mut interp_ctx);
        // The interpreter needs the scans executable: logical scans call
        // Table::scan directly.
        let direct = interp_ctx.execute_collect(&logical).unwrap();
        assert_eq!(optimized.rows, direct);
    }

    fn find(rel: &Rel, pred: &dyn Fn(&Rel) -> bool) -> bool {
        if pred(rel) {
            return true;
        }
        rel.inputs.iter().any(|i| find(i, pred))
    }

    #[test]
    fn outer_join_is_not_pushed() {
        // A `lookup` stage only keeps matched events: a LEFT JOIN stays
        // in the engine.
        let (conn, _, _) = figure2();
        let sql = "SELECT o.units, p.name \
                   FROM orders o LEFT JOIN mysql.products p ON o.productid = p.productid \
                   WHERE o.units > 45";
        let plan = conn.optimize(&conn.parse_to_rel(sql).unwrap()).unwrap();
        let text = rcalcite_core::explain::explain(&plan);
        assert!(
            find(&plan, &|n: &Rel| n.kind() == RelKind::Join
                && n.convention.name() == "enumerable"),
            "{text}"
        );
        assert!(
            !find(&plan, &|n: &Rel| n.kind() == RelKind::Join
                && n.convention.name() == "splunk"),
            "{text}"
        );
        let mut rows = conn.query(sql).unwrap().rows;
        let mut ctx = rcalcite_core::exec::ExecContext::new();
        rcalcite_enumerable::register_executors(&mut ctx);
        let mut direct = ctx
            .execute_collect(&conn.parse_to_rel(sql).unwrap())
            .unwrap();
        rows.sort();
        direct.sort();
        assert_eq!(rows.len(), 20);
        assert_eq!(rows, direct);
    }

    #[test]
    fn sort_on_time_column_is_removed() {
        // Events are time-ordered; ORDER BY rowtime should plan without a
        // sort (the §4 trait example).
        let (conn, _, _) = figure2();
        let plan = conn
            .optimize(
                &conn
                    .parse_to_rel("SELECT rowtime FROM orders ORDER BY rowtime")
                    .unwrap(),
            )
            .unwrap();
        let has_sort = find(&plan, &|n: &Rel| n.kind() == RelKind::Sort);
        assert!(!has_sort, "{}", rcalcite_core::explain::explain(&plan));
    }

    #[test]
    fn stream_flag_exposed() {
        let logs = LogStore::new();
        logs.create_source(
            "orders",
            SourceDef {
                fields: vec![("rowtime".into(), TypeKind::Timestamp)],
            },
        );
        let adapter = SplunkAdapter::with_streams(logs, vec!["orders".into()]);
        let schema = adapter.schema();
        assert!(schema.table("orders").unwrap().is_stream());
    }
}
