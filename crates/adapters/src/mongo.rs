//! The MongoDB adapter over `docstore`. Each collection appears as a
//! table "with a single column named `_MAP`: a map from document
//! identifiers to their data" (paper §7.1); relational views are layered
//! on top with `CAST(_MAP['field'] ...)` projections. Filters over item
//! accesses push down as native JSON find queries.

use crate::helpers::{cmp_op, comparison, placeholders, QueryLog};
use crate::Pushdown;
use rcalcite_backends::docstore::{json_to_datum, DocStore, FieldFilter, FindQuery};
use rcalcite_backends::json::Json;
use rcalcite_core::catalog::{Schema, Statistic, Table};
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::exec::ExecContext;
use rcalcite_core::rel::{Rel, RelKind, RelOp};
use rcalcite_core::rex::{Op, RexNode};
use rcalcite_core::rules::Pattern;
use rcalcite_core::traits::Convention;
use rcalcite_core::types::{Field, RelType, RowType, TypeKind};
use std::sync::Arc;

/// The `_MAP` row type shared by all document tables.
pub fn map_row_type() -> RowType {
    RowType::new(vec![Field::new(
        "_MAP",
        RelType::not_null(TypeKind::Map(
            Box::new(RelType::not_null(TypeKind::Varchar)),
            Box::new(RelType::nullable(TypeKind::Any)),
        )),
    )])
}

pub struct MongoTable {
    store: Arc<DocStore>,
    collection: String,
    convention: Convention,
}

impl Table for MongoTable {
    fn row_type(&self) -> RowType {
        map_row_type()
    }

    fn statistic(&self) -> Statistic {
        Statistic::of_rows(self.store.count(&self.collection) as f64)
    }

    fn scan(&self) -> Result<Box<dyn Iterator<Item = Row> + Send>> {
        let docs = self.store.find(&FindQuery::all(&self.collection))?;
        Ok(Box::new(docs.into_iter().map(|d| vec![json_to_datum(&d)])))
    }

    fn convention(&self) -> Convention {
        self.convention.clone()
    }
}

pub struct MongoAdapter {
    pub store: Arc<DocStore>,
    pub convention: Convention,
    pub log: QueryLog,
}

impl MongoAdapter {
    pub fn new(store: Arc<DocStore>) -> Arc<MongoAdapter> {
        Arc::new(MongoAdapter {
            store,
            convention: Convention::new("mongo"),
            log: QueryLog::new(),
        })
    }
}

fn datum_to_json(d: &Datum) -> Option<Json> {
    Some(match d {
        Datum::Null => Json::Null,
        Datum::Bool(b) => Json::Bool(*b),
        Datum::Int(i) => Json::Num(*i as f64),
        Datum::Double(x) => Json::Num(*x),
        Datum::Str(s) => Json::Str(s.to_string()),
        _ => return None,
    })
}

/// Extracts a dotted document path from nested `ITEM` accesses rooted at
/// the `_MAP` column (`_MAP['loc'][0]` → `loc.0`); CASTs are transparent.
fn rex_to_path(e: &RexNode) -> Option<String> {
    match e {
        RexNode::Call {
            op: Op::Cast, args, ..
        } => rex_to_path(&args[0]),
        RexNode::Call {
            op: Op::Item, args, ..
        } => {
            let key = match args[1].as_literal()? {
                Datum::Str(s) => s.to_string(),
                Datum::Int(i) => i.to_string(),
                _ => return None,
            };
            match &args[0] {
                RexNode::InputRef { index: 0, .. } => Some(key),
                inner => Some(format!("{}.{}", rex_to_path(inner)?, key)),
            }
        }
        _ => None,
    }
}

/// Converts a conjunction over `_MAP` item accesses to document filters.
fn rex_to_field_filters(cond: &RexNode) -> Option<Vec<FieldFilter>> {
    let mut out = vec![];
    for c in cond.conjuncts() {
        let RexNode::Call { op, args, .. } = &c else {
            return None;
        };
        let filter = match op {
            Op::IsNull | Op::IsNotNull => FieldFilter {
                path: rex_to_path(&args[0])?,
                op: cmp_op(op)?,
                value: Json::Null,
            },
            _ => {
                let (path, op, lit) = comparison(op, args, rex_to_path)?;
                FieldFilter {
                    path,
                    op,
                    value: datum_to_json(lit)?,
                }
            }
        };
        out.push(filter);
    }
    Some(out)
}

/// Folds a mongo-convention subtree into one find query, binding the
/// filter's `?`s from `ctx`.
fn build(rel: &Rel, ctx: &ExecContext, q: &mut FindQuery) -> Result<()> {
    match &rel.op {
        RelOp::Scan { table } => {
            q.collection = table.name.clone();
            Ok(())
        }
        RelOp::Filter { condition } => {
            build(rel.input(0), ctx, q)?;
            let filters = rex_to_field_filters(&ctx.bind(condition)?)
                .ok_or_else(|| CalciteError::internal("mongo executor: unpushable filter"))?;
            q.filter.extend(filters);
            Ok(())
        }
        other => Err(CalciteError::execution(format!(
            "mongo executor cannot run {other:?}"
        ))),
    }
}

/// Filters over document paths push down as a JSON find.
impl Pushdown for MongoAdapter {
    const FACTORY: &'static str = "mongo";

    fn convention(&self) -> &Convention {
        &self.convention
    }

    fn schema(&self) -> Schema {
        let s = Schema::new();
        for c in self.store.collection_names() {
            s.add_table(
                c.clone(),
                Arc::new(MongoTable {
                    store: self.store.clone(),
                    collection: c,
                    convention: self.convention.clone(),
                }),
            );
        }
        s
    }

    fn patterns(&self) -> Vec<Pattern> {
        vec![Pattern::with_children(
            RelKind::Filter,
            vec![Pattern::of(RelKind::Scan)],
        )]
    }

    /// A `?` must be of a type a JSON filter can carry.
    fn accepts(&self, rels: &[Rel]) -> bool {
        let RelOp::Filter { condition } = &rels[0].op else {
            return false;
        };
        let mut params = vec![];
        condition.collect_params(&mut params);
        params.iter().flatten().all(|t| {
            matches!(
                t.kind,
                TypeKind::Boolean | TypeKind::Integer | TypeKind::Double | TypeKind::Varchar
            )
        }) && rex_to_field_filters(&placeholders(condition)).is_some()
    }

    fn run(&self, rel: &Rel, ctx: &ExecContext) -> Result<Vec<Row>> {
        let mut q = FindQuery::default();
        build(rel, ctx, &mut q)?;
        self.log.record(q.to_json().to_string());
        let docs = self.store.find(&q)?;
        Ok(docs.iter().map(|d| vec![json_to_datum(d)]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcalcite_core::catalog::Catalog;
    use rcalcite_sql::Connection;

    fn sample_store() -> Arc<DocStore> {
        let store = DocStore::new();
        store.create_collection(
            "zips",
            vec![
                Json::parse(r#"{"city": "AMSTERDAM", "loc": [4.89, 52.37], "pop": 821752}"#)
                    .unwrap(),
                Json::parse(r#"{"city": "UTRECHT", "loc": [5.12, 52.09], "pop": 345080}"#).unwrap(),
                Json::parse(r#"{"city": "DELFT", "loc": [4.36, 52.01], "pop": 101030}"#).unwrap(),
            ],
        );
        store
    }

    fn connection() -> (Connection, Arc<MongoAdapter>) {
        let adapter = MongoAdapter::new(sample_store());
        let catalog = Catalog::new();
        catalog.add_schema("mongo_raw", adapter.schema());
        let mut conn = Connection::new(catalog);
        adapter.install(&mut conn);
        (conn, adapter)
    }

    #[test]
    fn paper_zips_view_query() {
        // The §7.1 view: relational columns extracted from _MAP.
        let (conn, _) = connection();
        let r = conn
            .query(
                "SELECT CAST(_MAP['city'] AS varchar(20)) AS city, \
                 CAST(_MAP['loc'][0] AS float) AS longitude, \
                 CAST(_MAP['loc'][1] AS float) AS latitude \
                 FROM mongo_raw.zips ORDER BY city",
            )
            .unwrap();
        assert_eq!(r.columns, vec!["city", "longitude", "latitude"]);
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Datum::str("AMSTERDAM"));
        assert_eq!(r.rows[0][1], Datum::Double(4.89));
    }

    #[test]
    fn filter_pushes_as_json_find() {
        let (conn, adapter) = connection();
        adapter.log.clear();
        let r = conn
            .query(
                "SELECT CAST(_MAP['city'] AS varchar(20)) AS city FROM mongo_raw.zips \
                 WHERE CAST(_MAP['pop'] AS integer) > 300000 ORDER BY city",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let native = adapter.log.entries().join("\n");
        assert!(native.contains("\"find\": \"zips\""), "{native}");
        assert!(native.contains("\"pop\""), "{native}");
        assert!(native.contains("$gt"), "{native}");
    }

    #[test]
    fn dynamic_param_filter_binds_at_run_time() {
        // `?` is bound before the find is built: the parameterised filter
        // pushes down and ships the same JSON as its literal form.
        let (conn, adapter) = connection();
        let text = |pop: &str| {
            format!(
                "SELECT CAST(_MAP['city'] AS varchar(20)) AS city FROM mongo_raw.zips \
                 WHERE CAST(_MAP['pop'] AS integer) > {pop} ORDER BY city"
            )
        };
        let prepared = conn.prepare(&text("?")).unwrap();
        adapter.log.clear();
        let bound = prepared.query(&[Datum::Int(300000)]).unwrap();
        let pushed = adapter.log.entries();
        adapter.log.clear();
        let literal = conn.query(&text("300000")).unwrap();
        assert_eq!(pushed.len(), 1);
        assert!(pushed[0].contains("$gt"), "{pushed:?}");
        assert_eq!(pushed, adapter.log.entries());
        assert_eq!(bound.rows, literal.rows);
        assert_eq!(bound.rows.len(), 2);
    }

    #[test]
    fn path_extraction() {
        let map_ty = RelType::nullable(TypeKind::Any);
        let base = RexNode::input(0, map_ty);
        let loc = RexNode::call(Op::Item, vec![base, RexNode::lit_str("loc")]);
        let lon = RexNode::call(Op::Item, vec![loc, RexNode::lit_int(0)]);
        assert_eq!(rex_to_path(&lon), Some("loc.0".into()));
        // Cast-wrapped.
        let cast = lon.cast(RelType::nullable(TypeKind::Double));
        assert_eq!(rex_to_path(&cast), Some("loc.0".into()));
        // Non-path expression.
        assert_eq!(rex_to_path(&RexNode::lit_int(1)), None);
    }

    #[test]
    fn filter_on_nested_array_element() {
        let (conn, _) = connection();
        let r = conn
            .query(
                "SELECT CAST(_MAP['city'] AS varchar(20)) AS city FROM mongo_raw.zips \
                 WHERE CAST(_MAP['loc'][0] AS float) < 4.5",
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::str("DELFT")]]);
    }

    #[test]
    fn unpushable_predicate_still_correct() {
        let (conn, _) = connection();
        // Arithmetic over the extracted value cannot push down.
        let r = conn
            .query(
                "SELECT CAST(_MAP['city'] AS varchar(20)) AS city FROM mongo_raw.zips \
                 WHERE CAST(_MAP['pop'] AS integer) / 1000 > 300",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }
}
