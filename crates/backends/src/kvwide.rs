//! `kvwide`: a partitioned wide-column store standing in for Apache
//! Cassandra. Data "partitions by a subset of columns in a table and then
//! within each partition, sorts rows based on another subset of columns"
//! (paper §6). Its query model enforces Cassandra's restrictions: ordered
//! reads require the full partition key, non-key predicates require
//! "allow filtering", and ORDER BY may only follow (or exactly reverse)
//! the clustering order — the two conditions the `CassandraSort` rule of
//! the paper checks.

use crate::common::{CmpOp, ColPredicate};
use parking_lot::RwLock;
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::types::TypeKind;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A wide table definition.
#[derive(Debug, Clone)]
pub struct WideTableDef {
    pub columns: Vec<(String, TypeKind)>,
    /// Columns forming the partition key.
    pub partition_key: Vec<usize>,
    /// Clustering columns with per-column descending flag.
    pub clustering: Vec<(usize, bool)>,
}

struct WideTable {
    def: WideTableDef,
    /// Partitions keyed by partition-key values; rows kept in clustering
    /// order.
    partitions: BTreeMap<Vec<Datum>, Vec<Row>>,
}

/// A CQL-shaped query.
#[derive(Debug, Clone, Default)]
pub struct CqlQuery {
    pub table: String,
    /// Equality constraints on partition-key columns.
    pub partition_eq: Vec<(usize, Datum)>,
    /// Additional predicates; only allowed with `allow_filtering` unless
    /// they target clustering columns.
    pub predicates: Vec<ColPredicate>,
    /// Read in reverse clustering order.
    pub reverse: bool,
    pub limit: Option<usize>,
    /// Output columns; `None` = all.
    pub projection: Option<Vec<usize>>,
    /// Cassandra's `ALLOW FILTERING` escape hatch.
    pub allow_filtering: bool,
}

impl CqlQuery {
    pub fn scan(table: impl Into<String>) -> CqlQuery {
        CqlQuery {
            table: table.into(),
            allow_filtering: true,
            ..Default::default()
        }
    }

    /// Whether the query pins a single partition (required for ordered
    /// results — the first condition of the paper's sort-pushdown rule).
    pub fn is_single_partition(&self, def: &WideTableDef) -> bool {
        def.partition_key
            .iter()
            .all(|pk| self.partition_eq.iter().any(|(c, _)| c == pk))
    }
}

/// The store: named wide tables.
#[derive(Default)]
pub struct KvWideStore {
    tables: RwLock<HashMap<String, WideTable>>,
}

impl KvWideStore {
    pub fn new() -> Arc<KvWideStore> {
        Arc::new(KvWideStore::default())
    }

    pub fn create_table(&self, name: impl Into<String>, def: WideTableDef) {
        self.tables.write().insert(
            name.into().to_ascii_lowercase(),
            WideTable {
                def,
                partitions: BTreeMap::new(),
            },
        );
    }

    pub fn table_def(&self, name: &str) -> Option<WideTableDef> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .map(|t| t.def.clone())
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
            .map(|t| t.partitions.values().map(|p| p.len()).sum())
            .unwrap_or(0)
    }

    pub fn insert(&self, table: &str, row: Row) -> Result<()> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| CalciteError::execution(format!("kvwide: no table '{table}'")))?;
        if row.len() != t.def.columns.len() {
            return Err(CalciteError::execution(format!(
                "kvwide: arity mismatch inserting into '{table}'"
            )));
        }
        let key: Vec<Datum> = t
            .def
            .partition_key
            .iter()
            .map(|i| row[*i].clone())
            .collect();
        let clustering = t.def.clustering.clone();
        let partition = t.partitions.entry(key).or_default();
        let pos = partition
            .binary_search_by(|probe| clustering_cmp(probe, &row, &clustering))
            .unwrap_or_else(|p| p);
        partition.insert(pos, row);
        Ok(())
    }

    /// Executes a CQL-shaped query, enforcing Cassandra's access rules.
    pub fn execute(&self, q: &CqlQuery) -> Result<Vec<Row>> {
        let tables = self.tables.read();
        let t = tables
            .get(&q.table.to_ascii_lowercase())
            .ok_or_else(|| CalciteError::execution(format!("kvwide: no table '{}'", q.table)))?;
        let def = &t.def;

        let single = q.is_single_partition(def);
        // Cassandra rejects non-clustering predicates without ALLOW
        // FILTERING.
        if !q.allow_filtering {
            for p in &q.predicates {
                let is_clustering = def.clustering.iter().any(|(c, _)| *c == p.col);
                if !is_clustering {
                    return Err(CalciteError::execution(format!(
                        "kvwide: predicate on non-clustering column {} requires ALLOW FILTERING",
                        p.col
                    )));
                }
            }
        }
        if q.reverse && !single {
            return Err(CalciteError::execution(
                "kvwide: ordered (reversed) reads require a single partition",
            ));
        }

        let mut out: Vec<Row> = vec![];
        if single {
            let key: Vec<Datum> = def
                .partition_key
                .iter()
                .map(|pk| {
                    q.partition_eq
                        .iter()
                        .find(|(c, _)| c == pk)
                        .map(|(_, v)| v.clone())
                        .unwrap()
                })
                .collect();
            // `key = NULL` is never true, though NULL keys compare equal
            // as `Datum`s.
            let partition = t
                .partitions
                .get(&key)
                .filter(|_| !key.iter().any(Datum::is_null));
            if let Some(partition) = partition {
                out.extend(partition.iter().cloned());
            }
            if q.reverse {
                out.reverse();
            }
        } else {
            // Multi-partition scan: partition order is storage order
            // (deterministic here, unordered in Cassandra).
            for (key, partition) in &t.partitions {
                let key_ok = q.partition_eq.iter().all(|(c, v)| {
                    def.partition_key
                        .iter()
                        .position(|pk| pk == c)
                        .map(|pos| CmpOp::Eq.matches(&key[pos], v))
                        .unwrap_or(false)
                });
                if key_ok || q.partition_eq.is_empty() {
                    out.extend(partition.iter().cloned());
                }
            }
        }
        out.retain(|r| q.predicates.iter().all(|p| p.matches(r)));
        if let Some(l) = q.limit {
            out.truncate(l);
        }
        if let Some(proj) = &q.projection {
            out = out
                .into_iter()
                .map(|r| proj.iter().map(|i| r[*i].clone()).collect())
                .collect();
        }
        Ok(out)
    }
}

fn clustering_cmp(a: &Row, b: &Row, clustering: &[(usize, bool)]) -> std::cmp::Ordering {
    for (col, desc) in clustering {
        let ord = a[*col].cmp(&b[*col]);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::CmpOp;
    use rcalcite_core::datum::Datum;

    /// events(device, ts DESC, reading): partitioned by device, clustered
    /// by ts descending — a classic Cassandra time-series table.
    fn store() -> Arc<KvWideStore> {
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
        for (d, ts, r) in [(1, 10, 1.0), (1, 30, 3.0), (1, 20, 2.0), (2, 5, 9.0)] {
            s.insert(
                "events",
                vec![Datum::Int(d), Datum::Int(ts), Datum::Double(r)],
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn partition_read_is_clustering_ordered() {
        let s = store();
        let q = CqlQuery {
            table: "events".into(),
            partition_eq: vec![(0, Datum::Int(1))],
            ..CqlQuery::scan("events")
        };
        let rows = s.execute(&q).unwrap();
        // ts DESC within the partition.
        let ts: Vec<i64> = rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(ts, vec![30, 20, 10]);
    }

    #[test]
    fn a_null_partition_key_equality_reads_nothing() {
        let s = store();
        s.insert(
            "events",
            vec![Datum::Null, Datum::Int(1), Datum::Double(0.5)],
        )
        .unwrap();
        let q = CqlQuery {
            table: "events".into(),
            partition_eq: vec![(0, Datum::Null)],
            ..CqlQuery::scan("events")
        };
        assert!(s.execute(&q).unwrap().is_empty());
    }

    #[test]
    fn reversed_read_needs_single_partition() {
        let s = store();
        let q = CqlQuery {
            table: "events".into(),
            partition_eq: vec![(0, Datum::Int(1))],
            reverse: true,
            ..CqlQuery::scan("events")
        };
        let rows = s.execute(&q).unwrap();
        let ts: Vec<i64> = rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(ts, vec![10, 20, 30]);

        let bad = CqlQuery {
            table: "events".into(),
            reverse: true,
            ..CqlQuery::scan("events")
        };
        assert!(s.execute(&bad).is_err());
    }

    #[test]
    fn non_clustering_predicate_requires_allow_filtering() {
        let s = store();
        let mut q = CqlQuery {
            table: "events".into(),
            partition_eq: vec![(0, Datum::Int(1))],
            predicates: vec![ColPredicate::new(2, CmpOp::Gt, Datum::Double(1.5))],
            allow_filtering: false,
            ..Default::default()
        };
        assert!(s.execute(&q).is_err());
        q.allow_filtering = true;
        assert_eq!(s.execute(&q).unwrap().len(), 2);
    }

    #[test]
    fn clustering_predicate_allowed_without_filtering() {
        let s = store();
        let q = CqlQuery {
            table: "events".into(),
            partition_eq: vec![(0, Datum::Int(1))],
            predicates: vec![ColPredicate::new(1, CmpOp::Ge, Datum::Int(20))],
            allow_filtering: false,
            ..Default::default()
        };
        assert_eq!(s.execute(&q).unwrap().len(), 2);
    }

    #[test]
    fn full_scan_and_limit_and_projection() {
        let s = store();
        let q = CqlQuery {
            limit: Some(3),
            projection: Some(vec![2]),
            ..CqlQuery::scan("events")
        };
        let rows = s.execute(&q).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].len(), 1);
        assert_eq!(s.row_count("events"), 4);
    }

    #[test]
    fn single_partition_detection() {
        let s = store();
        let def = s.table_def("events").unwrap();
        let q = CqlQuery {
            partition_eq: vec![(0, Datum::Int(1))],
            ..CqlQuery::scan("events")
        };
        assert!(q.is_single_partition(&def));
        assert!(!CqlQuery::scan("events").is_single_partition(&def));
    }
}
