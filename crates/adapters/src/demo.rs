//! A ready-made heterogeneous federation used by examples, integration
//! tests and the benchmark harness: four backends (relational, log,
//! wide-column, document) behind their adapters on one connection —
//! the paper's headline scenario of "optimized queries across
//! heterogeneous data sources".

use crate::cassandra::CassandraAdapter;
use crate::jdbc::JdbcAdapter;
use crate::mongo::MongoAdapter;
use crate::splunk::SplunkAdapter;
use crate::Pushdown;
use rcalcite_backends::docstore::DocStore;
use rcalcite_backends::json::Json;
use rcalcite_backends::kvwide::{KvWideStore, WideTableDef};
use rcalcite_backends::logstore::{LogStore, SourceDef};
use rcalcite_backends::memdb::MemDb;
use rcalcite_core::catalog::Catalog;
use rcalcite_core::datum::Datum;
use rcalcite_core::types::TypeKind;
use rcalcite_sql::{Connection, MySqlDialect};
use std::sync::Arc;

/// Handles to everything in the demo federation.
pub struct Federation {
    pub conn: Connection,
    pub jdbc: Arc<JdbcAdapter>,
    pub splunk: Arc<SplunkAdapter>,
    pub cassandra: Arc<CassandraAdapter>,
    pub mongo: Arc<MongoAdapter>,
}

/// Builds the demo federation. `orders_count` scales the splunk event
/// source (the "big" side of Figure 2); the MySQL `products` table has
/// `product_count` rows.
pub fn build_federation(orders_count: usize, product_count: usize) -> Federation {
    // --- MySQL stand-in: products ---------------------------------
    let db = MemDb::new();
    db.create_table(
        "products",
        vec![
            ("productid".into(), TypeKind::Integer),
            ("name".into(), TypeKind::Varchar),
            ("price".into(), TypeKind::Double),
        ],
        (0..product_count as i64)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    Datum::str(format!("product{i}")),
                    Datum::Double(((i * 7) % 100) as f64 + 0.5),
                ]
            })
            .collect(),
    );
    db.create_table(
        "sales",
        vec![
            ("productid".into(), TypeKind::Integer),
            ("discount".into(), TypeKind::Double),
            ("amount".into(), TypeKind::Integer),
        ],
        (0..orders_count as i64)
            .map(|i| {
                vec![
                    Datum::Int(i % product_count.max(1) as i64),
                    if i % 3 == 0 {
                        Datum::Null
                    } else {
                        Datum::Double((i % 10) as f64 / 10.0)
                    },
                    Datum::Int((i % 20) + 1),
                ]
            })
            .collect(),
    );

    // --- Splunk stand-in: orders event stream ---------------------
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
    for i in 0..orders_count as i64 {
        logs.append(
            "orders",
            vec![
                Datum::Timestamp(i * 1_000),
                Datum::Int(i % product_count.max(1) as i64),
                Datum::Int((i % 50) + 1),
            ],
        )
        .expect("append");
    }

    // --- Cassandra stand-in: device readings ----------------------
    let kv = KvWideStore::new();
    kv.create_table(
        "readings",
        WideTableDef {
            columns: vec![
                ("device".into(), TypeKind::Integer),
                ("ts".into(), TypeKind::Integer),
                ("value".into(), TypeKind::Double),
            ],
            partition_key: vec![0],
            clustering: vec![(1, true)],
        },
    );
    for d in 0..8i64 {
        for t in 0..64i64 {
            kv.insert(
                "readings",
                vec![
                    Datum::Int(d),
                    Datum::Int(t),
                    Datum::Double((d * 100 + t) as f64),
                ],
            )
            .expect("insert");
        }
    }

    // --- MongoDB stand-in: zips documents -------------------------
    let docs = DocStore::new();
    docs.create_collection(
        "zips",
        vec![
            Json::parse(r#"{"city": "AMSTERDAM", "loc": [4.89, 52.37], "pop": 821752}"#).unwrap(),
            Json::parse(r#"{"city": "UTRECHT", "loc": [5.12, 52.09], "pop": 345080}"#).unwrap(),
            Json::parse(r#"{"city": "DELFT", "loc": [4.36, 52.01], "pop": 101030}"#).unwrap(),
            Json::parse(r#"{"city": "ROTTERDAM", "loc": [4.48, 51.92], "pop": 623652}"#).unwrap(),
        ],
    );

    // --- Adapters and connection ----------------------------------
    let jdbc = JdbcAdapter::new(db, "mysql", Arc::new(MySqlDialect));
    let splunk = SplunkAdapter::with_streams(logs, vec!["orders".into()]);
    let cassandra = CassandraAdapter::new(kv);
    let mongo = MongoAdapter::new(docs);

    let catalog = Catalog::new();
    catalog.add_schema("mysql", jdbc.schema());
    catalog.add_schema("splunk", splunk.schema());
    catalog.add_schema("cass", cassandra.schema());
    catalog.add_schema("mongo_raw", mongo.schema());
    catalog.set_default_schema("splunk");

    // The builder wires the default enumerable rules and executor; the
    // adapters then install their conventions on top, and their subtrees
    // execute through their own row-producing executors.
    let mut conn = Connection::builder(catalog).build();
    jdbc.install(&mut conn);
    splunk.install(&mut conn, std::slice::from_ref(&jdbc.convention));
    cassandra.install(&mut conn);
    mongo.install(&mut conn);

    Federation {
        conn,
        jdbc,
        splunk,
        cassandra,
        mongo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_answers_queries_on_every_backend() {
        let fed = build_federation(100, 10);
        assert_eq!(
            fed.conn
                .query("SELECT COUNT(*) AS c FROM orders")
                .unwrap()
                .rows[0][0],
            Datum::Int(100)
        );
        assert_eq!(
            fed.conn
                .query("SELECT COUNT(*) AS c FROM mysql.products")
                .unwrap()
                .rows[0][0],
            Datum::Int(10)
        );
        assert_eq!(
            fed.conn
                .query("SELECT COUNT(*) AS c FROM cass.readings")
                .unwrap()
                .rows[0][0],
            Datum::Int(8 * 64)
        );
        assert_eq!(
            fed.conn
                .query("SELECT COUNT(*) AS c FROM mongo_raw.zips")
                .unwrap()
                .rows[0][0],
            Datum::Int(4)
        );
    }

    #[test]
    fn cross_backend_join() {
        let fed = build_federation(100, 10);
        let r = fed
            .conn
            .query(
                "SELECT p.name, COUNT(*) AS c \
                 FROM orders o JOIN mysql.products p ON o.productid = p.productid \
                 GROUP BY p.name ORDER BY p.name",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 10);
        let total: i64 = r.rows.iter().map(|row| row[1].as_int().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn three_way_heterogeneous_query() {
        let fed = build_federation(50, 5);
        // Union of counts across three different engines.
        let r = fed
            .conn
            .query(
                "SELECT COUNT(*) AS c FROM orders \
                 UNION ALL SELECT COUNT(*) FROM cass.readings \
                 UNION ALL SELECT COUNT(*) FROM mongo_raw.zips",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
    }
}
