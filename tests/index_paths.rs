//! Differential testing of index access paths: every query planned with
//! secondary indexes available must produce output **byte-identical** to
//! the same query planned over full scans — point seeks, range seeks,
//! multi-column prefix seeks, IN-list multi-probes, index-only
//! projections and index-nested-loop joins — across worker counts and
//! memory budgets. Also pins the cost-model contract (seek for
//! point/narrow predicates, scan retained for wide ranges), the
//! plan-cache flip after CREATE INDEX / revert after DROP INDEX, and the
//! snapshot-consistency guarantee for in-flight scans during index
//! maintenance.

use proptest::prelude::*;
use rcalcite_core::catalog::{Catalog, MemTable, Schema, Table};
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::index::{BoundProbe, IndexDef};
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use rcalcite_sql::Connection;
use std::sync::Arc;

const ROWS: i64 = 2_000;

/// The base table: `id` unique, `grp` cycling with NULLs, `val` spread
/// over 0..1000 with NULLs, `tag` a low-cardinality string.
fn rows() -> Vec<Row> {
    (0..ROWS)
        .map(|i| {
            vec![
                Datum::Int(i),
                if i % 97 == 0 {
                    Datum::Null
                } else {
                    Datum::Int(i % 50)
                },
                if i % 53 == 0 {
                    Datum::Null
                } else {
                    Datum::Int(i * 7 % 1000)
                },
                Datum::str(format!("x{}", i % 10)),
            ]
        })
        .collect()
}

fn catalog() -> Arc<Catalog> {
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "t",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add("grp", TypeKind::Integer)
                .add("val", TypeKind::Integer)
                .add_not_null("tag", TypeKind::Varchar)
                .build(),
            rows(),
        ),
    );
    s.add_table(
        "probe",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("k", TypeKind::Integer)
                .build(),
            (0..20).map(|i| vec![Datum::Int(i * 100 + 7)]).collect(),
        ),
    );
    catalog.add_schema("db", s);
    catalog
}

const INDEX_DDL: &[&str] = &[
    "CREATE INDEX i_id ON t (id)",
    "CREATE INDEX i_grp_val ON t (grp, val)",
    "CREATE INDEX i_val ON t (val)",
    "CREATE INDEX i_tag ON t (tag) USING HASH",
];

fn conn(workers: usize, budget: Option<usize>) -> Connection {
    let mut b = Connection::builder(catalog()).workers(workers);
    if let Some(bytes) = budget {
        b = b.memory_budget(bytes);
    }
    b.build()
}

fn indexed_conn(workers: usize, budget: Option<usize>) -> Connection {
    let c = conn(workers, budget);
    for ddl in INDEX_DDL {
        c.query(ddl).unwrap();
    }
    c
}

const QUERIES: &[&str] = &[
    // Point seek on the unique column.
    "SELECT * FROM t WHERE id = 1234",
    // Missing key: empty either way.
    "SELECT * FROM t WHERE id = -5",
    // Range seek, inclusive and exclusive bounds.
    "SELECT id, val FROM t WHERE val >= 100 AND val < 120",
    "SELECT id FROM t WHERE id > 1950",
    // Multi-column prefix: eq on grp, range on val, over NULLs in both.
    "SELECT * FROM t WHERE grp = 7 AND val > 500",
    "SELECT * FROM t WHERE grp = 7 AND val > 200 AND val <= 800",
    // IN-list multi-probe (converter lowers to OR-of-equals).
    "SELECT id FROM t WHERE grp IN (3, 17, 42)",
    // Residual predicate stays above the seek.
    "SELECT * FROM t WHERE grp = 5 AND tag = 'x3'",
    // Hash index full-key point seek.
    "SELECT id FROM t WHERE tag = 'x7'",
    // Reversed comparison normalizes.
    "SELECT id FROM t WHERE 1990 < id",
    // Wide range: cost keeps the scan, results identical regardless.
    "SELECT id FROM t WHERE val > 10",
    // Index-nested-loop join candidate (unique right key).
    "SELECT p.k, t.val FROM probe p JOIN t ON p.k = t.id",
    // Equi-join on a non-unique indexed column with residual.
    "SELECT p.k, t.id FROM probe p JOIN t ON p.k = t.val WHERE t.grp = 7",
    // Aggregation over a seek.
    "SELECT COUNT(*) AS c FROM t WHERE grp = 9",
];

/// Index plans must be byte-identical to scan plans: seeks emit rows in
/// table-position order, exactly like the filter they replace.
#[test]
fn index_plans_match_scan_plans_across_matrix() {
    for workers in [1usize, 4] {
        for budget in [None, Some(4 * 1024 * 1024)] {
            let plain = conn(workers, budget);
            let indexed = indexed_conn(workers, budget);
            for q in QUERIES {
                let a = plain.query(q).unwrap().rows;
                let b = indexed.query(q).unwrap().rows;
                assert_eq!(a, b, "{q} (workers={workers} budget={budget:?})");
            }
        }
    }
}

/// The same matrix with fresh statistics: histogram-driven costing must
/// change only plans, never results.
#[test]
fn index_plans_match_scan_plans_after_analyze() {
    let plain = conn(1, None);
    let indexed = indexed_conn(1, None);
    plain.query("ANALYZE").unwrap();
    indexed.query("ANALYZE").unwrap();
    for q in QUERIES {
        let a = plain.query(q).unwrap().rows;
        let b = indexed.query(q).unwrap().rows;
        assert_eq!(a, b, "{q} (analyzed)");
    }
}

#[test]
fn explain_flips_to_seek_after_create_index_and_reverts_after_drop() {
    let c = conn(1, None);
    let point = "SELECT * FROM t WHERE id = 1234";

    let before = c.explain(point).unwrap();
    assert!(!before.contains("IndexSeek"), "{before}");
    assert!(before.contains("Scan(db.t)"), "{before}");

    // CREATE INDEX bumps the plan-cache generation: the same SQL text
    // must re-plan and pick the seek.
    c.query("CREATE INDEX i_id ON t (id)").unwrap();
    let after = c.explain(point).unwrap();
    assert!(after.contains("IndexSeek"), "{after}");
    assert!(
        !after.contains("Filter"),
        "point seek needs no residual: {after}"
    );

    // DROP INDEX reverts the access path.
    c.query("DROP INDEX i_id ON t").unwrap();
    let reverted = c.explain(point).unwrap();
    assert!(!reverted.contains("IndexSeek"), "{reverted}");
}

/// The cost model arbitrates by estimated selectivity: a point or narrow
/// range takes the seek, a wide range keeps the full scan — sharpened by
/// ANALYZE histograms.
#[test]
fn cost_model_picks_seek_only_when_selective() {
    let c = indexed_conn(1, None);
    c.query("ANALYZE").unwrap();

    let narrow = c
        .explain("SELECT id FROM t WHERE val >= 100 AND val < 120")
        .unwrap();
    assert!(narrow.contains("IndexSeek"), "{narrow}");

    let wide = c.explain("SELECT id FROM t WHERE val > 10").unwrap();
    assert!(!wide.contains("IndexSeek"), "{wide}");
    assert!(wide.contains("Scan(db.t)"), "{wide}");
}

#[test]
fn multi_probe_and_prefix_seeks_show_in_explain() {
    let c = indexed_conn(1, None);
    let in_list = c
        .explain("SELECT id FROM t WHERE grp IN (3, 17, 42)")
        .unwrap();
    assert!(in_list.contains("IndexSeek"), "{in_list}");

    let prefix = c
        .explain("SELECT * FROM t WHERE grp = 7 AND val > 500")
        .unwrap();
    assert!(prefix.contains("i_grp_val"), "{prefix}");
}

#[test]
fn index_join_is_offered_and_correct() {
    let c = indexed_conn(1, None);
    c.query("ANALYZE").unwrap();
    let q = "SELECT p.k, t.val FROM probe p JOIN t ON p.k = t.id";
    let plan = c.explain(q).unwrap();
    assert!(plan.contains("IndexJoin"), "{plan}");
    let rows = c.query(q).unwrap().rows;
    assert_eq!(rows.len(), 20);
    // Spot-check one pair: probe key 107 joins row id=107, val=107*7%1000.
    assert!(rows
        .iter()
        .any(|r| r == &vec![Datum::Int(107), Datum::Int(749)]));
}

/// INSERT maintains indexes incrementally: a seek planned after the
/// write must see the new row.
#[test]
fn insert_maintains_indexes() {
    let c = indexed_conn(1, None);
    c.query("INSERT INTO t VALUES (9999, 1, 555, 'x1')")
        .unwrap();
    let plan = c.explain("SELECT val FROM t WHERE id = 9999").unwrap();
    assert!(plan.contains("IndexSeek"), "{plan}");
    let rows = c.query("SELECT val FROM t WHERE id = 9999").unwrap().rows;
    assert_eq!(rows, vec![vec![Datum::Int(555)]]);
}

#[test]
fn index_ddl_errors() {
    let c = conn(1, None);
    c.query("CREATE INDEX i_id ON t (id)").unwrap();
    // Duplicate name.
    assert!(c.query("CREATE INDEX i_id ON t (id)").is_err());
    // Unknown column.
    assert!(c.query("CREATE INDEX i_bad ON t (nope)").is_err());
    // Unknown index without IF EXISTS errs; with it, succeeds.
    assert!(c.query("DROP INDEX nope ON t").is_err());
    c.query("DROP INDEX IF EXISTS nope ON t").unwrap();
    // DROP INDEX without ON searches the catalog.
    c.query("DROP INDEX i_id").unwrap();
    let c2 = conn(1, None);
    assert!(!c2
        .explain("SELECT * FROM t WHERE id = 3")
        .unwrap()
        .contains("IndexSeek"));
}

/// Satellite regression: an in-flight snapshot taken before a write
/// keeps serving pre-write data — rows AND index — while the insert
/// updates the live index incrementally under the copy-on-write Arc.
#[test]
fn index_maintenance_preserves_open_snapshots() {
    let t = MemTable::new(
        RowTypeBuilder::new()
            .add_not_null("a", TypeKind::Integer)
            .build(),
        (0..10).map(|i| vec![Datum::Int(i)]).collect(),
    );
    t.create_index(&IndexDef::ordered("i_a", vec![0])).unwrap();

    // Open a probe snapshot and a range-scan snapshot, then write.
    let pre_probe = t.index_probe_snapshot("i_a").unwrap().unwrap();
    let pre_scan = t.scan_snapshot().unwrap().unwrap();
    t.insert(vec![Datum::Int(5)]);
    t.insert(vec![Datum::Int(42)]);

    // The pre-write snapshots are undisturbed.
    assert_eq!(pre_probe.row_count(), 10);
    assert_eq!(
        pre_probe.positions(&BoundProbe::point(vec![Datum::Int(5)])),
        vec![5]
    );
    assert!(pre_probe
        .positions(&BoundProbe::point(vec![Datum::Int(42)]))
        .is_empty());
    assert_eq!(pre_scan.row_count(), 10);

    // A fresh snapshot sees both writes, duplicate positions ascending.
    let post = t.index_probe_snapshot("i_a").unwrap().unwrap();
    assert_eq!(post.row_count(), 12);
    assert_eq!(
        post.positions(&BoundProbe::point(vec![Datum::Int(5)])),
        vec![5, 10]
    );
    assert_eq!(
        post.positions(&BoundProbe::point(vec![Datum::Int(42)])),
        vec![11]
    );
}

/// The same guarantee through the memdb backend (jdbc adapter storage):
/// the index lives inside the table's copy-on-write version, so one Arc
/// snapshot carries rows, columns and index state together.
#[test]
fn memdb_snapshots_carry_indexes() {
    use rcalcite_backends::memdb::MemDb;
    let db = MemDb::new();
    db.create_table(
        "g",
        vec![("a".into(), TypeKind::Integer)],
        (0..8).map(|i| vec![Datum::Int(i)]).collect(),
    );
    let g = db.table("g").unwrap();
    g.create_index(&IndexDef::ordered("i_a", vec![0])).unwrap();

    let probe = |index: &str| g.txn_snapshot().unwrap().index_probe(index);
    let pre = probe("i_a").unwrap();
    db.insert("g", vec![Datum::Int(3)]).unwrap();

    assert_eq!(pre.row_count(), 8);
    assert_eq!(
        pre.positions(&BoundProbe::point(vec![Datum::Int(3)])),
        vec![3]
    );
    let post = probe("i_a").unwrap();
    assert_eq!(post.row_count(), 9);
    assert_eq!(
        post.positions(&BoundProbe::point(vec![Datum::Int(3)])),
        vec![3, 8]
    );
    assert!(probe("nope").is_none());
    assert!(g.drop_index("i_a").unwrap());
    assert!(!g.drop_index("i_a").unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random conjunctions of comparisons over the indexed columns:
    /// indexed and unindexed plans stay byte-identical.
    #[test]
    fn random_predicates_differential(
        preds in proptest::collection::vec(
            (0usize..3, 0usize..5, -10i64..1010),
            1..4,
        ),
    ) {
        let cols = ["id", "grp", "val"];
        let ops = ["=", "<", ">", "<=", ">="];
        let clauses: Vec<String> = preds
            .iter()
            .map(|(c, o, v)| format!("{} {} {v}", cols[*c], ops[*o]))
            .collect();
        let sql = format!("SELECT * FROM t WHERE {}", clauses.join(" AND "));
        let plain = conn(1, None);
        let indexed = indexed_conn(1, None);
        let a = plain.query(&sql).unwrap().rows;
        let b = indexed.query(&sql).unwrap().rows;
        prop_assert!(a == b, "rows differ for {}", sql);
    }
}
