//! Incremental view maintenance end to end: maintained views must stay
//! byte-identical to a full recompute of their definition after arbitrary
//! committed DML (proptest-generated mixes and a fixed script across the
//! workers × memory-budget matrix), respect transaction semantics
//! (uncommitted deltas invisible, ROLLBACK untouched), fall back to
//! tracked staleness for unsupported shapes, and survive crash-recovery
//! replay as stale-then-refreshable.

use proptest::prelude::*;
use rcalcite_core::catalog::{Catalog, MemTable, Schema};
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use rcalcite_core::wal::{replay, MemWal, WalWriter};
use rcalcite_sql::Connection;
use std::sync::Arc;

/// `mart.sales(region, product, units)` plus `mart.regions(id, name)`.
fn seeded_catalog(n: i64) -> Arc<Catalog> {
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "sales",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("region", TypeKind::Integer)
                .add_not_null("product", TypeKind::Integer)
                .add("units", TypeKind::Integer)
                .build(),
            (0..n)
                .map(|i| {
                    vec![
                        Datum::Int(i % 5),
                        Datum::Int(i % 11),
                        if i % 13 == 0 {
                            Datum::Null
                        } else {
                            Datum::Int(i * 3 % 97)
                        },
                    ]
                })
                .collect(),
        ),
    );
    s.add_table(
        "regions",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add("name", TypeKind::Varchar)
                .build(),
            (0..5)
                .map(|i| vec![Datum::Int(i), Datum::str(format!("r{i}"))])
                .collect(),
        ),
    );
    catalog.add_schema("mart", s);
    catalog
}

fn conn(catalog: Arc<Catalog>) -> Connection {
    Connection::builder(catalog).build()
}

/// The maintained views exercised everywhere: (name, definition). Each
/// pair covers a different delta rule — grouped COUNT/SUM/MIN/MAX/AVG,
/// a global aggregate (group never retracted), filter + projection, and
/// an inner equi-join.
const VIEWS: &[(&str, &str)] = &[
    (
        "by_region",
        "SELECT region, COUNT(*) AS c, COUNT(units) AS cu, SUM(units) AS s, \
         MIN(units) AS lo, MAX(units) AS hi, AVG(units) AS a \
         FROM sales GROUP BY region",
    ),
    (
        "totals",
        "SELECT COUNT(*) AS c, SUM(units) AS s, MIN(units) AS lo FROM sales",
    ),
    ("hot", "SELECT region, units FROM sales WHERE units > 40"),
    (
        "named_units",
        "SELECT r.name, s.units FROM sales AS s JOIN regions AS r ON s.region = r.id \
         WHERE s.units > 10",
    ),
];

fn create_views(c: &Connection) {
    for (name, def) in VIEWS {
        let r = c
            .query(&format!("CREATE MATERIALIZED VIEW {name} AS {def}"))
            .unwrap();
        let msg = r.rows[0][0].to_string();
        assert!(msg.contains("incrementally maintained"), "{name}: {msg}");
    }
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// Every maintained view's contents must equal a full recompute of its
/// definition. The recompute runs on `fresh`, a connection over the same
/// catalog with no registered materializations, so it always plans
/// against the base tables.
fn assert_views_match(served: &Connection, fresh: &Connection, ctx: &str) {
    for (name, def) in VIEWS {
        let view = served.query(&format!("SELECT * FROM {name}")).unwrap();
        let recomputed = fresh.query(def).unwrap();
        assert_eq!(view.columns, recomputed.columns, "{ctx}: {name} columns");
        assert_eq!(
            sorted(view.rows),
            sorted(recomputed.rows),
            "{ctx}: view {name} diverged from recompute"
        );
    }
}

#[test]
fn maintained_views_track_dml_and_serve_queries() {
    let catalog = seeded_catalog(200);
    let c = conn(catalog.clone());
    let fresh = conn(catalog.clone());
    create_views(&c);
    assert_views_match(&c, &fresh, "initial");

    // Substitution serves the grouped aggregate from the view, and
    // EXPLAIN proves it.
    let (_, def) = VIEWS[0];
    let plan = c.explain(def).unwrap();
    assert!(
        plan.contains("-- mv: substituted mv.by_region (fresh)"),
        "{plan}"
    );
    assert!(plan.contains("mv.by_region"), "{plan}");
    // Served results are byte-identical to the base-table plan.
    assert_eq!(
        sorted(c.query(def).unwrap().rows),
        sorted(fresh.query(def).unwrap().rows)
    );

    for (i, stmt) in [
        "INSERT INTO sales VALUES (1, 50, 7), (4, 51, NULL), (0, 52, 96)",
        "UPDATE sales SET units = units + 13 WHERE region = 1",
        "UPDATE sales SET units = NULL WHERE product = 3",
        "DELETE FROM sales WHERE units > 80",
        "UPDATE sales SET region = 2 WHERE region = 4",
        "DELETE FROM sales WHERE region = 0",
        "INSERT INTO sales SELECT region, product + 100, units FROM sales WHERE region = 2",
    ]
    .iter()
    .enumerate()
    {
        c.query(stmt).unwrap();
        assert_views_match(&c, &fresh, &format!("after stmt {i}: {stmt}"));
    }
    // Views stayed fresh throughout: substitution still serves reads.
    let plan = c.explain(def).unwrap();
    assert!(
        plan.contains("-- mv: substituted mv.by_region (fresh)"),
        "{plan}"
    );
}

#[test]
fn emptied_and_repopulated_groups() {
    let catalog = seeded_catalog(6);
    let c = conn(catalog.clone());
    let fresh = conn(catalog.clone());
    create_views(&c);

    // Empty the whole base table: keyed groups vanish, global aggregates
    // collapse to their empty-input row (COUNT = 0, SUM/MIN NULL).
    c.query("DELETE FROM sales").unwrap();
    assert_views_match(&c, &fresh, "emptied");
    let totals = c.query("SELECT * FROM totals").unwrap();
    assert_eq!(
        totals.rows,
        vec![vec![Datum::Int(0), Datum::Null, Datum::Null]]
    );
    let by_region = c.query("SELECT * FROM by_region").unwrap();
    assert!(by_region.rows.is_empty(), "{by_region:?}");

    // Repopulate from nothing.
    c.query("INSERT INTO sales VALUES (3, 1, 42), (3, 2, NULL), (1, 1, 7)")
        .unwrap();
    assert_views_match(&c, &fresh, "repopulated");

    // MIN retraction must reveal the runner-up, not a stale minimum.
    c.query("DELETE FROM sales WHERE units = 7").unwrap();
    let lo = c.query("SELECT lo FROM totals").unwrap();
    assert_eq!(lo.rows, vec![vec![Datum::Int(42)]]);
    assert_views_match(&c, &fresh, "min retracted");
}

// ---------------------------------------------------------------------
// Randomized differential: maintained ≡ recompute after arbitrary mixes.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Dml {
    Insert {
        region: i64,
        product: i64,
        units: Option<i64>,
    },
    Update {
        region: i64,
        bump: i64,
    },
    Retag {
        product: i64,
        region: i64,
    },
    Delete {
        threshold: i64,
    },
    DeleteRegion {
        region: i64,
    },
}

impl Dml {
    fn sql(&self) -> String {
        match self {
            Dml::Insert {
                region,
                product,
                units,
            } => {
                let u = units.map_or("NULL".to_string(), |u| u.to_string());
                format!("INSERT INTO sales VALUES ({region}, {product}, {u})")
            }
            Dml::Update { region, bump } => {
                format!("UPDATE sales SET units = units + {bump} WHERE region = {region}")
            }
            Dml::Retag { product, region } => {
                format!("UPDATE sales SET region = {region} WHERE product = {product}")
            }
            Dml::Delete { threshold } => {
                format!("DELETE FROM sales WHERE units > {threshold}")
            }
            Dml::DeleteRegion { region } => {
                format!("DELETE FROM sales WHERE region = {region}")
            }
        }
    }
}

fn dml_strategy() -> impl Strategy<Value = Dml> {
    prop_oneof![
        // units below -50 encode NULL (the shim has no Option strategy).
        (0i64..5, 0i64..20, -60i64..100).prop_map(|(region, product, units)| {
            Dml::Insert {
                region,
                product,
                units: (units >= -50).then_some(units),
            }
        }),
        (0i64..5, -20i64..20).prop_map(|(region, bump)| Dml::Update { region, bump }),
        (0i64..11, 0i64..5).prop_map(|(product, region)| Dml::Retag { product, region }),
        (40i64..95).prop_map(|threshold| Dml::Delete { threshold }),
        (0i64..5).prop_map(|region| Dml::DeleteRegion { region }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every statement of a random DML mix, each maintained view
    /// equals a full recompute of its definition over the base tables.
    #[test]
    fn random_dml_differential(ops in proptest::collection::vec(dml_strategy(), 1..12)) {
        let catalog = seeded_catalog(60);
        let c = conn(catalog.clone());
        let fresh = conn(catalog.clone());
        create_views(&c);
        for (i, op) in ops.iter().enumerate() {
            c.query(&op.sql()).unwrap();
            for (name, def) in VIEWS {
                let view = c.query(&format!("SELECT * FROM {name}")).unwrap();
                let recomputed = fresh.query(def).unwrap();
                let (got, want) = (sorted(view.rows), sorted(recomputed.rows));
                prop_assert!(
                    got == want,
                    "op {}: {} view {}\n  got: {:?}\n want: {:?}",
                    i, op.sql(), name, got, want
                );
            }
        }
    }
}

/// The same DML script maintains identical view contents across the
/// workers × memory-budget execution matrix (the CI `test-ivm` job also
/// forces `RCALCITE_TEST_WORKERS=4` through the builder default).
#[test]
fn maintenance_differential_across_workers_and_budget() {
    let script = [
        "INSERT INTO sales SELECT region, product + 50, units FROM sales WHERE units > 30",
        "UPDATE sales SET units = units * 2 WHERE region = 2",
        "DELETE FROM sales WHERE units > 150",
        "UPDATE sales SET region = 0 WHERE product = 7",
        "DELETE FROM sales WHERE region = 3",
    ];
    let mut reference: Option<Vec<Vec<Row>>> = None;
    let mut workers_matrix = vec![1usize, 4];
    if let Some(n) = std::env::var("RCALCITE_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        if !workers_matrix.contains(&n) {
            workers_matrix.push(n);
        }
    }
    for workers in workers_matrix {
        for budget in [None, Some(32 * 1024)] {
            let catalog = seeded_catalog(300);
            let mut b = Connection::builder(catalog.clone()).workers(workers);
            if let Some(bytes) = budget {
                b = b.memory_budget(bytes);
            }
            let c = b.build();
            let fresh = conn(catalog.clone());
            create_views(&c);
            for stmt in script {
                c.query(stmt).unwrap();
            }
            assert_views_match(&c, &fresh, &format!("workers={workers} budget={budget:?}"));
            let snapshot: Vec<Vec<Row>> = VIEWS
                .iter()
                .map(|(name, _)| sorted(c.query(&format!("SELECT * FROM {name}")).unwrap().rows))
                .collect();
            match &reference {
                None => reference = Some(snapshot),
                Some(r) => assert_eq!(
                    &snapshot, r,
                    "workers={workers} budget={budget:?} diverged from serial reference"
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Transaction semantics.
// ---------------------------------------------------------------------

#[test]
fn uncommitted_deltas_are_invisible_and_rollback_leaves_views_untouched() {
    let catalog = seeded_catalog(50);
    let c = conn(catalog.clone());
    let fresh = conn(catalog.clone());
    create_views(&c);
    let before = sorted(c.query("SELECT * FROM by_region").unwrap().rows);

    c.query("BEGIN").unwrap();
    c.query("INSERT INTO sales VALUES (1, 99, 55)").unwrap();
    c.query("UPDATE sales SET units = 0 WHERE region = 2")
        .unwrap();
    // The view reflects committed state only — the staged writes have
    // not propagated.
    let observer = conn(catalog.clone());
    let during = sorted(observer.query("SELECT * FROM mv.by_region").unwrap().rows);
    assert_eq!(during, before, "staged deltas leaked into the view");
    // Inside the transaction, MV substitution is disabled: the grouped
    // aggregate re-plans against the snapshot and sees the staged rows.
    let (_, def) = VIEWS[0];
    let inside = c.query(def).unwrap();
    let by_region_c = sorted(inside.rows.clone());
    assert_ne!(by_region_c, before, "txn query must see its own writes");
    // EXPLAIN inside the transaction shows the plan that runs: a scan of
    // the transaction's snapshot of the base table, not the view.
    let plan = c.explain(def).unwrap();
    assert!(!plan.contains("mv.by_region"), "{plan}");
    assert!(plan.contains("Scan(mart.sales)"), "{plan}");

    c.query("ROLLBACK").unwrap();
    assert_eq!(
        sorted(c.query("SELECT * FROM by_region").unwrap().rows),
        before,
        "ROLLBACK must leave the view untouched"
    );
    assert_views_match(&c, &fresh, "after rollback");

    // COMMIT propagates atomically: view and base agree immediately after.
    c.query("BEGIN").unwrap();
    c.query("INSERT INTO sales VALUES (1, 99, 55)").unwrap();
    c.query("DELETE FROM sales WHERE region = 0").unwrap();
    c.query("COMMIT").unwrap();
    assert_views_match(&c, &fresh, "after commit");
    let plan = c.explain(def).unwrap();
    assert!(
        plan.contains("-- mv: substituted mv.by_region (fresh)"),
        "{plan}"
    );
}

// ---------------------------------------------------------------------
// Unsupported shapes: refresh-only fallback.
// ---------------------------------------------------------------------

#[test]
fn unsupported_shape_falls_back_to_tracked_staleness() {
    let catalog = seeded_catalog(50);
    let c = conn(catalog.clone());
    let def = "SELECT region, COUNT(DISTINCT product) AS dp FROM sales GROUP BY region";
    let r = c
        .query(&format!(
            "CREATE MATERIALIZED VIEW distinct_products AS {def}"
        ))
        .unwrap();
    let msg = r.rows[0][0].to_string();
    assert!(msg.contains("refresh-only"), "{msg}");
    assert!(msg.contains("DISTINCT"), "{msg}");

    // Fresh: substitution serves the query from the view.
    let plan = c.explain(def).unwrap();
    assert!(
        plan.contains("-- mv: substituted mv.distinct_products (fresh)"),
        "{plan}"
    );
    let before = sorted(c.query(def).unwrap().rows);

    // A committed write makes it stale: substitution must bypass it and
    // answers come (correctly) from the base table.
    c.query("INSERT INTO sales VALUES (1, 999, 5)").unwrap();
    let view = catalog.ivm().get("mv.distinct_products").unwrap();
    assert!(!view.is_fresh());
    assert!(
        view.staleness().unwrap().contains("not maintainable"),
        "{:?}",
        view.staleness()
    );
    let plan = c.explain(def).unwrap();
    assert!(
        plan.contains("-- mv: mv.distinct_products (stale, bypassed)"),
        "{plan}"
    );
    let after = sorted(c.query(def).unwrap().rows);
    assert_ne!(after, before, "stale view must not serve the read");

    // Direct reads of the view's storage still return the (stale) rows.
    assert_eq!(
        sorted(c.query("SELECT * FROM distinct_products").unwrap().rows),
        before
    );

    // REFRESH recomputes and restores substitution.
    c.query("REFRESH MATERIALIZED VIEW distinct_products")
        .unwrap();
    assert!(view.is_fresh());
    assert_eq!(
        sorted(c.query("SELECT * FROM distinct_products").unwrap().rows),
        after
    );
    let plan = c.explain(def).unwrap();
    assert!(
        plan.contains("-- mv: substituted mv.distinct_products (fresh)"),
        "{plan}"
    );
}

#[test]
fn direct_write_to_view_storage_breaks_the_view_until_refresh() {
    let catalog = seeded_catalog(50);
    let c = conn(catalog.clone());
    create_views(&c);
    let view = catalog.ivm().get("mv.hot").unwrap();
    assert!(view.is_fresh());

    // Tampering with the backing table through SQL is detected by the
    // commit feed: the row-id bag is untrustworthy, the view is broken.
    c.query("INSERT INTO mv.hot VALUES (9, 999)").unwrap();
    assert!(!view.is_fresh());
    assert!(
        view.staleness().unwrap().contains("modified directly"),
        "{:?}",
        view.staleness()
    );
    let plan = c
        .explain("SELECT region, units FROM sales WHERE units > 40")
        .unwrap();
    assert!(plan.contains("(stale, bypassed)"), "{plan}");

    // REFRESH rebuilds storage from the definition and re-arms
    // maintenance.
    c.query("REFRESH MATERIALIZED VIEW hot").unwrap();
    assert!(view.is_fresh());
    let fresh = conn(catalog.clone());
    c.query("INSERT INTO sales VALUES (2, 77, 70)").unwrap();
    assert_views_match(&c, &fresh, "maintained again after refresh");
}

// ---------------------------------------------------------------------
// DDL surface: DROP, duplicate names, ANALYZE over view storage.
// ---------------------------------------------------------------------

#[test]
fn mv_ddl_lifecycle() {
    let catalog = seeded_catalog(50);
    let c = conn(catalog.clone());
    create_views(&c);

    // Duplicate names are rejected.
    let err = c
        .query("CREATE MATERIALIZED VIEW hot AS SELECT region FROM sales")
        .unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");

    // ANALYZE treats view storage like any table (it lives in the `mv`
    // schema), and stats land under the qualified name.
    let r = c.query("ANALYZE mv.by_region").unwrap();
    assert!(r.rows[0][0].to_string().contains("analyzed 1"), "{r:?}");
    assert!(catalog.stats().get_any("mv.by_region").is_some());

    // Maintenance retires the *view's* stats only; other tables keep
    // theirs across the commit.
    c.query("ANALYZE").unwrap();
    assert!(catalog.stats().get_any("mart.regions").is_some());
    c.query("INSERT INTO sales VALUES (1, 1, 50)").unwrap();
    assert!(
        catalog.stats().get_any("mv.by_region").is_none(),
        "maintenance must retire the view's stats"
    );
    assert!(
        catalog.stats().get_any("mart.regions").is_some(),
        "unrelated base-table stats must survive maintenance"
    );

    // DROP removes the view everywhere: substitution stops, direct
    // reference fails, re-creating under the same name works.
    let (_, def) = VIEWS[0];
    c.query("DROP MATERIALIZED VIEW by_region").unwrap();
    assert!(catalog.ivm().get("mv.by_region").is_none());
    let plan = c.explain(def).unwrap();
    assert!(!plan.contains("mv.by_region"), "{plan}");
    assert!(c.query("SELECT * FROM by_region").is_err());
    assert!(c.query("DROP MATERIALIZED VIEW by_region").is_err());
    c.query("DROP MATERIALIZED VIEW IF EXISTS by_region")
        .unwrap();
    c.query(&format!("CREATE MATERIALIZED VIEW by_region AS {def}"))
        .unwrap();
    let fresh = conn(catalog.clone());
    assert_views_match(&c, &fresh, "recreated after drop");

    // MV DDL is rejected inside explicit transactions.
    c.query("BEGIN").unwrap();
    for sql in [
        "CREATE MATERIALIZED VIEW t2 AS SELECT region FROM sales",
        "REFRESH MATERIALIZED VIEW hot",
    ] {
        let err = c.query(sql).unwrap_err();
        assert!(err.to_string().contains("transaction"), "{sql}: {err}");
    }
    c.query("ROLLBACK").unwrap();
}

#[test]
fn mv_ddl_invalidates_cached_plans() {
    let catalog = seeded_catalog(50);
    let c = conn(catalog.clone());
    let (_, def) = VIEWS[0];
    // Warm the cache with the base-table plan.
    c.query(def).unwrap();
    assert!(c.explain(def).unwrap().starts_with("-- plan cache: hit"));
    // CREATE bumps the generation: the cached plan re-plans and now
    // substitutes the view.
    create_views(&c);
    let plan = c.explain(def).unwrap();
    assert!(plan.starts_with("-- plan cache: miss"), "{plan}");
    assert!(
        plan.contains("-- mv: substituted mv.by_region (fresh)"),
        "{plan}"
    );
    // ...and DROP bumps it again: the next plan reads the base table.
    c.query(def).unwrap();
    c.query("DROP MATERIALIZED VIEW by_region").unwrap();
    let plan = c.explain(def).unwrap();
    assert!(plan.starts_with("-- plan cache: miss"), "{plan}");
    assert!(!plan.contains("mv.by_region"), "{plan}");
}

// ---------------------------------------------------------------------
// Crash recovery.
// ---------------------------------------------------------------------

/// WAL replay applies committed deltas straight to storage — outside the
/// commit feed — so registered views over the recovered catalog go
/// stale (never silently wrong) and REFRESH rebuilds them.
#[test]
fn wal_replay_staleness_flags_views_and_refresh_rebuilds() {
    let catalog = seeded_catalog(50);
    let mem = MemWal::default();
    catalog
        .txns()
        .attach_wal(WalWriter::new(Box::new(mem.clone())));
    let c = conn(catalog.clone());
    c.query("UPDATE sales SET units = units + 9 WHERE region = 1")
        .unwrap();
    c.query("DELETE FROM sales WHERE region = 4").unwrap();

    // The "restarted" node: same seed data, views re-registered from the
    // (hypothetical) catalog definition before log replay.
    let recovered = seeded_catalog(50);
    let rc = conn(recovered.clone());
    create_views(&rc);
    let bytes = mem.handle().lock().clone();
    let report = replay(&bytes, &recovered).unwrap();
    assert_eq!(report.txns, 2);

    // Replay bypassed the commit feed: every view over sales is stale.
    for name in ["mv.by_region", "mv.totals", "mv.hot", "mv.named_units"] {
        let view = recovered.ivm().get(name).unwrap();
        assert!(!view.is_fresh(), "{name} must be stale after replay");
        assert!(
            view.staleness()
                .unwrap()
                .contains("outside the commit feed"),
            "{name}: {:?}",
            view.staleness()
        );
    }
    let plan = rc
        .explain("SELECT region, units FROM sales WHERE units > 40")
        .unwrap();
    assert!(plan.contains("(stale, bypassed)"), "{plan}");

    // REFRESH rebuilds each view to match the recovered base state and
    // re-arms incremental maintenance.
    for (name, _) in VIEWS {
        rc.query(&format!("REFRESH MATERIALIZED VIEW {name}"))
            .unwrap();
    }
    let fresh = conn(recovered.clone());
    assert_views_match(&rc, &fresh, "after replay + refresh");
    rc.query("INSERT INTO sales VALUES (1, 45, 61)").unwrap();
    assert_views_match(&rc, &fresh, "maintained after recovery");
}

#[test]
fn crashed_commit_leaves_views_consistent() {
    let catalog = seeded_catalog(50);
    let mem = MemWal::default();
    // The writer tears some record mid-frame a few statements in; the
    // commit that hits it must publish nothing.
    catalog
        .txns()
        .attach_wal(WalWriter::new(Box::new(mem.clone())).with_crash_at(8));
    let c = conn(catalog.clone());
    let fresh = conn(catalog.clone());
    create_views(&c);

    let mut crashed = false;
    for stmt in [
        "UPDATE sales SET units = 3 WHERE region = 0",
        "DELETE FROM sales WHERE region = 1",
        "INSERT INTO sales VALUES (2, 7, 41)",
        "UPDATE sales SET units = units + 1 WHERE region = 2",
    ] {
        match c.query(stmt) {
            Ok(_) => assert!(!crashed, "WAL accepted writes after the crash"),
            Err(e) => {
                assert!(e.to_string().contains("crash"), "{e}");
                crashed = true;
            }
        }
        // Whether the commit landed or tore, base and views agree and
        // stay fresh: the failed commit published nothing.
        assert_views_match(&c, &fresh, &format!("after {stmt}"));
        for (name, _) in VIEWS {
            let view = catalog.ivm().get(&format!("mv.{name}")).unwrap();
            assert!(view.is_fresh(), "mv.{name} lost freshness ({stmt})");
        }
    }
    assert!(crashed, "crash injection never fired");
}

/// CI's crash-injection hook, as in `tests/txn.rs`: with
/// `RCALCITE_TEST_CRASH_AT=<n>` set, commits tear at record `n`; views
/// must equal a recompute of whatever prefix actually committed.
/// Self-skips when the variable is unset.
#[test]
fn env_crash_injection_keeps_views_consistent() {
    let Some(n) = std::env::var(rcalcite_core::wal::CRASH_AT_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    else {
        return;
    };
    let catalog = seeded_catalog(50);
    let mem = MemWal::default();
    catalog
        .txns()
        .attach_wal(WalWriter::new(Box::new(mem.clone())));
    let c = conn(catalog.clone());
    let fresh = conn(catalog.clone());
    create_views(&c);
    for i in 0..(n as usize / 3 + 2) {
        let region = i % 5;
        if c.query(&format!(
            "UPDATE sales SET units = units + 1 WHERE region = {region}"
        ))
        .is_err()
        {
            break;
        }
    }
    assert_views_match(&c, &fresh, &format!("crash at record {n}"));
}
