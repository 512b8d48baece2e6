//! The sparse delta apply, differentially: random op streams run through
//! `Table::apply_delta` on two `MemTable`s over the chunked `core::store`
//! — one built directly, one built by `MemDb::create_table` and read back
//! through `MemDb::execute` as well — must leave exactly the rows a
//! naive reference (a map rebuilt op by op, read back by id) holds, ids
//! strictly ascending, the columnar surface in step, and every ordered
//! and hash index equal to `IndexData::build` over the result.
//!
//! Streams cover what one transaction can stage — repeated updates of a
//! row, update-then-delete, insert-then-update/delete — and what two
//! writers can do to each other: id blocks reserved in one order and
//! committed in another, used descending within a stream. They run over a
//! 12-row table and over one of more than 2.5 chunks, where the picks
//! fall on and around the chunk boundaries.

use proptest::prelude::*;
use rcalcite_backends::memdb::{MemDb, SqlQuerySpec};
use rcalcite_core::catalog::{MemTable, RangeScan, Table};
use rcalcite_core::datum::{columns_to_rows, Datum, Row};
use rcalcite_core::exec::drain_rows;
use rcalcite_core::index::{BoundProbe, IndexData, IndexDef, IndexProbe, RowsRef};
use rcalcite_core::store::CHUNK_ROWS;
use rcalcite_core::txn::DeltaOp;
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use std::collections::BTreeMap;
use std::sync::Arc;

const SEED_ROWS: i64 = 12;
/// A table of more than 2.5 chunks.
const CHUNKED_ROWS: i64 = (CHUNK_ROWS * 5 / 2 + 7) as i64;
/// Key domain of column 0; 0 stands for NULL.
const KEYS: i64 = 6;

fn key(k: i64) -> Datum {
    if k == 0 {
        Datum::Null
    } else {
        Datum::Int(k)
    }
}

fn seed_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| vec![key(i % KEYS), Datum::Int(i), Datum::str(format!("r{i}"))])
        .collect()
}

fn index_defs() -> Vec<IndexDef> {
    vec![
        IndexDef::ordered("by_key", vec![0]),
        IndexDef::hash("by_key_hash", vec![0]),
        IndexDef::ordered("by_key_v", vec![0, 1]),
        IndexDef::hash("by_v", vec![1]),
    ]
}

/// Both tables under test, loaded alike.
struct Stores {
    mem: Arc<MemTable>,
    db: Arc<MemDb>,
}

impl Stores {
    fn new(rows: i64) -> Stores {
        let mem = MemTable::new(
            RowTypeBuilder::new()
                .add("k", TypeKind::Integer)
                .add_not_null("v", TypeKind::Integer)
                .add_not_null("tag", TypeKind::Varchar)
                .build(),
            seed_rows(rows),
        );
        let db = MemDb::new();
        db.create_table(
            "t",
            vec![
                ("k".into(), TypeKind::Integer),
                ("v".into(), TypeKind::Integer),
                ("tag".into(), TypeKind::Varchar),
            ],
            seed_rows(rows),
        );
        for def in index_defs() {
            mem.create_index(&def).unwrap();
            db.table("t").unwrap().create_index(&def).unwrap();
        }
        Stores { mem, db }
    }

    /// Reserves `n` ids on both stores; they hand out the same block.
    fn reserve(&self, n: usize) -> u64 {
        let a = self.mem.reserve_row_ids(n).unwrap();
        assert_eq!(a, self.db.table("t").unwrap().reserve_row_ids(n).unwrap());
        a
    }

    /// `apply_delta` on both; they must agree on accepting the stream.
    fn apply(&self, ops: &[DeltaOp]) -> bool {
        let a = self.mem.apply_delta(ops);
        let b = self.db.table("t").unwrap().apply_delta(ops);
        assert_eq!(a.is_ok(), b.is_ok(), "stores disagree: {a:?} vs {b:?}");
        a.is_ok()
    }

    /// Everything observable about both stores: rows, ids, data versions,
    /// the columnar surface, and what every index answers.
    fn image(&self) -> Vec<String> {
        let rel = self.db.table("t").unwrap();
        let version = rel.txn_snapshot().unwrap();
        let columnar: Vec<_> = version.chunks().collect();
        let mut out = vec![
            format!("{:?} {:?}", self.mem.rows(), self.mem.row_ids()),
            format!("{:?} {:?} {columnar:?}", rel.rows(), rel.row_ids()),
            format!("{:?} {:?}", self.mem.data_version(), rel.data_version()),
        ];
        for def in index_defs() {
            let a = self.mem.index_probe_snapshot(&def.name).unwrap().unwrap();
            let b = rel.index_probe_snapshot(&def.name).unwrap().unwrap();
            for probe in probes(&def) {
                out.push(format!(
                    "{:?} {:?}",
                    a.positions(&probe),
                    b.positions(&probe)
                ));
            }
        }
        out
    }
}

fn probes(def: &IndexDef) -> Vec<BoundProbe> {
    let mut out = vec![];
    for k in -1..=KEYS {
        out.push(BoundProbe::point(vec![Datum::Int(k)]));
        if def.columns.len() == 2 {
            for v in [0, 5, 40] {
                out.push(BoundProbe::point(vec![Datum::Int(k), Datum::Int(v)]));
            }
        }
    }
    out.push(BoundProbe::point(vec![Datum::Null]));
    out.push(BoundProbe {
        eq: vec![],
        lower: Some((Datum::Int(2), true)),
        upper: Some((Datum::Int(5), false)),
    });
    out
}

/// One abstract step of a stream; `pick` selects among the rows live at
/// that point of the stream (modulo their number).
#[derive(Debug, Clone)]
enum Step {
    Insert {
        k: i64,
        v: i64,
    },
    Update {
        pick: usize,
        k: i64,
        v: i64,
    },
    /// Rewrite that leaves the indexed key alone.
    Touch {
        pick: usize,
    },
    Delete {
        pick: usize,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..KEYS, 0i64..50).prop_map(|(k, v)| Step::Insert { k, v }),
        (0usize..64, 0..KEYS, 0i64..50).prop_map(|(pick, k, v)| Step::Update { pick, k, v }),
        (0usize..64).prop_map(|pick| Step::Touch { pick }),
        (0usize..64).prop_map(|pick| Step::Delete { pick }),
    ]
}

/// Turns `steps` into concrete ops against `model`, applying them to the
/// model as it goes — the naive reference. Inserts draw from `fresh`.
fn concretize(
    model: &mut BTreeMap<u64, Row>,
    steps: &[Step],
    mut fresh: impl Iterator<Item = u64>,
) -> Vec<DeltaOp> {
    let mut ops = vec![];
    for step in steps {
        // On a table of several chunks the picks cluster around every
        // half-chunk mark — the rows either side of each chunk boundary.
        let nth = |pick: usize| {
            let n = model.len();
            let pos = match n {
                0 => return None,
                _ if n > CHUNK_ROWS => (pick / 8 * CHUNK_ROWS / 2 + pick % 8).saturating_sub(4),
                _ => pick,
            };
            Some(*model.keys().nth(pos % n).unwrap())
        };
        match *step {
            Step::Insert { k, v } => {
                let row_id = fresh.next().expect("block sized to the stream's inserts");
                let row = vec![key(k), Datum::Int(v), Datum::str(format!("n{row_id}"))];
                model.insert(row_id, row.clone());
                ops.push(DeltaOp::Insert { row_id, row });
            }
            Step::Update { pick, k, v } => {
                if let Some(row_id) = nth(pick) {
                    let row = vec![key(k), Datum::Int(v), model[&row_id][2].clone()];
                    model.insert(row_id, row.clone());
                    ops.push(DeltaOp::Update { row_id, row });
                }
            }
            Step::Touch { pick } => {
                if let Some(row_id) = nth(pick) {
                    let mut row = model[&row_id].clone();
                    row[2] = Datum::str(format!("{}'", row[2]));
                    model.insert(row_id, row.clone());
                    ops.push(DeltaOp::Update { row_id, row });
                }
            }
            Step::Delete { pick } => {
                if let Some(row_id) = nth(pick) {
                    model.remove(&row_id);
                    ops.push(DeltaOp::Delete { row_id });
                }
            }
        }
    }
    ops
}

fn check_against(stores: &Stores, model: &BTreeMap<u64, Row>, what: &str) {
    let want_rows: Vec<Row> = model.values().cloned().collect();
    let want_ids: Vec<u64> = model.keys().copied().collect();
    assert_eq!(stores.mem.rows(), want_rows, "MemTable rows after {what}");
    assert_eq!(stores.mem.row_ids(), want_ids, "MemTable ids after {what}");
    let rel = stores.db.table("t").unwrap();
    assert_eq!(rel.rows(), want_rows, "memdb rows after {what}");
    assert_eq!(rel.row_ids(), want_ids, "memdb ids after {what}");
    // The read surfaces of each store: snapshot slices, the version's
    // chunks, the row scan.
    let (mem, db) = (&stores.mem, &stores.db);
    let drain = |batches| drain_rows(batches).unwrap();
    let memdb_version = rel.txn_snapshot().unwrap();
    for (store, snapshot, version, scanned) in [
        (
            "MemTable",
            mem.scan_snapshot().unwrap().unwrap(),
            mem.txn_snapshot().unwrap(),
            mem.scan().unwrap().collect::<Vec<_>>(),
        ),
        (
            "memdb",
            Arc::clone(&memdb_version) as Arc<dyn RangeScan>,
            memdb_version,
            db.execute(&SqlQuerySpec::scan("t")).unwrap(),
        ),
    ] {
        let n = snapshot.row_count();
        let sliced = drain(Arc::clone(&snapshot).scan_range(1000, 0, n).unwrap());
        assert_eq!(sliced, want_rows, "{store} snapshot after {what}");
        let batches = drain(snapshot.scan_range(1024, 0, n).unwrap());
        assert_eq!(batches, want_rows, "{store} batches after {what}");
        let chunks = version.chunks().flat_map(|(_, cols)| columns_to_rows(cols));
        assert_eq!(
            chunks.collect::<Vec<_>>(),
            want_rows,
            "{store} columns after {what}"
        );
        assert_eq!(scanned, want_rows, "{store} row scan after {what}");
    }
    let access = RowsRef {
        rows: &want_rows,
        arity: 3,
    };
    for def in index_defs() {
        let fresh = IndexData::build(def.clone(), &access).unwrap();
        let live: [Arc<dyn IndexProbe>; 2] = [
            stores.mem.index_probe_snapshot(&def.name).unwrap().unwrap(),
            rel.index_probe_snapshot(&def.name).unwrap().unwrap(),
        ];
        for probe in probes(&def) {
            let want = fresh.probe(&access, &probe);
            for (store, snap) in ["MemTable", "memdb"].iter().zip(&live) {
                assert_eq!(
                    snap.positions(&probe),
                    want,
                    "{store} index {} vs rebuild on {probe:?} after {what}",
                    def.name
                );
            }
        }
    }
}

/// Runs `script` (one op stream per entry) over both stores loaded with
/// `rows` seed rows, checking them against the model after every stream.
fn run_script(rows: i64, script: &[Vec<Step>]) {
    let stores = Stores::new(rows);
    let mut model: BTreeMap<u64, Row> = (0..).zip(seed_rows(rows)).collect();
    // Two writers take turns reserving an id block per stream, in
    // stream order ...
    let blocks: Vec<Vec<u64>> = script
        .iter()
        .map(|steps| {
            let inserts = steps.iter().filter(|s| matches!(s, Step::Insert { .. }));
            let n = inserts.count();
            let start = stores.reserve(n);
            (start..start + n as u64).collect()
        })
        .collect();
    // ... but each pair of streams commits in the opposite order, and
    // odd streams use their block descending.
    let mut order: Vec<usize> = (0..script.len()).collect();
    for pair in order.chunks_mut(2) {
        pair.reverse();
    }
    for s in order {
        let mut block = blocks[s].clone();
        if s % 2 == 1 {
            block.reverse();
        }
        let ops = concretize(&mut model, &script[s], block.into_iter());
        assert!(stores.apply(&ops), "valid stream {s} rejected: {ops:?}");
        check_against(&stores, &model, &format!("stream {s}: {ops:?}"));
    }
}

fn script_strategy() -> impl Strategy<Value = Vec<Vec<Step>>> {
    proptest::collection::vec(proptest::collection::vec(step_strategy(), 1..10), 1..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apply_matches_naive_reference(script in script_strategy()) {
        run_script(SEED_ROWS, &script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn apply_matches_naive_reference_across_chunks(script in script_strategy()) {
        run_script(CHUNKED_ROWS, &script);
    }
}

/// A stream whose last op is invalid leaves rows, ids, the columns, every
/// index and the data version exactly as they were — on both stores.
#[test]
fn invalid_last_op_changes_nothing() {
    let stores = Stores::new(SEED_ROWS);
    let fresh = stores.reserve(1);
    let row = |k: i64| vec![key(k), Datum::Int(k), Datum::str("x")];
    let good = vec![
        DeltaOp::Delete { row_id: 4 },
        DeltaOp::Update {
            row_id: 7,
            row: row(3),
        },
        DeltaOp::Insert {
            row_id: fresh,
            row: row(2),
        },
    ];
    let bad_tails = [
        DeltaOp::Delete { row_id: 999 },
        DeltaOp::Delete { row_id: 4 },
        DeltaOp::Update {
            row_id: 999,
            row: row(1),
        },
        DeltaOp::Update {
            row_id: 4,
            row: row(1),
        },
        DeltaOp::Update {
            row_id: 0,
            row: vec![Datum::Int(1)],
        },
        DeltaOp::Insert {
            row_id: 3,
            row: row(1),
        },
        DeltaOp::Insert {
            row_id: fresh,
            row: row(1),
        },
        DeltaOp::Insert {
            row_id: fresh + 1,
            row: vec![],
        },
    ];
    let before = stores.image();
    for bad in bad_tails {
        let mut ops = good.clone();
        ops.push(bad.clone());
        assert!(!stores.apply(&ops), "{bad:?} must be rejected");
        assert_eq!(stores.image(), before, "{bad:?} changed a store");
    }
    assert!(stores.apply(&good));
    assert_ne!(stores.image(), before);
}
