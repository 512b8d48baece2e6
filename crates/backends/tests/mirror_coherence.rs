//! `MemTable`'s chunked version store under updates: whatever chunks a
//! write shared or copied, a columnar scan must equal static evaluation
//! on the current rows. Random interleavings of every write path —
//! `insert`, `apply_delta` (insert / update / delete, id blocks committed
//! out of order) and `replace_all` — with the read surfaces (the
//! `scan_snapshot` slices, whole and by range, the version's chunks and
//! the row `scan`) are checked against `rows()` and a fresh pivot of it
//! after every step, snapshots taken before a write keep serving their
//! version, and scanners racing a writer only ever see one whole
//! committed version — on a nine-row table and on one of more than 2.5
//! chunks, written around its chunk boundaries.

use proptest::prelude::*;
use rcalcite_core::catalog::{MemTable, RangeScan, Table};
use rcalcite_core::datum::{Column, Datum, Row};
use rcalcite_core::exec::drain_rows;
use rcalcite_core::store::CHUNK_ROWS;
use rcalcite_core::txn::DeltaOp;
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const KINDS: [TypeKind; 3] = [TypeKind::Integer, TypeKind::Double, TypeKind::Varchar];
/// A table of more than 2.5 chunks.
const CHUNKED_ROWS: i64 = (CHUNK_ROWS * 5 / 2 + 3) as i64;

fn table(rows: Vec<Row>) -> Arc<MemTable> {
    MemTable::new(
        RowTypeBuilder::new()
            .add("k", TypeKind::Integer)
            .add_not_null("x", TypeKind::Double)
            .add_not_null("tag", TypeKind::Varchar)
            .build(),
        rows,
    )
}

/// Row content as a function of one integer; every seventh key is NULL.
fn row(v: i64) -> Row {
    vec![
        if v % 7 == 0 {
            Datum::Null
        } else {
            Datum::Int(v)
        },
        Datum::Double(v as f64 / 2.0),
        Datum::str(format!("t{v}")),
    ]
}

fn pivot(rows: &[Row]) -> Vec<Column> {
    KINDS
        .iter()
        .enumerate()
        .map(|(i, k)| Column::from_rows(k, rows, i))
        .collect()
}

fn snapshot_rows(snapshot: Arc<dyn RangeScan>, batch_size: usize) -> Vec<Row> {
    let n = snapshot.row_count();
    drain_rows(snapshot.scan_range(batch_size, 0, n).unwrap()).unwrap()
}

/// Every read surface against the row store and a fresh pivot of it.
fn check_scans(t: &MemTable, what: &str) {
    let rows = t.rows();
    let snapshot = t.scan_snapshot().unwrap().unwrap();
    assert_eq!(
        snapshot.row_count(),
        rows.len(),
        "snapshot rows after {what}"
    );
    assert_eq!(
        snapshot_rows(snapshot.clone(), 5),
        rows,
        "snapshot after {what}"
    );
    // A morsel-shaped window of the same snapshot.
    let (start, len) = (rows.len() / 3, rows.len() / 2);
    assert_eq!(
        drain_rows(snapshot.clone().scan_range(4, start, len).unwrap()).unwrap(),
        rows[start..(start + len).min(rows.len())],
        "snapshot range after {what}"
    );
    assert_eq!(snapshot_rows(snapshot, 3), rows, "batches after {what}");
    assert_eq!(
        t.scan().unwrap().collect::<Vec<_>>(),
        rows,
        "row scan after {what}"
    );
    // Chunk by chunk, the typed columns a pivot of those rows builds.
    let version = t.txn_snapshot().unwrap();
    let mut at = 0;
    for (len, columns) in version.chunks() {
        assert_eq!(columns, pivot(&rows[at..at + len]), "chunk after {what}");
        at += len;
    }
    assert_eq!(at, rows.len(), "chunk lengths after {what}");
}

#[derive(Debug, Clone)]
enum Step {
    Insert(i64),
    /// One delta stream: `(kind, pick, value)` triples resolved against
    /// the rows live at that point.
    Delta(Vec<(u8, usize, i64)>),
    ReplaceAll(Vec<i64>),
    /// No write: the next scans read the version the last ones did.
    Rescan,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0i64..100).prop_map(Step::Insert),
        proptest::collection::vec((0u8..3, 0usize..64, 0i64..100), 1..8).prop_map(Step::Delta),
        proptest::collection::vec(0i64..100, 0..12).prop_map(Step::ReplaceAll),
        Just(Step::Rescan),
    ]
}

/// Resolves a delta stream against the live ids. Inserts take their ids
/// from a freshly reserved block, used descending, so a stream's inserts
/// land out of id order (and, across streams, below ids handed out by
/// plain `insert` calls in between).
fn delta_ops(t: &MemTable, spec: &[(u8, usize, i64)]) -> Vec<DeltaOp> {
    let mut live = t.row_ids();
    // On a table of several chunks the picks cluster around every
    // half-chunk mark — the rows either side of each chunk boundary.
    let spread = |pick: usize, n: usize| match n > CHUNK_ROWS {
        true => (pick / 8 * CHUNK_ROWS / 2 + pick % 8).saturating_sub(4) % n,
        false => pick % n,
    };
    let inserts = spec.iter().filter(|(kind, ..)| *kind == 0).count();
    let first = t.reserve_row_ids(inserts).unwrap();
    let mut fresh = (first..first + inserts as u64).rev();
    let mut ops = vec![];
    for &(kind, pick, v) in spec {
        match kind {
            0 => {
                let row_id = fresh.next().unwrap();
                live.push(row_id);
                ops.push(DeltaOp::Insert {
                    row_id,
                    row: row(v),
                });
            }
            _ if live.is_empty() => {}
            1 => ops.push(DeltaOp::Update {
                row_id: live[spread(pick, live.len())],
                row: row(v),
            }),
            _ => ops.push(DeltaOp::Delete {
                row_id: live.swap_remove(spread(pick, live.len())),
            }),
        }
    }
    ops
}

/// Runs `script` over a table loaded with rows `1..=rows`.
fn run_script(rows: i64, script: &[Step]) {
    let t = table((1..=rows).map(row).collect());
    check_scans(&t, "load");
    for (i, step) in script.iter().enumerate() {
        // A reader that opened its scan before the write ...
        let before_rows = t.rows();
        let before = t.scan_snapshot().unwrap().unwrap();
        match step {
            Step::Insert(v) => t.insert(row(*v)),
            Step::Delta(spec) => {
                let ops = delta_ops(&t, spec);
                assert_eq!(t.apply_delta(&ops).unwrap(), ops.len());
            }
            Step::ReplaceAll(vs) => t.replace_all(vs.iter().map(|v| row(*v)).collect()),
            Step::Rescan => {}
        }
        // ... keeps serving the version it opened on,
        assert_eq!(snapshot_rows(before, 4), before_rows);
        // while new scans see the write.
        check_scans(&t, &format!("step {i}: {step:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn columnar_scans_equal_a_fresh_pivot_after_every_step(
        script in proptest::collection::vec(step_strategy(), 1..14)
    ) {
        run_script(9, &script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `ReplaceAll` shrinks the table to a few rows, so the scripts are
    /// short: most steps run against the chunked table.
    #[test]
    fn columnar_scans_equal_a_fresh_pivot_across_chunks(
        script in proptest::collection::vec(step_strategy(), 1..5)
    ) {
        run_script(CHUNKED_ROWS, &script);
    }
}

/// One writer, two scanners. Version `k` of the table holds `base + k`
/// rows all stamped `k`; every write moves the whole table to the next
/// version in one `apply_delta` or `replace_all`. Whatever a scan
/// overlaps, it must observe exactly one such version.
fn race_scanners(base: i64, versions: i64) {
    let version_rows =
        |k: i64| -> Vec<Row> { (0..base + k).map(|_| vec![Datum::Int(k)]).collect() };
    let t = MemTable::new(
        RowTypeBuilder::new()
            .add_not_null("stamp", TypeKind::Integer)
            .build(),
        version_rows(0),
    );
    let start = Barrier::new(3);
    let done = AtomicBool::new(false);
    let check = |rows: Vec<Row>, via: &str| {
        let stamp = rows[0][0].as_int().unwrap();
        assert_eq!(rows.len() as i64, base + stamp, "{via}: torn row count");
        assert!(
            rows.iter().all(|r| r[0] == Datum::Int(stamp)),
            "{via}: rows of two versions in one scan"
        );
        stamp
    };
    std::thread::scope(|s| {
        let scanners: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let (mut scans, mut last) = (0u32, 0);
                    while !done.load(Ordering::SeqCst) || scans < 50 {
                        let snapshot = t.scan_snapshot().unwrap().unwrap();
                        let a = check(snapshot_rows(snapshot, 16), "scan_snapshot");
                        let b = check(t.scan().unwrap().collect(), "scan");
                        // Versions only move forward.
                        assert!(last <= a && a <= b, "{last} {a} {b}");
                        last = b;
                        scans += 1;
                    }
                })
            })
            .collect();
        start.wait();
        for k in 1..=versions {
            if k % 3 == 0 {
                t.replace_all(version_rows(k));
            } else {
                let mut ops: Vec<DeltaOp> = t
                    .row_ids()
                    .into_iter()
                    .map(|row_id| DeltaOp::Update {
                        row_id,
                        row: vec![Datum::Int(k)],
                    })
                    .collect();
                ops.push(DeltaOp::Insert {
                    row_id: t.reserve_row_ids(1).unwrap(),
                    row: vec![Datum::Int(k)],
                });
                t.apply_delta(&ops).unwrap();
            }
        }
        done.store(true, Ordering::SeqCst);
        for scanner in scanners {
            scanner.join().expect("scanner panicked");
        }
    });
    assert_eq!(t.rows(), version_rows(versions));
    let last = t.scan_snapshot().unwrap().unwrap();
    assert_eq!(snapshot_rows(last, 16), version_rows(versions));
}

#[test]
fn racing_scans_observe_whole_committed_versions() {
    race_scanners(40, 120);
}

/// The same race where every version spans several chunks, each of which
/// the writer copies away from the scanners' pins.
#[test]
fn racing_scans_observe_whole_versions_across_chunks() {
    race_scanners(CHUNKED_ROWS, 24);
}
