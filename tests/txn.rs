//! Transactions end to end: snapshot isolation over the SQL surface,
//! UPDATE/DELETE (autocommit and explicit BEGIN/COMMIT/ROLLBACK),
//! first-committer-wins conflicts, WAL recovery after simulated crashes
//! and storage faults, and a workers × memory-budget differential for
//! the write path.

use rcalcite_core::catalog::{Catalog, MemTable, RangeScan, Schema, Table};
use rcalcite_core::datum::Datum;
use rcalcite_core::error::{CalciteError, Result as CoreResult};
use rcalcite_core::exec::drain_rows;
use rcalcite_core::txn::DeltaOp;
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use rcalcite_core::wal::{replay, MemWal, WalStorage, WalWriter};
use rcalcite_sql::Connection;
use std::collections::BTreeMap;
use std::sync::Arc;

/// `bank.accounts`: `n` rows of (id, owner, balance) with balance = 100·id.
fn seeded_catalog(n: i64) -> Arc<Catalog> {
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "accounts",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add("owner", TypeKind::Varchar)
                .add("balance", TypeKind::Integer)
                .build(),
            (0..n)
                .map(|i| {
                    vec![
                        Datum::Int(i),
                        Datum::str(format!("owner{i}")),
                        Datum::Int(100 * i),
                    ]
                })
                .collect(),
        ),
    );
    catalog.add_schema("bank", s);
    catalog
}

fn conn(catalog: Arc<Catalog>) -> Connection {
    Connection::builder(catalog).build()
}

fn balance(c: &Connection, id: i64) -> Datum {
    let r = c
        .query(&format!("SELECT balance FROM accounts WHERE id = {id}"))
        .unwrap();
    assert_eq!(r.rows.len(), 1, "expected exactly one row for id {id}");
    r.rows[0][0].clone()
}

fn all_rows(c: &Connection) -> Vec<Vec<Datum>> {
    c.query("SELECT id, owner, balance FROM accounts ORDER BY id")
        .unwrap()
        .rows
}

/// A scan inside a transaction that has written nothing reads the
/// table's own version — no pivot through rows — and, once the
/// transaction writes, its own version with the writes applied.
#[test]
fn unwritten_transaction_scans_the_tables_own_version() {
    let catalog = seeded_catalog(8);
    let tref = catalog.resolve(&["bank", "accounts"]).unwrap();
    let drain = |snapshot: Arc<dyn RangeScan>| {
        let rows = snapshot.row_count();
        drain_rows(snapshot.scan_range(3, 0, rows).unwrap()).unwrap()
    };
    let address = |snapshot: &Arc<dyn RangeScan>| Arc::as_ptr(snapshot) as *const ();

    let mut txn = catalog.txns().begin(std::slice::from_ref(&tref));
    let live = tref.table.scan_snapshot().unwrap().unwrap();
    let before = txn.snapshot_table("bank.accounts").unwrap();
    let pinned = before.scan_snapshot().unwrap().unwrap();
    assert_eq!(pinned.row_count(), 8);
    assert_eq!(
        address(&pinned),
        address(&live),
        "the snapshot table handed out a copy, not the table's version"
    );
    assert_eq!(
        drain(pinned),
        tref.table
            .txn_snapshot()
            .unwrap()
            .into_rows()
            .collect::<Vec<_>>()
    );

    let moved = vec![Datum::Int(3), Datum::str("moved"), Datum::Int(-1)];
    let ops = vec![
        DeltaOp::Update {
            row_id: 3,
            row: moved.clone(),
        },
        DeltaOp::Delete { row_id: 5 },
    ];
    txn.stage("bank.accounts", ops).unwrap();
    let after = txn.snapshot_table("bank.accounts").unwrap();
    let overlay = after.scan_snapshot().unwrap().unwrap();
    assert_eq!(overlay.row_count(), 7, "counted without pivoting");
    let overlay = drain(overlay);
    assert_eq!(overlay.len(), 7);
    assert_eq!(overlay[3], moved);
    assert!(overlay.iter().all(|r| r[0] != Datum::Int(5)));
    assert_eq!(drain(live).len(), 8, "the table itself is untouched");

    // The same through SQL: identical answers in and out of a
    // transaction until it writes, its own writes after.
    let c = conn(catalog.clone());
    let autocommit = all_rows(&c);
    c.query("BEGIN").unwrap();
    assert_eq!(all_rows(&c), autocommit);
    c.query("UPDATE accounts SET balance = 1 WHERE id = 2")
        .unwrap();
    let written = all_rows(&c);
    assert_eq!(written[2][2], Datum::Int(1));
    assert_eq!(written.len(), autocommit.len());
    c.query("ROLLBACK").unwrap();
    assert_eq!(all_rows(&c), autocommit);
}

#[test]
fn update_and_delete_autocommit() {
    let c = conn(seeded_catalog(8));
    let r = c
        .query("UPDATE accounts SET balance = balance + 5 WHERE id < 3")
        .unwrap();
    assert!(r.rows[0][0].to_string().contains("3 rows updated"), "{r:?}");
    assert_eq!(balance(&c, 0), Datum::Int(5));
    assert_eq!(balance(&c, 2), Datum::Int(205));
    assert_eq!(balance(&c, 3), Datum::Int(300));

    let r = c.query("DELETE FROM accounts WHERE id >= 6").unwrap();
    assert!(r.rows[0][0].to_string().contains("2 rows deleted"), "{r:?}");
    let count = c.query("SELECT COUNT(*) AS c FROM accounts").unwrap();
    assert_eq!(count.rows[0][0], Datum::Int(6));

    // No WHERE clause touches every row.
    c.query("UPDATE accounts SET owner = 'everyone'").unwrap();
    let owners = c.query("SELECT DISTINCT owner FROM accounts").unwrap().rows;
    assert_eq!(owners, vec![vec![Datum::str("everyone")]]);
    c.query("DELETE FROM accounts").unwrap();
    let count = c.query("SELECT COUNT(*) AS c FROM accounts").unwrap();
    assert_eq!(count.rows[0][0], Datum::Int(0));
}

#[test]
fn update_assignments_are_validated() {
    let c = conn(seeded_catalog(4));
    // Multiple assignments evaluate against the OLD row.
    c.query("UPDATE accounts SET owner = 'x', balance = balance * 10 WHERE id = 1")
        .unwrap();
    let r = c
        .query("SELECT owner, balance FROM accounts WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::str("x"), Datum::Int(1000)]]);

    let err = c.query("UPDATE accounts SET nope = 1").unwrap_err();
    assert!(err.to_string().contains("no column"), "{err}");
    let err = c
        .query("UPDATE accounts SET balance = 1, balance = 2")
        .unwrap_err();
    assert!(err.to_string().contains("more than once"), "{err}");

    // Assigned expressions are typed against the target column.
    let err = c.query("UPDATE accounts SET balance = 'abc'").unwrap_err();
    assert!(err.to_string().contains("cannot assign VARCHAR"), "{err}");
    let err = c.query("UPDATE accounts SET id = NULL").unwrap_err();
    assert!(err.to_string().contains("NOT NULL"), "{err}");
    // A nullable column accepts NULL; an explicit CAST satisfies the
    // kind check.
    c.query("UPDATE accounts SET owner = NULL WHERE id = 2")
        .unwrap();
    c.query("UPDATE accounts SET balance = CAST('7' AS INTEGER) WHERE id = 2")
        .unwrap();
    assert_eq!(balance(&c, 2), Datum::Int(7));
}

#[test]
fn snapshot_isolation_and_read_own_writes() {
    let catalog = seeded_catalog(8);
    let c1 = conn(catalog.clone());
    let c2 = conn(catalog.clone());

    c1.query("BEGIN").unwrap();
    // A write committed after c1's BEGIN is invisible to c1.
    c2.query("UPDATE accounts SET balance = 999 WHERE id = 0")
        .unwrap();
    assert_eq!(balance(&c1, 0), Datum::Int(0));
    assert_eq!(balance(&c2, 0), Datum::Int(999));

    // c1's staged write is visible to itself only (read-own-writes).
    c1.query("UPDATE accounts SET balance = 111 WHERE id = 1")
        .unwrap();
    assert_eq!(balance(&c1, 1), Datum::Int(111));
    assert_eq!(balance(&c2, 1), Datum::Int(100));

    // Disjoint rows: both commits stand.
    c1.query("COMMIT").unwrap();
    assert_eq!(balance(&c1, 0), Datum::Int(999));
    assert_eq!(balance(&c2, 1), Datum::Int(111));
}

#[test]
fn rollback_discards_staged_writes() {
    let c = conn(seeded_catalog(8));
    c.query("BEGIN").unwrap();
    c.query("DELETE FROM accounts").unwrap();
    let inside = c.query("SELECT COUNT(*) AS c FROM accounts").unwrap();
    assert_eq!(inside.rows[0][0], Datum::Int(0));
    c.query("ROLLBACK").unwrap();
    let after = c.query("SELECT COUNT(*) AS c FROM accounts").unwrap();
    assert_eq!(after.rows[0][0], Datum::Int(8));
}

#[test]
fn transaction_statement_errors() {
    let c = conn(seeded_catalog(2));
    assert!(c.query("COMMIT").is_err());
    assert!(c.query("ROLLBACK").is_err());
    c.query("BEGIN").unwrap();
    let err = c.query("BEGIN").unwrap_err();
    assert!(err.to_string().contains("already in progress"), "{err}");
    c.query("COMMIT").unwrap();
    // START TRANSACTION is the standard spelling of BEGIN.
    c.query("START TRANSACTION").unwrap();
    c.query("ROLLBACK").unwrap();
}

/// The acceptance scenario: two connections interleave UPDATEs to the
/// same row; the second committer aborts with a retryable error, a
/// pre-commit reader sees neither staged write, the loser retries and
/// wins, and the final state survives a simulated crash via WAL replay
/// over the checkpoint image.
#[test]
fn first_committer_wins_retry_and_crash_recovery() {
    let catalog = seeded_catalog(8);
    let checkpoint = seeded_catalog(8);
    let mem = MemWal::default();
    catalog
        .txns()
        .attach_wal(WalWriter::new(Box::new(mem.clone())));

    let c1 = conn(catalog.clone());
    let c2 = conn(catalog.clone());
    let reader = conn(catalog.clone());

    c1.query("BEGIN").unwrap();
    c2.query("BEGIN").unwrap();
    c1.query("UPDATE accounts SET balance = 1000 WHERE id = 2")
        .unwrap();
    c2.query("UPDATE accounts SET balance = 2000 WHERE id = 2")
        .unwrap();
    // Nothing is shared before COMMIT.
    assert_eq!(balance(&reader, 2), Datum::Int(200));

    c1.query("COMMIT").unwrap();
    let err = c2.query("COMMIT").unwrap_err();
    assert!(err.is_retryable(), "{err}");
    assert!(err.to_string().contains("serialization failure"), "{err}");
    assert_eq!(balance(&reader, 2), Datum::Int(1000));

    // The loser retries on a fresh snapshot and now wins.
    c2.query("BEGIN").unwrap();
    c2.query("UPDATE accounts SET balance = 2000 WHERE id = 2")
        .unwrap();
    c2.query("COMMIT").unwrap();
    assert_eq!(balance(&reader, 2), Datum::Int(2000));

    // Crash: the process is gone; all that survives is the log. Replay
    // over the checkpoint reproduces exactly the committed state (the
    // aborted transaction's records are skipped).
    let bytes = mem.handle().lock().clone();
    let report = replay(&bytes, &checkpoint).unwrap();
    assert_eq!(report.txns, 2);
    assert_eq!(report.discarded_bytes, 0);
    let recovered = conn(checkpoint);
    assert_eq!(all_rows(&recovered), all_rows(&reader));
}

#[test]
fn crash_mid_commit_leaves_recoverable_log() {
    let catalog = seeded_catalog(8);
    let checkpoint = seeded_catalog(8);
    let mem = MemWal::default();
    // Transaction 1 writes records 1–3 (Begin, Update, Commit); the
    // injected crash tears transaction 2's Update (record 5) mid-frame.
    catalog
        .txns()
        .attach_wal(WalWriter::new(Box::new(mem.clone())).with_crash_at(5));

    let c = conn(catalog.clone());
    c.query("UPDATE accounts SET balance = 1 WHERE id = 0")
        .unwrap();
    let err = c
        .query("UPDATE accounts SET balance = 2 WHERE id = 1")
        .unwrap_err();
    assert!(err.to_string().contains("crash"), "{err}");
    // The failed commit changed nothing in memory, and the writer stays
    // dead: later commits fail too.
    assert_eq!(balance(&c, 1), Datum::Int(100));
    assert!(c.query("DELETE FROM accounts WHERE id = 7").is_err());

    let bytes = mem.handle().lock().clone();
    let report = replay(&bytes, &checkpoint).unwrap();
    assert_eq!(report.txns, 1);
    assert!(report.discarded_bytes > 0, "torn tail must be discarded");
    let recovered = conn(checkpoint);
    assert_eq!(all_rows(&recovered), all_rows(&c));
}

/// A restarted manager appends to the same log its predecessor wrote.
/// Recovery reports the maxima already in the file; seeding the new
/// manager's counters keeps continued commits from reusing transaction
/// ids, and the full two-incarnation log replays to the live state.
#[test]
fn restart_appends_to_same_log_without_id_collisions() {
    let catalog = seeded_catalog(8);
    let mem = MemWal::default();
    catalog
        .txns()
        .attach_wal(WalWriter::new(Box::new(mem.clone())));
    let c = conn(catalog.clone());
    c.query("UPDATE accounts SET balance = 1 WHERE id = 0")
        .unwrap();
    c.query("UPDATE accounts SET balance = 2 WHERE id = 1")
        .unwrap();

    // "Restart": a fresh catalog and manager recover from the log, seed
    // their clocks past what the file already contains, and attach a
    // writer that keeps appending to it.
    let catalog2 = seeded_catalog(8);
    let bytes = mem.handle().lock().clone();
    let report = replay(&bytes, &catalog2).unwrap();
    assert_eq!(report.txns, 2);
    assert!(report.max_txn_id >= 2, "{report:?}");
    assert!(report.max_commit_ts > 0, "{report:?}");
    catalog2
        .txns()
        .seed_counters(report.max_txn_id, report.max_commit_ts);
    catalog2
        .txns()
        .attach_wal(WalWriter::new(Box::new(mem.clone())));

    let c2 = conn(catalog2.clone());
    c2.query("UPDATE accounts SET balance = 3 WHERE id = 2")
        .unwrap();
    c2.query("DELETE FROM accounts WHERE id = 7").unwrap();

    // The log now spans both incarnations; every transaction id is
    // distinct, and replay over the checkpoint reproduces the live state.
    let bytes = mem.handle().lock().clone();
    let (records, _) = rcalcite_core::wal::read_records(&bytes);
    let mut begin_ids: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            rcalcite_core::wal::WalRecord::Begin { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    begin_ids.sort_unstable();
    let n = begin_ids.len();
    begin_ids.dedup();
    assert_eq!(begin_ids.len(), n, "seeded ids must not repeat");

    let checkpoint = seeded_catalog(8);
    let report = replay(&bytes, &checkpoint).unwrap();
    assert_eq!(report.txns, 4);
    let recovered = conn(checkpoint);
    assert_eq!(all_rows(&recovered), all_rows(&c2));
}

#[test]
fn corrupt_record_truncates_recovery() {
    let catalog = seeded_catalog(8);
    let checkpoint = seeded_catalog(8);
    let mem = MemWal::default();
    catalog
        .txns()
        .attach_wal(WalWriter::new(Box::new(mem.clone())));

    let c = conn(catalog.clone());
    c.query("UPDATE accounts SET balance = 1 WHERE id = 0")
        .unwrap();
    c.query("UPDATE accounts SET balance = 2 WHERE id = 1")
        .unwrap();

    // Flip a payload byte in the log's tail: the checksum rejects the
    // frame and everything from it on, leaving only transaction 1.
    let mut bytes = mem.handle().lock().clone();
    let n = bytes.len();
    bytes[n - 3] ^= 0xff;
    let report = replay(&bytes, &checkpoint).unwrap();
    assert_eq!(report.txns, 1);
    assert!(report.discarded_bytes > 0);
    let recovered = conn(checkpoint);
    assert_eq!(balance(&recovered, 0), Datum::Int(1));
    assert_eq!(balance(&recovered, 1), Datum::Int(100));
}

/// CI's crash-injection hook: with `RCALCITE_TEST_CRASH_AT=<n>` set,
/// every `WalWriter::new` arms itself to tear record `n`. Commit until
/// the crash fires, then prove recovery replays exactly the commits that
/// succeeded. Self-skips when the variable is unset.
#[test]
fn env_crash_injection_recovers_committed_prefix() {
    let Some(n) = std::env::var(rcalcite_core::wal::CRASH_AT_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    else {
        return;
    };
    let catalog = seeded_catalog(8);
    let checkpoint = seeded_catalog(8);
    let mem = MemWal::default();
    // Armed from the environment — no with_crash_at here.
    catalog
        .txns()
        .attach_wal(WalWriter::new(Box::new(mem.clone())));

    let c = conn(catalog.clone());
    let mut committed = 0usize;
    // Each autocommit UPDATE logs 3 records (Begin, Update, Commit), so
    // the crash fires within ceil(n / 3) + 1 statements.
    for i in 0..(n as usize / 3 + 2) {
        let id = i % 8;
        match c.query(&format!(
            "UPDATE accounts SET balance = {i} WHERE id = {id}"
        )) {
            Ok(_) => committed += 1,
            Err(e) => {
                assert!(e.to_string().contains("crash"), "{e}");
                break;
            }
        }
    }
    let bytes = mem.handle().lock().clone();
    let report = replay(&bytes, &checkpoint).unwrap();
    assert_eq!(report.txns, committed, "crash at record {n}");
    let recovered = conn(checkpoint);
    assert_eq!(all_rows(&recovered), all_rows(&c));
}

/// A storage double over a `MemWal` that fails one call: its `n`th
/// append (after writing half the bytes, a torn frame) or its `n`th sync.
struct FaultyWal {
    mem: MemWal,
    tear_append: Option<usize>,
    fail_sync: Option<usize>,
    appends: usize,
    syncs: usize,
}

impl FaultyWal {
    fn new(tear_append: Option<usize>, fail_sync: Option<usize>) -> FaultyWal {
        FaultyWal {
            mem: MemWal::default(),
            tear_append,
            fail_sync,
            appends: 0,
            syncs: 0,
        }
    }
}

impl WalStorage for FaultyWal {
    fn append(&mut self, bytes: &[u8]) -> CoreResult<()> {
        self.appends += 1;
        if self.tear_append == Some(self.appends) {
            self.mem.append(&bytes[..bytes.len() / 2])?;
            return Err(CalciteError::execution("device gone mid-append"));
        }
        self.mem.append(bytes)
    }

    fn sync(&mut self) -> CoreResult<()> {
        self.syncs += 1;
        if self.fail_sync == Some(self.syncs) {
            return Err(CalciteError::execution("fsync reported EIO"));
        }
        self.mem.sync()
    }

    fn contents(&self) -> CoreResult<Vec<u8>> {
        self.mem.contents()
    }
}

/// Four autocommit UPDATEs (balance of id `i` := 1000 + i) over a log
/// whose storage fails once. The failed commit's error says replay
/// decides its outcome, no commit is acknowledged after it, and replay
/// recovers every acknowledged commit and nothing written after the
/// failure.
fn assert_storage_fault_closes_the_log(storage: FaultyWal) {
    let catalog = seeded_catalog(8);
    let log = storage.mem.clone();
    catalog.txns().attach_wal(WalWriter::new(Box::new(storage)));
    let c = conn(catalog);
    let outcomes: Vec<_> = (0..4i64)
        .map(|id| {
            c.query(&format!(
                "UPDATE accounts SET balance = {} WHERE id = {id}",
                1000 + id
            ))
        })
        .collect();
    let failed = outcomes.iter().position(Result::is_err).unwrap();
    assert!(
        outcomes[failed..].iter().all(Result::is_err),
        "a commit was acknowledged after the failed write: {outcomes:?}"
    );
    let checkpoint = seeded_catalog(8);
    replay(&log.handle().lock(), &checkpoint).unwrap();
    let recovered = conn(checkpoint);
    for id in 0..failed as i64 {
        assert_eq!(
            balance(&recovered, id),
            Datum::Int(1000 + id),
            "acknowledged"
        );
    }
    for id in failed as i64 + 1..4 {
        assert_eq!(balance(&recovered, id), Datum::Int(100 * id), "refused");
    }
    let err = outcomes[failed].as_ref().unwrap_err().to_string();
    assert!(
        err.contains("replay decides this commit's outcome"),
        "{err}"
    );
}

/// The fifth append is the second commit's UPDATE record: it tears.
#[test]
fn torn_append_closes_the_log() {
    assert_storage_fault_closes_the_log(FaultyWal::new(Some(5), None));
}

/// The second sync is the second commit's: its record may be durable,
/// so replay, not the failed statement, decides it.
#[test]
fn failed_sync_closes_the_log() {
    assert_storage_fault_closes_the_log(FaultyWal::new(None, Some(2)));
}

#[test]
fn index_maintained_through_update_and_delete() {
    let catalog = seeded_catalog(200);
    let c = conn(catalog.clone());
    c.query("CREATE INDEX acc_bal ON accounts (balance)")
        .unwrap();
    c.query("ANALYZE").unwrap();

    c.query("UPDATE accounts SET balance = 7777 WHERE id = 10")
        .unwrap();
    // Point lookups on the indexed column ride the maintained index.
    let plan = c
        .explain("SELECT id FROM accounts WHERE balance = 7777")
        .unwrap();
    assert!(plan.contains("IndexSeek"), "{plan}");
    let hit = c
        .query("SELECT id FROM accounts WHERE balance = 7777")
        .unwrap();
    assert_eq!(hit.rows, vec![vec![Datum::Int(10)]]);
    let old = c
        .query("SELECT id FROM accounts WHERE balance = 1000")
        .unwrap();
    assert!(old.rows.is_empty(), "old key must leave the index");

    let r = c
        .query("DELETE FROM accounts WHERE balance = 7777")
        .unwrap();
    assert!(r.rows[0][0].to_string().contains("1 rows deleted"), "{r:?}");
    let gone = c
        .query("SELECT id FROM accounts WHERE balance = 7777")
        .unwrap();
    assert!(gone.rows.is_empty());
}

/// Snapshot consistency under concurrent index maintenance: a reader's
/// BEGIN-time version (including its index) is immutable while another
/// connection updates the indexed column underneath it.
#[test]
fn open_snapshot_survives_concurrent_index_maintenance() {
    let catalog = seeded_catalog(200);
    let c1 = conn(catalog.clone());
    let c2 = conn(catalog.clone());
    c1.query("CREATE INDEX acc_bal ON accounts (balance)")
        .unwrap();
    c1.query("ANALYZE").unwrap();

    c1.query("BEGIN").unwrap();
    c2.query("UPDATE accounts SET balance = 7777 WHERE id = 10")
        .unwrap();
    // c1's snapshot index still maps the old key to row 10.
    let old = c1
        .query("SELECT id FROM accounts WHERE balance = 1000")
        .unwrap();
    assert_eq!(old.rows, vec![vec![Datum::Int(10)]]);
    let new = c1
        .query("SELECT id FROM accounts WHERE balance = 7777")
        .unwrap();
    assert!(new.rows.is_empty());
    c1.query("COMMIT").unwrap();
    // Post-commit, c1 sees the live index.
    let new = c1
        .query("SELECT id FROM accounts WHERE balance = 7777")
        .unwrap();
    assert_eq!(new.rows, vec![vec![Datum::Int(10)]]);
}

#[test]
fn explain_dml_renders_locate_subplan() {
    let c = conn(seeded_catalog(200));
    c.query("CREATE INDEX acc_id ON accounts (id)").unwrap();
    c.query("ANALYZE").unwrap();

    let r = c
        .query("EXPLAIN UPDATE accounts SET balance = 0 WHERE id = 3")
        .unwrap();
    let text = r
        .rows
        .iter()
        .map(|row| row[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("Update(bank.accounts"), "{text}");
    assert!(text.contains("set: [balance]"), "{text}");
    assert!(text.contains("-- located rows:"), "{text}");
    assert!(text.contains("IndexSeek"), "{text}");

    let r = c
        .query("EXPLAIN DELETE FROM accounts WHERE id = 3")
        .unwrap();
    let text = r
        .rows
        .iter()
        .map(|row| row[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("Delete(bank.accounts)"), "{text}");
    assert!(text.contains("IndexSeek"), "{text}");

    // And the seek-located write is correct.
    c.query("UPDATE accounts SET balance = 0 WHERE id = 3")
        .unwrap();
    assert_eq!(balance(&c, 3), Datum::Int(0));
}

#[test]
fn insert_inside_transaction_is_isolated() {
    let catalog = seeded_catalog(4);
    let c1 = conn(catalog.clone());
    let c2 = conn(catalog.clone());

    c1.query("BEGIN").unwrap();
    c1.query("INSERT INTO accounts VALUES (100, 'new', 1)")
        .unwrap();
    // INSERT ... SELECT reads through the same snapshot: the staged row
    // is its own source.
    c1.query("INSERT INTO accounts SELECT id + 1000, owner, balance FROM accounts WHERE id = 100")
        .unwrap();
    let mine = c1.query("SELECT COUNT(*) AS c FROM accounts").unwrap();
    assert_eq!(mine.rows[0][0], Datum::Int(6));
    let theirs = c2.query("SELECT COUNT(*) AS c FROM accounts").unwrap();
    assert_eq!(theirs.rows[0][0], Datum::Int(4));

    c1.query("COMMIT").unwrap();
    let theirs = c2.query("SELECT COUNT(*) AS c FROM accounts").unwrap();
    assert_eq!(theirs.rows[0][0], Datum::Int(6));
}

/// The write path must be deterministic across the execution matrix:
/// the same DML script produces byte-identical tables for workers ∈
/// {1, 4} × budget ∈ {32 KiB, unbounded}, compared against a serial
/// unbounded reference.
#[test]
fn dml_differential_across_workers_and_budget() {
    let script = [
        "CREATE INDEX acc_bal ON accounts (balance)",
        "ANALYZE",
        "INSERT INTO accounts SELECT id + 1000, owner, balance + 7 FROM accounts WHERE id < 50",
        "UPDATE accounts SET balance = balance * 2 WHERE balance < 300",
        "UPDATE accounts SET owner = 'rich' WHERE balance = 7007",
        "DELETE FROM accounts WHERE balance > 30000",
        "UPDATE accounts SET balance = balance + 1",
    ];
    let run = |conn: &Connection| {
        for stmt in script {
            conn.query(stmt).unwrap();
        }
        all_rows(conn)
    };
    let reference = {
        let c = Connection::builder(seeded_catalog(400)).workers(1).build();
        run(&c)
    };
    for workers in [1usize, 4] {
        for budget in [Some(32 * 1024), None] {
            let mut b = Connection::builder(seeded_catalog(400)).workers(workers);
            if let Some(bytes) = budget {
                b = b.memory_budget(bytes);
            }
            let c = b.build();
            assert_eq!(run(&c), reference, "workers={workers} budget={budget:?}");
        }
    }
}

/// Read-your-writes through the index path: inside one transaction,
/// statements that follow a write — an UPDATE that moves a row into or
/// out of a later indexed predicate (changing the key column itself
/// included), an INSERT followed by SELECT/UPDATE/DELETE of the new row,
/// a DELETE followed by a SELECT — must see exactly what the same script
/// sees statement by statement in autocommit on an identical catalog,
/// and leave the same table after COMMIT, across workers ∈ {1, 4} ×
/// budget ∈ {32 KiB, unbounded}.
#[test]
fn in_txn_statements_match_committed_ones_across_workers_and_budget() {
    let setup = [
        "CREATE INDEX acc_id ON accounts (id)",
        "CREATE INDEX acc_bal ON accounts (balance)",
        "ANALYZE",
    ];
    let script = [
        // Into a later predicate, by rewriting the indexed key.
        "UPDATE accounts SET balance = 777 WHERE id = 5",
        "SELECT id, owner, balance FROM accounts WHERE balance = 777",
        "SELECT id FROM accounts WHERE balance = 500",
        // Out of one; the mover must not show under its old key.
        "UPDATE accounts SET balance = 778 WHERE balance = 700",
        "SELECT id FROM accounts WHERE balance = 700",
        "SELECT id, balance FROM accounts WHERE balance >= 777 AND balance < 800",
        // The key column of the locating index itself.
        "UPDATE accounts SET id = 9000 WHERE id = 11",
        "SELECT id, balance FROM accounts WHERE id = 9000",
        "SELECT id FROM accounts WHERE id = 11",
        "UPDATE accounts SET owner = 'moved' WHERE id = 9000",
        // A staged insert: read it, rewrite it, find it by its new key.
        "INSERT INTO accounts VALUES (5000, 'new', 123)",
        "SELECT id, owner, balance FROM accounts WHERE id = 5000",
        "UPDATE accounts SET balance = balance + 1 WHERE id = 5000",
        "UPDATE accounts SET balance = balance + 1 WHERE id = 5000",
        "SELECT id FROM accounts WHERE balance = 125",
        "SELECT id FROM accounts WHERE balance = 123",
        "INSERT INTO accounts VALUES (5001, 'gone', 9)",
        "DELETE FROM accounts WHERE id = 5001",
        "SELECT COUNT(*) AS c FROM accounts WHERE id >= 5000",
        // Deletes, by either index.
        "DELETE FROM accounts WHERE id = 20",
        "SELECT id FROM accounts WHERE id = 20",
        "SELECT id FROM accounts WHERE balance = 2000",
        "DELETE FROM accounts WHERE balance = 777",
        "SELECT id FROM accounts WHERE balance = 777",
        "UPDATE accounts SET balance = 0 WHERE id = 20",
        // Ranges, an index join and a full scan over the written view.
        "SELECT id, balance FROM accounts WHERE id >= 395",
        "SELECT a.id, b.id FROM accounts a JOIN accounts b ON a.balance = b.id WHERE a.id < 4",
        "SELECT COUNT(*) AS c, SUM(balance) AS s FROM accounts",
    ];
    type Seen = (Vec<Vec<Vec<Datum>>>, Vec<Vec<Datum>>);
    let run = |conn: &Connection, in_txn: bool| -> Seen {
        for stmt in setup {
            conn.query(stmt).unwrap();
        }
        for stmt in script.iter().filter(|s| !s.starts_with("SELECT")) {
            if !stmt.starts_with("INSERT") {
                let plan = conn.query(&format!("EXPLAIN {stmt}")).unwrap();
                let text: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
                assert!(text.join("\n").contains("IndexSeek"), "{stmt}: {text:?}");
            }
        }
        if in_txn {
            conn.query("BEGIN").unwrap();
        }
        let mut seen = vec![];
        for stmt in script {
            let r = conn.query(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
            if stmt.starts_with("SELECT") {
                seen.push(r.rows);
            }
        }
        if in_txn {
            conn.query("COMMIT").unwrap();
        }
        (seen, all_rows(conn))
    };
    let reference = run(
        &Connection::builder(seeded_catalog(400)).workers(1).build(),
        false,
    );
    assert_eq!(reference.0[0].len(), 1, "the moved-in row is found");
    assert!(
        reference.0[1].is_empty(),
        "... and no longer under its old key"
    );
    assert!(reference.0[2].is_empty(), "the moved-out row is not");
    for workers in [1usize, 4] {
        for budget in [Some(32 * 1024), None] {
            for in_txn in [true, false] {
                let mut b = Connection::builder(seeded_catalog(400)).workers(workers);
                if let Some(bytes) = budget {
                    b = b.memory_budget(bytes);
                }
                let (seen, table) = run(&b.build(), in_txn);
                let what = format!("workers={workers} budget={budget:?} in_txn={in_txn}");
                for (i, (got, want)) in seen.iter().zip(&reference.0).enumerate() {
                    assert_eq!(got, want, "{what}: SELECT #{i}");
                }
                assert_eq!(table, reference.1, "{what}: final table");
            }
        }
    }
}

/// A tiny deterministic generator (xorshift64), so every run of the
/// shadow-model test replays the same interleaving.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound as u64) as usize
    }
}

/// Read-your-writes against a shadow model. One explicit transaction runs
/// a seeded interleaving of INSERT, UPDATE (of the indexed key and of the
/// other columns) and DELETE, rows it inserted itself included, plus one
/// statement that fails partway and so stages nothing. After every
/// statement a full scan, an indexed point seek, an indexed range seek
/// and `COUNT(*)` must equal the model the test keeps: the rows by id.
#[test]
fn read_your_writes_match_a_shadow_model() {
    type Model = BTreeMap<i64, (String, i64)>;
    let n = 400;
    let c = conn(seeded_catalog(n));
    c.query("CREATE INDEX acc_id ON accounts (id)").unwrap();
    c.query("ANALYZE").unwrap();
    let point = |k: i64| format!("SELECT id, owner, balance FROM accounts WHERE id = {k}");
    let range = |lo: i64| {
        let hi = lo + 12;
        format!("SELECT id, owner, balance FROM accounts WHERE id >= {lo} AND id < {hi}")
    };
    for q in [point(7), range(10)] {
        let plan = c.explain(&q).unwrap();
        assert!(plan.contains("IndexSeek"), "{q}: {plan}");
    }
    let rows = |model: &Model, keys: &mut dyn Iterator<Item = i64>| -> Vec<Vec<Datum>> {
        keys.filter_map(|id| {
            let (owner, balance) = model.get(&id)?;
            Some(vec![
                Datum::Int(id),
                Datum::str(owner),
                Datum::Int(*balance),
            ])
        })
        .collect()
    };
    let check = |model: &Model, k: i64, lo: i64, after: &str| {
        assert_eq!(
            all_rows(&c),
            rows(model, &mut model.keys().copied()),
            "full scan after `{after}`"
        );
        let seek = c.query(&point(k)).unwrap().rows;
        assert_eq!(
            seek,
            rows(model, &mut [k].into_iter()),
            "seek {k} after `{after}`"
        );
        let mut seek = c.query(&range(lo)).unwrap().rows;
        seek.sort();
        assert_eq!(
            seek,
            rows(model, &mut (lo..lo + 12)),
            "range {lo} after `{after}`"
        );
        let count = c.query("SELECT COUNT(*) FROM accounts").unwrap().rows;
        assert_eq!(
            count,
            vec![vec![Datum::Int(model.len() as i64)]],
            "count after `{after}`"
        );
    };

    let mut model: Model = (0..n)
        .map(|i| (i, (format!("owner{i}"), 100 * i)))
        .collect();
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    // Fresh ids: inserts from 1000, key rewrites from 5000, so each
    // stays apart from every seeded and every inserted id.
    let (mut inserted, mut moved_to) = (1000i64, 5000i64);
    // Writes that hit a row this transaction inserted, by statement kind.
    let mut on_mine = [0; 6];
    c.query("BEGIN").unwrap();
    for step in 0..150 {
        // Half the targets are rows this transaction inserted.
        let mine: Vec<i64> = model.range(1000..5000).map(|(id, _)| *id).collect();
        let k = if !mine.is_empty() && rng.below(2) == 0 {
            mine[rng.below(mine.len())]
        } else {
            rng.below(n as usize + 10) as i64
        };
        let lo = k - rng.below(6) as i64;
        let (kind, rejected) = (rng.below(6), step == 75);
        if !rejected && (1000..5000).contains(&k) && model.contains_key(&k) {
            on_mine[kind] += 1;
        }
        let stmt = if rejected {
            // Fails on its first row whose balance is not 0, 1 or -1.
            let stmt = format!(
                "UPDATE accounts SET balance = balance * 4611686018427387904 WHERE id >= {lo}"
            );
            let err = c.query(&stmt).unwrap_err();
            assert!(err.to_string().contains("overflow"), "{err}");
            stmt
        } else {
            let stmt = match kind {
                0 | 1 => {
                    let balance = rng.below(1000) as i64;
                    model.insert(inserted, (format!("new{inserted}"), balance));
                    inserted += 1;
                    format!(
                        "INSERT INTO accounts VALUES ({}, 'new{}', {balance})",
                        inserted - 1,
                        inserted - 1
                    )
                }
                2 => {
                    if let Some((owner, balance)) = model.get_mut(&k) {
                        *owner = format!("upd{step}");
                        *balance += 7;
                    }
                    format!(
                        "UPDATE accounts SET balance = balance + 7, owner = 'upd{step}' WHERE id = {k}"
                    )
                }
                3 => {
                    if let Some(row) = model.remove(&k) {
                        model.insert(moved_to, row);
                    }
                    moved_to += 1;
                    format!("UPDATE accounts SET id = {} WHERE id = {k}", moved_to - 1)
                }
                4 => {
                    model.remove(&k);
                    format!("DELETE FROM accounts WHERE id = {k}")
                }
                _ => {
                    for (_, (_, balance)) in model.range_mut(lo..lo + 3) {
                        *balance -= 1;
                    }
                    let hi = lo + 3;
                    format!(
                        "UPDATE accounts SET balance = balance - 1 WHERE id >= {lo} AND id < {hi}"
                    )
                }
            };
            c.query(&stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
            stmt
        };
        check(&model, k, lo, &stmt);
    }
    assert!(on_mine[2..].iter().all(|n| *n > 0), "{on_mine:?}");
    c.query("COMMIT").unwrap();
    assert_eq!(all_rows(&c), rows(&model, &mut model.keys().copied()));
}

/// Two writers reserve row ids in one order and commit in the other.
/// The live table keeps its ids ascending (the late committer's row
/// lands at its id's slot, not the tail), and the log replays to the
/// same physical table: rows, row ids and index answers alike.
#[test]
fn out_of_order_id_commits_replay_to_the_live_layout() {
    let catalog = seeded_catalog(8);
    let checkpoint = seeded_catalog(8);
    let mem = MemWal::default();
    catalog
        .txns()
        .attach_wal(WalWriter::new(Box::new(mem.clone())));
    for c in [&catalog, &checkpoint] {
        conn(c.clone())
            .query("CREATE INDEX acc_id ON accounts (id)")
            .unwrap();
    }
    let c1 = conn(catalog.clone());
    let c2 = conn(catalog.clone());
    c1.query("BEGIN").unwrap();
    c1.query("INSERT INTO accounts VALUES (100, 'first', 1)")
        .unwrap();
    c2.query("BEGIN").unwrap();
    c2.query("INSERT INTO accounts VALUES (200, 'second', 2)")
        .unwrap();
    c2.query("INSERT INTO accounts VALUES (201, 'second', 3)")
        .unwrap();
    c2.query("COMMIT").unwrap();
    c1.query("DELETE FROM accounts WHERE id = 3").unwrap();
    c1.query("COMMIT").unwrap();

    let layout = |catalog: &Arc<Catalog>| {
        let tref = catalog.resolve(&["bank", "accounts"]).unwrap();
        let t = tref.table.txn_snapshot().unwrap();
        let by_index: Vec<Vec<Datum>> = [100, 200, 201, 3]
            .iter()
            .flat_map(|id| {
                conn(catalog.clone())
                    .query(&format!("SELECT id, owner FROM accounts WHERE id = {id}"))
                    .unwrap()
                    .rows
            })
            .collect();
        let row_ids: Vec<u64> = t.row_ids().collect();
        (t.into_rows().collect::<Vec<_>>(), row_ids, by_index)
    };
    let live = layout(&catalog);
    assert_eq!(live.1, vec![0, 1, 2, 4, 5, 6, 7, 8, 9, 10]);
    let ids: Vec<Datum> = live.0.iter().map(|r| r[0].clone()).collect();
    assert_eq!(ids[7..], [100, 200, 201].map(Datum::Int));
    assert_eq!(live.2.len(), 3);

    let bytes = mem.handle().lock().clone();
    let report = replay(&bytes, &checkpoint).unwrap();
    assert_eq!((report.txns, report.discarded_bytes), (2, 0));
    assert_eq!(layout(&checkpoint), live);
}
