//! Transaction-path benches on a 10 k-row indexed table: a mixed
//! read/write workload (4 point SELECTs per single-row UPDATE) with and
//! without a write-ahead log attached, explicit-transaction batch
//! commits, and the snapshot overhead of a read-only transaction — plus
//! `commit_scaling`, the guard that a single-row write costs the same at
//! 1 M rows as at 10 k, whether or not another connection's open
//! transaction pins the version it writes beside, and that a transaction
//! reading after its own UPDATE pays no more than one that has not
//! written.
//!
//! Before timing, the workload is cross-checked: the WAL and no-WAL
//! connections must reach identical table states, the UPDATE must locate
//! through the index seek (not a scan), and replaying the produced log
//! over a checkpoint copy must reproduce the live table exactly.

use criterion::{criterion_group, criterion_main, Criterion};
use rcalcite_core::catalog::{Catalog, MemTable, Schema};
use rcalcite_core::datum::Datum;
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use rcalcite_core::wal::{replay, MemWal, WalWriter};
use rcalcite_sql::Connection;
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: i64 = 10_000;

fn catalog() -> Arc<Catalog> {
    catalog_of(ROWS)
}

fn catalog_of(rows: i64) -> Arc<Catalog> {
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "accounts",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add_not_null("balance", TypeKind::Integer)
                .build(),
            (0..rows)
                .map(|i| vec![Datum::Int(i), Datum::Int(i % 1000)])
                .collect(),
        ),
    );
    catalog.add_schema("bank", s);
    catalog
}

fn indexed_conn(catalog: Arc<Catalog>) -> Connection {
    let c = Connection::builder(catalog).build();
    c.query("CREATE INDEX acc_id ON accounts (id)").unwrap();
    c.query("ANALYZE").unwrap();
    c
}

/// One step of the mixed workload: 4 point reads, then 1 point update.
fn mixed_step(c: &Connection, i: i64) {
    for k in 0..4 {
        let id = (i * 7 + k * 131) % ROWS;
        black_box(
            c.query(&format!("SELECT balance FROM accounts WHERE id = {id}"))
                .unwrap(),
        );
    }
    let id = (i * 13) % ROWS;
    black_box(
        c.query(&format!(
            "UPDATE accounts SET balance = balance + 1 WHERE id = {id}"
        ))
        .unwrap(),
    );
}

fn table_image(c: &Connection) -> Vec<Vec<Datum>> {
    c.query("SELECT id, balance FROM accounts ORDER BY id")
        .unwrap()
        .rows
}

fn bench_txn(c: &mut Criterion) {
    let mut group = c.benchmark_group("txn");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    let plain = indexed_conn(catalog());
    let logged_catalog = catalog();
    let mem = MemWal::default();
    logged_catalog
        .txns()
        .attach_wal(WalWriter::new(Box::new(mem.clone())));
    let logged = indexed_conn(logged_catalog);

    // Cross-checks: the located write is an index seek, both connections
    // converge to the same state, and the log replays to that state.
    let plan = plain
        .query("EXPLAIN UPDATE accounts SET balance = balance + 1 WHERE id = 7")
        .unwrap();
    let plan: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(
        plan.join("\n").contains("IndexSeek"),
        "update must seek:\n{}",
        plan.join("\n")
    );
    for i in 0..100 {
        mixed_step(&plain, i);
        mixed_step(&logged, i);
    }
    assert_eq!(table_image(&plain), table_image(&logged));
    let checkpoint = catalog();
    let bytes = mem.handle().lock().clone();
    let report = replay(&bytes, &checkpoint).unwrap();
    assert_eq!(report.txns, 100, "one committed txn per workload step");
    assert_eq!(
        table_image(&Connection::builder(checkpoint).build()),
        table_image(&logged),
        "replayed state must match the live table"
    );

    let step = Cell::new(0i64);
    group.bench_function("mixed_4r1w/no_wal", |b| {
        b.iter(|| {
            let i = step.get();
            step.set(i + 1);
            mixed_step(&plain, i);
        })
    });
    let step = Cell::new(0i64);
    group.bench_function("mixed_4r1w/wal", |b| {
        b.iter(|| {
            let i = step.get();
            step.set(i + 1);
            mixed_step(&logged, i);
        })
    });

    // Explicit transaction: 16 single-row updates amortize one
    // BEGIN/COMMIT (and, on the logged connection, one WAL sync).
    let step = Cell::new(0i64);
    group.bench_function("commit_batch16/wal", |b| {
        b.iter(|| {
            let base = step.get();
            step.set(base + 16);
            logged.query("BEGIN").unwrap();
            for k in 0..16 {
                let id = (base + k * 389) % ROWS;
                logged
                    .query(&format!(
                        "UPDATE accounts SET balance = balance + 1 WHERE id = {id}"
                    ))
                    .unwrap();
            }
            black_box(logged.query("COMMIT").unwrap());
        })
    });

    // Snapshot overhead: BEGIN + 4 reads + read-only COMMIT.
    let step = Cell::new(0i64);
    group.bench_function("readonly_txn", |b| {
        b.iter(|| {
            let i = step.get();
            step.set(i + 1);
            plain.query("BEGIN").unwrap();
            for k in 0..4 {
                let id = (i * 11 + k * 43) % ROWS;
                black_box(
                    plain
                        .query(&format!("SELECT balance FROM accounts WHERE id = {id}"))
                        .unwrap(),
                );
            }
            plain.query("COMMIT").unwrap();
        })
    });
    group.finish();
}

/// The four single-row write shapes `commit_scaling` times, each its
/// own statement stream over a table of `n` rows: autocommit UPDATE /
/// INSERT / DELETE, and the second UPDATE of an explicit transaction
/// (the statement that reads through the transaction's own write). With
/// a `pin`, a second connection opens a fresh transaction before every
/// timed statement, so each write finds the whole current version
/// shared with a snapshot.
struct WriteShapes {
    conn: Connection,
    pin: Option<Connection>,
    n: i64,
    step: Cell<i64>,
}

impl WriteShapes {
    fn new(n: i64, pinned: bool) -> WriteShapes {
        let catalog = catalog_of(n);
        WriteShapes {
            conn: indexed_conn(catalog.clone()),
            pin: pinned.then(|| Connection::builder(catalog).build()),
            n,
            step: Cell::new(0),
        }
    }

    fn next(&self) -> i64 {
        let i = self.step.get();
        self.step.set(i + 1);
        i
    }

    fn run(&self, sql: &str) {
        black_box(self.conn.query(sql).unwrap());
    }

    /// Re-pins (untimed), then times one statement.
    fn timed(&self, sql: &str) -> Duration {
        if let Some(pin) = &self.pin {
            if pin.in_transaction() {
                pin.query("ROLLBACK").unwrap();
            }
            pin.query("BEGIN").unwrap();
        }
        let t0 = Instant::now();
        self.run(sql);
        t0.elapsed()
    }

    fn update(&self) -> Duration {
        let id = (self.next() * 7919) % self.n;
        self.timed(&format!(
            "UPDATE accounts SET balance = balance + 1 WHERE id = {id}"
        ))
    }

    fn insert(&self) -> Duration {
        let id = self.n + self.next();
        self.timed(&format!("INSERT INTO accounts VALUES ({id}, 0)"))
    }

    /// Deletes walk up from the middle of the table: every one shifts
    /// half of the index permutation.
    fn delete(&self) -> Duration {
        let id = self.n / 2 + self.next();
        self.timed(&format!("DELETE FROM accounts WHERE id = {id}"))
    }

    /// BEGIN, two UPDATEs, COMMIT; returns the time of the second UPDATE.
    fn txn_second_update(&self) -> Duration {
        let i = self.next();
        let (a, b) = ((i * 7919) % self.n, (i * 104_729 + 1) % self.n);
        self.run("BEGIN");
        self.run(&format!(
            "UPDATE accounts SET balance = balance + 1 WHERE id = {a}"
        ));
        let dt = self.timed(&format!(
            "UPDATE accounts SET balance = balance - 1 WHERE id = {b}"
        ));
        self.run("COMMIT");
        dt
    }

    /// BEGIN, one UPDATE if `written`, then `COUNT(*)` and `SUM` over the
    /// table, ROLLBACK; returns the time of the read.
    fn txn_read(&self, written: bool) -> Duration {
        let id = (self.next() * 7919) % self.n;
        self.run("BEGIN");
        if written {
            self.run(&format!(
                "UPDATE accounts SET balance = balance + 1 WHERE id = {id}"
            ));
        }
        let t0 = Instant::now();
        black_box(self.count_and_sum());
        let dt = t0.elapsed();
        self.run("ROLLBACK");
        dt
    }

    /// BEGIN, one INSERT, then a point seek for the new row, ROLLBACK;
    /// returns the time of the seek, whose read applies the INSERT to
    /// the transaction's version.
    fn txn_insert_then_seek(&self) -> Duration {
        let id = self.n + self.next();
        self.run("BEGIN");
        self.run(&format!("INSERT INTO accounts VALUES ({id}, 0)"));
        let t0 = Instant::now();
        let rows = self
            .conn
            .query(&format!("SELECT balance FROM accounts WHERE id = {id}"))
            .unwrap()
            .rows;
        let dt = t0.elapsed();
        assert_eq!(rows, vec![vec![Datum::Int(0)]], "the seek finds the insert");
        self.run("ROLLBACK");
        dt
    }

    fn count_and_sum(&self) -> Vec<Vec<Datum>> {
        self.conn
            .query("SELECT COUNT(*) AS c, SUM(balance) AS s FROM accounts")
            .unwrap()
            .rows
    }
}

/// Median wall time of `reps` runs of `f`.
fn median_of(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let mut samples: Vec<Duration> = (0..reps).map(|_| f()).collect();
    samples.sort();
    samples[reps / 2]
}

fn bench_commit_scaling(c: &mut Criterion) {
    const SMALL: i64 = 10_000;
    const LARGE: i64 = 1_000_000;
    const REPS: usize = 101;
    let small = WriteShapes::new(SMALL, false);
    let large = WriteShapes::new(LARGE, false);
    let small_pinned = WriteShapes::new(SMALL, true);
    let large_pinned = WriteShapes::new(LARGE, true);

    // Cross-checks: every shape seeks, and a round of each leaves the
    // count and sum its statements imply, at both sizes, pinned or not.
    for shapes in [&small, &large, &small_pinned, &large_pinned] {
        for sql in [
            "EXPLAIN UPDATE accounts SET balance = balance + 1 WHERE id = 7",
            "EXPLAIN DELETE FROM accounts WHERE id = 7",
        ] {
            let plan = format!("{:?}", shapes.conn.query(sql).unwrap().rows);
            assert!(plan.contains("IndexSeek"), "{sql} must seek: {plan}");
        }
        let before = shapes.count_and_sum();
        let (count, sum) = (
            before[0][0].as_int().unwrap(),
            before[0][1].as_int().unwrap(),
        );
        shapes.update(); // +1
        shapes.insert(); // +1 row, balance 0
        let deleted = (shapes.n / 2 + shapes.step.get()) % 1000; // balance of the row deleted next
        shapes.delete();
        shapes.txn_second_update(); // +1 -1
        assert_eq!(
            shapes.count_and_sum(),
            vec![vec![Datum::Int(count), Datum::Int(sum + 1 - deleted)]],
            "{} rows",
            shapes.n
        );
    }

    // Medians of two timings, interleaved so a noisy stretch hits both.
    let medians = |a: &dyn Fn() -> Duration, b: &dyn Fn() -> Duration| {
        let (mut xs, mut ys) = (vec![], vec![]);
        for _ in 0..REPS {
            xs.push(a());
            ys.push(b());
        }
        (
            median_of(REPS, || xs.pop().unwrap()),
            median_of(REPS, || ys.pop().unwrap()),
        )
    };
    // The guard: 100× the rows may cost a single-row UPDATE, INSERT or
    // in-transaction second UPDATE at most 3× (they touch O(log n) of
    // the table), and a DELETE — one shift pass over the index — at
    // most 20×. Beside a pinned snapshot the same limits hold for what
    // the version store copies (the spine and one chunk); an INSERT or
    // DELETE there also copies the ordered index's permutation, 8 bytes
    // a row, which is not the store's and gets the DELETE's limit.
    let ratio = |what: &str, limit: f64, pinned: bool, f: &dyn Fn(&WriteShapes) -> Duration| {
        let (small, large) = match pinned {
            true => (&small_pinned, &large_pinned),
            false => (&small, &large),
        };
        let (a, b) = medians(&|| f(small), &|| f(large));
        let r = b.as_secs_f64() / a.as_secs_f64();
        eprintln!("commit_scaling/{what}: {a:?} at {SMALL} rows, {b:?} at {LARGE} rows ({r:.2}x)");
        assert!(
            r <= limit,
            "{what}: {b:?} at {LARGE} rows vs {a:?} at {SMALL} rows is {r:.1}×, limit {limit}×"
        );
    };
    ratio("update", 3.0, false, &|s| s.update());
    ratio("insert", 3.0, false, &|s| s.insert());
    ratio("txn_second_update", 3.0, false, &|s| s.txn_second_update());
    ratio("delete", 20.0, false, &|s| s.delete());
    ratio("pinned/update", 3.0, true, &|s| s.update());
    ratio("pinned/insert", 20.0, true, &|s| s.insert());
    ratio("pinned/txn_second_update", 3.0, true, &|s| {
        s.txn_second_update()
    });
    ratio("pinned/delete", 20.0, true, &|s| s.delete());
    // The first read after an INSERT copies the transaction's ordered
    // permutation once, like an INSERT beside a pin: the same limit.
    ratio("txn_insert_then_seek", 20.0, false, &|s| {
        s.txn_insert_then_seek()
    });
    // A transaction reads its own version: after one UPDATE a full
    // aggregate costs at most 1.2× the same read in a transaction that
    // has not written, at either size (pivoting the table through an
    // overlay made it several times).
    for shapes in [&small, &large] {
        let (clean, written) = medians(&|| shapes.txn_read(false), &|| shapes.txn_read(true));
        let r = written.as_secs_f64() / clean.as_secs_f64();
        let n = shapes.n;
        eprintln!("commit_scaling/txn_read_after_update: {written:?} after an UPDATE, {clean:?} unwritten, at {n} rows ({r:.2}x)");
        assert!(
            r <= 1.2,
            "at {n} rows a read after one UPDATE costs {written:?}, {r:.2}× the {clean:?} it costs unwritten"
        );
    }
    // And a pin itself: at 1 M rows an UPDATE beside one costs at most
    // twice the UPDATE alone (a whole-table copy made it hundreds).
    let (alone, beside) = medians(&|| large.update(), &|| large_pinned.update());
    let r = beside.as_secs_f64() / alone.as_secs_f64();
    eprintln!("commit_scaling/pinned_vs_unpinned_update: {alone:?} alone, {beside:?} beside a pin, at {LARGE} rows ({r:.2}x)");
    assert!(
        r <= 2.0,
        "an UPDATE beside a pinned snapshot costs {beside:?}, {r:.1}× the {alone:?} it costs alone"
    );

    let mut group = c.benchmark_group("commit_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (shapes, name) in [
        (&small, format!("{SMALL}")),
        (&large, format!("{LARGE}")),
        (&large_pinned, format!("{LARGE}_pinned")),
    ] {
        group.bench_function(format!("update/{name}"), |b| b.iter(|| shapes.update()));
        group.bench_function(format!("insert/{name}"), |b| b.iter(|| shapes.insert()));
        group.bench_function(format!("delete/{name}"), |b| b.iter(|| shapes.delete()));
        group.bench_function(format!("txn_2_updates/{name}"), |b| {
            b.iter(|| shapes.txn_second_update())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_txn, bench_commit_scaling);
criterion_main!(benches);
