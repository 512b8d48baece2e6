//! §7.2 on the batch engine: a streaming `GROUP BY TUMBLE(rowtime, …)`
//! emits each window once the stream's declared order moves past it.
//! A never-ending stream therefore returns rows, one window's groups is
//! all the aggregate holds, and an input that breaks its declared order
//! fails instead of emitting a window twice.

use rcalcite_core::buffer::PAGE_SIZE;
use rcalcite_core::catalog::{Catalog, MemTable, Schema, Statistic, Table};
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::error::Result;
use rcalcite_core::exec::ExecContext;
use rcalcite_core::traits::{Convention, FieldCollation};
use rcalcite_core::types::RowType;
use rcalcite_sql::Connection;
use rcalcite_streams::{generate_orders, orders_row_type, ReplayStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

type Rows = Box<dyn Iterator<Item = Row> + Send>;

/// An Orders stream that declares itself ordered on `rowtime` and yields
/// whatever `scan` makes: the declaration is trusted, not checked.
struct Declared<F>(F);

impl<F: Fn() -> Rows + Send + Sync> Table for Declared<F> {
    fn row_type(&self) -> RowType {
        orders_row_type()
    }

    fn statistic(&self) -> Statistic {
        Statistic::of_rows(1e9).with_collation(vec![FieldCollation::asc(0)])
    }

    fn scan(&self) -> Result<Rows> {
        Ok((self.0)())
    }

    fn convention(&self) -> Convention {
        Convention::none()
    }

    fn is_stream(&self) -> bool {
        true
    }
}

fn connect(orders: Arc<dyn Table>) -> Connection {
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table("orders", orders);
    catalog.add_schema("sales", s);
    Connection::builder(catalog).build()
}

fn order(ms: i64, product: i64, units: i64) -> Row {
    vec![Datum::Timestamp(ms), Datum::Int(product), Datum::Int(units)]
}

/// One event a second, forever (until `stop`), cycling over five
/// products with one unit each.
fn endless(stop: Arc<AtomicBool>) -> Connection {
    connect(Arc::new(Declared(move || -> Rows {
        let stop = Arc::clone(&stop);
        Box::new((0..).map_while(move |i| {
            (!stop.load(Ordering::Relaxed)).then(|| order(i * 1_000, i % 5, 1))
        }))
    })))
}

/// Runs `body` on a thread and waits a bounded time for it. A blocking
/// aggregate would read the never-ending stream forever: on timeout the
/// stream is told to end, and the test fails.
fn within_deadline<T: Send + 'static>(
    body: impl FnOnce(Arc<AtomicBool>) -> T + Send + 'static,
) -> T {
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let flag = Arc::clone(&stop);
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body(flag));
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Err(RecvTimeoutError::Timeout) => {
            stop.store(true, Ordering::Relaxed);
            panic!("the streaming aggregate blocked on a never-ending stream");
        }
        // A result, or a body that panicked: the join re-raises that.
        sent => {
            worker.join().expect("the streaming query panicked");
            sent.expect("the body sent its result before it returned")
        }
    }
}

const TUMBLE_10S: &str = "SELECT STREAM TUMBLE_END(rowtime, INTERVAL '10' SECOND) AS rowtime, \
    productid, COUNT(*) AS c FROM orders \
    GROUP BY TUMBLE(rowtime, INTERVAL '10' SECOND), productid";

/// The first `k` rows the 10-second windows over [`endless`] must give:
/// every product twice a window, products in first-seen order.
fn first_windows(k: usize) -> Vec<Row> {
    (0..k as i64)
        .map(|i| {
            vec![
                Datum::Timestamp((i / 5 + 1) * 10_000),
                Datum::Int(i % 5),
                Datum::Int(2),
            ]
        })
        .collect()
}

#[test]
fn never_ending_stream_cursor_returns() {
    let rows = within_deadline(|stop| {
        let conn = endless(stop);
        let mut cursor = conn.execute(TUMBLE_10S).unwrap();
        let rows: Vec<Row> = (0..12)
            .map(|_| cursor.next_row().unwrap().unwrap())
            .collect();
        drop(cursor);
        rows
    });
    assert_eq!(rows, first_windows(12));
}

#[test]
fn never_ending_stream_with_limit_returns() {
    let rows = within_deadline(|stop| {
        let conn = endless(stop);
        let sql = format!("{TUMBLE_10S} LIMIT 12");
        conn.execute(&sql).unwrap().collect().unwrap().rows
    });
    assert_eq!(rows, first_windows(12));
}

#[test]
fn a_key_that_goes_backwards_is_an_error() {
    // Windows [0 s, 1 s) and [1 s, 2 s) are flushed by the time the
    // 0.5 s event arrives: emitting [0 s, 1 s) again would be wrong.
    let rows = vec![
        order(0, 1, 1),
        order(1_500, 1, 1),
        order(2_500, 1, 1),
        order(500, 1, 1),
        order(3_000, 1, 1),
    ];
    let conn = connect(Arc::new(Declared(move || -> Rows {
        Box::new(rows.clone().into_iter())
    })));
    let err = conn
        .query(
            "SELECT STREAM productid, COUNT(*) FROM orders \
             GROUP BY TUMBLE(rowtime, INTERVAL '1' SECOND), productid",
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.starts_with("execution error"), "{msg}");
    assert!(msg.contains("'rowtime'"), "{msg}");
}

/// Whether running `sql` made the aggregate spill.
fn aggregate_spilled(conn: &Connection, sql: &str) -> bool {
    let before = conn.spill_stats().events().len();
    conn.query(sql).unwrap();
    conn.spill_stats().events()[before..]
        .iter()
        .any(|e| e.op == "aggregate")
}

#[test]
fn one_window_is_resident() {
    // Twenty one-minute windows of 300 products, two events each: 6 000
    // groups in all, 300 in any one window.
    let events = generate_orders(12_000, 300, 100);
    let budget = 4 * PAGE_SIZE;
    let serial = |t: Arc<dyn Table>| {
        let catalog = Catalog::new();
        let s = Schema::new();
        s.add_table("orders", t);
        catalog.add_schema("sales", s);
        Connection::builder(catalog)
            .workers(1)
            .memory_budget(budget)
            .build()
    };
    let cols = "TUMBLE_END(rowtime, INTERVAL '1' MINUTE), productid, COUNT(*), SUM(units) \
                FROM orders";
    let by_window = "GROUP BY TUMBLE(rowtime, INTERVAL '1' MINUTE), productid";
    // Sizing, on a table that declares no order (so the aggregate folds
    // it whole): all the groups overflow the budget, one window's fit.
    let table = serial(MemTable::new(orders_row_type(), events.clone()));
    assert!(aggregate_spilled(
        &table,
        &format!("SELECT {cols} {by_window}")
    ));
    let first_minute =
        format!("SELECT {cols} WHERE rowtime < TIMESTAMP '1970-01-01 00:01:00' {by_window}");
    assert!(!aggregate_spilled(&table, &first_minute));
    // The stream holds one window at a time: nothing spills, and the
    // rows are the row oracle's on the same plan.
    let stream = serial(ReplayStream::new(orders_row_type(), events));
    let sql = format!("SELECT STREAM {cols} {by_window}");
    assert!(!aggregate_spilled(&stream, &sql));
    assert!(stream.memory_budget().peak() > 0);
    let streamed = stream.execute(&sql).unwrap().collect().unwrap().rows;
    let plan = stream
        .optimize(&stream.parse_to_rel(&sql).unwrap())
        .unwrap();
    let mut oracle = ExecContext::new();
    rcalcite_enumerable::register_executors(&mut oracle);
    assert_eq!(streamed, oracle.execute_collect(&plan).unwrap());
    assert_eq!(streamed.len(), 6_000);
}
