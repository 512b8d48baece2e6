//! Streaming SQL (paper §7.2): the STREAM keyword, tumbling-window
//! aggregation via `GROUP BY TUMBLE(...)`, and the validator's
//! monotonicity rule. The tumbling aggregate runs on the batch engine
//! without blocking: the stream is ordered on `rowtime`, so each hourly
//! window is emitted as soon as the first event of the next hour
//! arrives, and the cursor yields rows before the stream ends.
//!
//! Run with: `cargo run --example streaming_analytics`

use rcalcite_core::catalog::{Catalog, Schema};
use rcalcite_sql::Connection;
use rcalcite_streams::{generate_orders, orders_row_type, ReplayStream};

fn main() -> rcalcite_core::error::Result<()> {
    // An Orders stream: one event per second over ~2 hours.
    let events = generate_orders(7200, 5, 1_000);
    let stream = ReplayStream::new(orders_row_type(), events);

    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table("orders", stream);
    catalog.add_schema("sales", s);
    let conn = Connection::builder(catalog).build();

    // 1. The paper's filter query: "SELECT STREAM ... WHERE units > 25".
    let r = conn.query("SELECT STREAM rowtime, productid, units FROM orders WHERE units > 25")?;
    println!(
        "STREAM filter: {} matching events (of {})",
        r.rows.len(),
        7200
    );

    // 2. The paper's tumbling-window aggregate, read through the cursor:
    //    the first hour's rows arrive while the second hour is still
    //    being folded.
    let sql = "SELECT STREAM TUMBLE_END(rowtime, INTERVAL '1' HOUR) AS rowtime, \
               productid, COUNT(*) AS c, SUM(units) AS units \
               FROM orders \
               GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR), productid";
    let mut cursor = conn.execute(sql)?;
    println!("\nTumbling 1h windows, as the cursor yields them:");
    println!("  {}", cursor.columns().join(" | "));
    while let Some(row) = cursor.next_row()? {
        let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
        println!("  {}", cells.join(" | "));
    }

    // 3. A non-monotonic streaming GROUP BY is rejected by the validator:
    //    it could never emit a row.
    let err = conn
        .query("SELECT STREAM productid, COUNT(*) FROM orders GROUP BY productid")
        .unwrap_err();
    println!("\nValidator rejects blocking streaming aggregation:\n  {err}");
    Ok(())
}
