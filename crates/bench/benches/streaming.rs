//! Streaming benches (paper §7.2): throughput of the tumbling-window
//! aggregate through the engine — `conn.execute`, whose aggregate
//! flushes each window as the stream moves past it — and of the bounded
//! stream-stream join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rcalcite_core::exec::ExecContext;
use rcalcite_streams::{
    generate_orders, join_streams, orders_row_type, ReplayStream, StreamJoinSpec,
};
use std::hint::black_box;
use std::time::Duration;

fn stream_conn(n: usize) -> rcalcite_sql::Connection {
    use rcalcite_core::catalog::{Catalog, Schema};
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "orders",
        ReplayStream::new(orders_row_type(), generate_orders(n, 10, 1_000)),
    );
    catalog.add_schema("sales", s);
    rcalcite_sql::Connection::builder(catalog).build()
}

const TUMBLE_SQL: &str = "SELECT STREAM TUMBLE_END(rowtime, INTERVAL '1' HOUR) AS rowtime, \
    productid, COUNT(*) AS c, SUM(units) AS units FROM orders \
    GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR), productid";

fn bench_tumbling(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming_tumble");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for n in [10_000usize, 50_000] {
        g.throughput(Throughput::Elements(n as u64));
        let conn = stream_conn(n);
        // Cross-check before timing: the streamed rows are the row
        // oracle's on the same plan, in the same order.
        let streamed = conn.execute(TUMBLE_SQL).unwrap().collect().unwrap().rows;
        let plan = conn
            .optimize(&conn.parse_to_rel(TUMBLE_SQL).unwrap())
            .unwrap();
        let mut oracle = ExecContext::new();
        rcalcite_enumerable::register_executors(&mut oracle);
        assert_eq!(
            streamed,
            oracle.execute_collect(&plan).unwrap(),
            "streamed windows differ from the row oracle at {n} events"
        );
        g.bench_with_input(BenchmarkId::new("execute", n), &conn, |b, conn| {
            b.iter(|| black_box(conn.execute(TUMBLE_SQL).unwrap().collect().unwrap()))
        });
    }
    g.finish();
}

fn bench_stream_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_join");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for n in [10_000usize, 50_000] {
        g.throughput(Throughput::Elements(2 * n as u64));
        let orders = generate_orders(n, 20, 1_000);
        let shipments: Vec<_> = orders
            .iter()
            .map(|o| {
                vec![
                    rcalcite_core::datum::Datum::Timestamp(o[0].as_millis().unwrap() + 500_000),
                    o[1].clone(),
                ]
            })
            .collect();
        g.bench_with_input(
            BenchmarkId::new("windowed_1h", n),
            &(orders, shipments),
            |b, (o, s)| {
                b.iter(|| {
                    black_box(
                        join_streams(
                            o,
                            s,
                            StreamJoinSpec {
                                left_time: 0,
                                right_time: 0,
                                left_key: 1,
                                right_key: 1,
                                lower: 0,
                                upper: 3_600_000,
                            },
                        )
                        .unwrap(),
                    )
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_tumbling, bench_stream_join);
criterion_main!(benches);
