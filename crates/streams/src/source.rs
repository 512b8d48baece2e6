//! Stream sources. Calcite "treats streams as time-ordered sets of records
//! or events that are not persisted to the disk" (paper §1). Since the
//! paper's stream producers (Storm/Kafka feeds) are external services, the
//! substitute is a replayable in-process source.

use rcalcite_core::catalog::{Statistic, Table};
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::error::Result;
use rcalcite_core::traits::{Convention, FieldCollation};
use rcalcite_core::types::{RowType, RowTypeBuilder, TypeKind};
use std::sync::Arc;

/// A bounded, replayable stream: scans yield the recorded events in time
/// order. Registered in a catalog it answers both `SELECT STREAM` (new
/// events) and plain relational queries over the history, matching §7.2's
/// dual reading of stream tables.
pub struct ReplayStream {
    row_type: RowType,
    events: Vec<Row>,
}

impl ReplayStream {
    pub fn new(row_type: RowType, mut events: Vec<Row>) -> Arc<ReplayStream> {
        // Events must be time-ordered on column 0.
        events.sort_by(|a, b| a[0].cmp(&b[0]));
        Arc::new(ReplayStream { row_type, events })
    }
}

impl Table for ReplayStream {
    fn row_type(&self) -> RowType {
        self.row_type.clone()
    }

    fn statistic(&self) -> Statistic {
        // Time-ordered: expose the collation on the rowtime column.
        Statistic::of_rows(self.events.len() as f64).with_collation(vec![FieldCollation::asc(0)])
    }

    fn scan(&self) -> Result<Box<dyn Iterator<Item = Row> + Send>> {
        Ok(Box::new(self.events.clone().into_iter()))
    }

    fn convention(&self) -> Convention {
        Convention::none()
    }

    fn is_stream(&self) -> bool {
        true
    }
}

/// The row type of the paper's `Orders` stream:
/// `(rowtime, productId, units)`.
pub fn orders_row_type() -> RowType {
    RowTypeBuilder::new()
        .add_not_null("rowtime", TypeKind::Timestamp)
        .add_not_null("productid", TypeKind::Integer)
        .add_not_null("units", TypeKind::Integer)
        .build()
}

/// Deterministic Orders workload: `n` events, one per `period_ms`,
/// cycling over `products` product ids with varying unit counts.
pub fn generate_orders(n: usize, products: i64, period_ms: i64) -> Vec<Row> {
    (0..n as i64)
        .map(|i| {
            vec![
                Datum::Timestamp(i * period_ms),
                Datum::Int((i * 7 + 3) % products.max(1)),
                Datum::Int((i * 13) % 50 + 1),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_stream_orders_events() {
        let events = vec![
            vec![Datum::Timestamp(30), Datum::Int(1), Datum::Int(1)],
            vec![Datum::Timestamp(10), Datum::Int(2), Datum::Int(2)],
        ];
        let s = ReplayStream::new(orders_row_type(), events);
        let rows: Vec<Row> = s.scan().unwrap().collect();
        assert_eq!(rows[0][0], Datum::Timestamp(10));
        assert!(s.is_stream());
        assert_eq!(s.statistic().collations.len(), 1);
    }

    #[test]
    fn generated_workload_is_deterministic_and_ordered() {
        let a = generate_orders(100, 10, 1000);
        let b = generate_orders(100, 10, 1000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0][0] <= w[1][0]));
        // Product ids stay in range.
        assert!(a.iter().all(|r| (0..10).contains(&r[1].as_int().unwrap())));
    }
}
