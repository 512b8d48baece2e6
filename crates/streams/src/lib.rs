//! # rcalcite-streams
//!
//! Streaming support (paper §7.2). The streaming SQL surface lives in
//! `rcalcite-sql`: the STREAM keyword, `TUMBLE`, and the check that a
//! streaming GROUP BY has a monotonic key. The batch engine
//! (`rcalcite-enumerable`) runs such a query without blocking: its
//! aggregate flushes each window once the key moves past it. This crate
//! provides what the engine reads and what it does not run yet:
//!
//! - [`source`] — the replayable, time-ordered stream table and the
//!   paper's Orders workload;
//! - [`join`] — stream-to-stream joins over implicit time windows
//!   (the §7.2 Orders ⋈ Shipments example), with bounded buffers.

pub mod join;
pub mod source;

pub use join::{join_streams, StreamJoinSpec, StreamJoiner};
pub use source::{generate_orders, orders_row_type, ReplayStream};
