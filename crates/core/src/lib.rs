//! # rcalcite-core
//!
//! A from-scratch Rust reproduction of the framework described in
//! *"Apache Calcite: A Foundational Framework for Optimized Query
//! Processing Over Heterogeneous Data Sources"* (SIGMOD 2018).
//!
//! This crate is the planning half of the system: the relational algebra
//! with its trait system (§4), the rule-based optimizer with pluggable
//! metadata providers and cost models, the two planner engines (§6), and
//! the materialized-view machinery. Execution engines and adapters live in
//! sibling crates and plug in through [`exec::ConventionExecutor`] and the
//! rule/converter registries.
//!
//! Layer map (paper section → module):
//!
//! | Paper | Module |
//! |-------|--------|
//! | §3 expression builder | [`builder`] |
//! | §4 algebra, traits     | [`rel`], [`rex`], [`traits`], [`types`] |
//! | §5 adapter SPI         | [`catalog`], [`exec`] |
//! | §6 rules               | [`rules`], [`simplify`] |
//! | §6 metadata providers  | [`metadata`], [`cost`] |
//! | §6 planner engines     | [`planner`] |
//! | §6 materialized views  | [`mv`], [`lattice`], [`ivm`] |

pub mod buffer;
pub mod builder;
pub mod catalog;
pub mod cost;
pub mod datum;
pub mod error;
pub mod exec;
pub mod explain;
pub mod index;
pub mod ivm;
pub mod lattice;
pub mod metadata;
pub mod mv;
pub mod planner;
pub mod rel;
pub mod rex;
pub mod rules;
pub mod simplify;
pub mod stats;
pub mod store;
pub mod traits;
pub mod txn;
pub mod types;
pub mod wal;

pub use buffer::{MemoryBudget, SpillEnv, SpillEvent, SpillTracker, TempFileProvider};
pub use catalog::{Catalog, MemTable, Schema, Statistic, Table, TableRef};
pub use datum::{Datum, Row};
pub use error::{CalciteError, Result};
pub use exec::{ConventionExecutor, ExecContext, RowIter};
pub use index::{BoundProbe, IndexDef, IndexKind, IndexProbe, SeekProbe, SeekSpec};
pub use ivm::{DeltaPlan, IvmRegistry, MaintainedView};
pub use metadata::{MetadataProvider, MetadataQuery};
pub use rel::{Rel, RelKind, RelNode, RelOp};
pub use rex::RexNode;
pub use stats::{ColumnStats, StatsRegistry, TableStats};
pub use traits::Convention;
pub use txn::{DeltaOp, SnapshotTable, Transaction, TxnManager};
pub use types::{RelType, RowType, TypeKind};
pub use wal::{FileWal, MemWal, WalRecord, WalStorage, WalWriter};
