//! The prepared-statement front door: [`ConnectionBuilder`] configures a
//! connection (planner settings, plan cache, workers, memory budget) and
//! wires the default enumerable engine; [`PreparedStatement`] compiles SQL with
//! `?` placeholders once and executes it many times with different
//! bindings; [`ResultSet`] is the pull-based cursor both it and
//! [`Connection::execute`] return.
//!
//! This mirrors how the paper's framework is consumed in production —
//! a JDBC/Avatica server prepares statements once and serves many
//! executions, amortizing parse and optimization cost across calls.

use crate::connection::{CachedPlan, Connection, QueryResult};
use crate::validator::check_bindings;
use parking_lot::RwLock;
use rcalcite_core::catalog::Catalog;
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::error::Result;
use rcalcite_core::exec::{BatchOp, Parallelism, RowsOp, DEFAULT_MORSEL_SIZE};
use rcalcite_core::types::{RelType, TypeKind};
use rcalcite_enumerable::EnumerableExecutor;
use std::collections::VecDeque;
use std::sync::Arc;

/// Builds a [`Connection`] with the execution engine wired in;
/// [`Connection::new`] is `builder(catalog).build()`.
///
/// ```
/// # use rcalcite_core::catalog::Catalog;
/// # use rcalcite_sql::Connection;
/// let conn = Connection::builder(Catalog::new()).workers(1).build();
/// ```
pub struct ConnectionBuilder {
    catalog: Arc<Catalog>,
    plan_cache_capacity: Option<usize>,
    interpreter: bool,
    workers: Option<usize>,
    morsel_size: Option<usize>,
    memory_budget: Option<usize>,
}

/// Morsel size forced by the `RCALCITE_TEST_WORKERS` test hook (small,
/// so the threaded exchange paths engage even on small test tables).
const FORCED_TEST_MORSEL_SIZE: usize = 64;

impl ConnectionBuilder {
    pub fn new(catalog: Arc<Catalog>) -> ConnectionBuilder {
        ConnectionBuilder {
            catalog,
            plan_cache_capacity: None,
            interpreter: false,
            workers: None,
            morsel_size: None,
            memory_budget: None,
        }
    }

    /// Number of worker threads the batch engine's exchange operators
    /// may spawn per pipeline (default: the machine's available
    /// parallelism). `1` keeps execution fully serial.
    pub fn workers(mut self, n: usize) -> ConnectionBuilder {
        self.workers = Some(n);
        self
    }

    /// Rows per morsel — the unit of work a parallel worker claims at a
    /// time (default: 4096). Exchanges only engage on inputs of at
    /// least two morsels, so this also acts as the parallelism
    /// threshold.
    pub fn morsel_size(mut self, rows: usize) -> ConnectionBuilder {
        self.morsel_size = Some(rows);
        self
    }

    /// Caps the bytes the batch engine's build-then-stream operators
    /// (hash-join build, aggregation state, sort input) may hold in
    /// memory per query (default: unbounded). When an operator's state
    /// outgrows the budget it degrades to its out-of-core form —
    /// hybrid-hash join, spilled aggregation partials, external merge
    /// sort — producing byte-identical results. The budget must fit at
    /// least one 32 KiB spill page; smaller values fail the query with
    /// an execution error.
    pub fn memory_budget(mut self, bytes: usize) -> ConnectionBuilder {
        self.memory_budget = Some(bytes);
        self
    }

    /// Bounds the compiled-plan LRU (default: 128 entries).
    pub fn plan_cache_capacity(mut self, capacity: usize) -> ConnectionBuilder {
        self.plan_cache_capacity = Some(capacity);
        self
    }

    /// Also registers the batch engine for the logical convention, so
    /// unoptimized plans run on the connection.
    pub fn with_interpreter(mut self) -> ConnectionBuilder {
        self.interpreter = true;
        self
    }

    /// Builds the connection: enumerable implementation rule plus the
    /// batch executor.
    ///
    /// Test hook: when the `RCALCITE_TEST_WORKERS` environment variable
    /// is set and neither [`ConnectionBuilder::workers`] nor
    /// [`ConnectionBuilder::morsel_size`] was called, the worker count
    /// comes from the variable and the morsel size drops to a small
    /// value, forcing the threaded exchange paths even on the small
    /// tables test suites use. CI runs the whole test matrix once under
    /// `RCALCITE_TEST_WORKERS=4`.
    ///
    /// A second hook, `RCALCITE_TEST_MEM_BUDGET` (bytes), bounds the
    /// memory budget the same way when
    /// [`ConnectionBuilder::memory_budget`] was not called, driving the
    /// build operators through their spill paths; CI runs the matrix
    /// under a tiny budget and under budget + workers combined.
    pub fn build(self) -> Connection {
        let mut conn = Connection::bare(self.catalog);
        if let Some(cap) = self.plan_cache_capacity {
            conn.set_plan_cache_capacity(cap);
        }
        let env_workers = std::env::var("RCALCITE_TEST_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok());
        let workers = self.workers.or(env_workers).unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        });
        let morsel_size =
            self.morsel_size
                .unwrap_or(if self.workers.is_none() && env_workers.is_some() {
                    FORCED_TEST_MORSEL_SIZE
                } else {
                    DEFAULT_MORSEL_SIZE
                });
        conn.set_parallelism(Parallelism::new(workers, morsel_size));
        // `RCALCITE_TEST_MEM_BUDGET` was already applied by the fresh
        // context's `Default`; an explicit builder knob wins over it.
        if let Some(bytes) = self.memory_budget {
            conn.set_memory_budget(rcalcite_core::buffer::MemoryBudget::bytes(bytes));
        }
        // Join order comes from the Volcano planner's dynamic-programming
        // seed; commute lets the physical costs pick each join's
        // orientation, e.g. the smaller input on the hash join's build
        // side once ANALYZE has run.
        conn.add_rule(Arc::new(rcalcite_core::rules::JoinCommuteRule));
        conn.add_rule(rcalcite_enumerable::implement_rule());
        conn.register_executor(Arc::new(EnumerableExecutor::new()));
        if self.interpreter {
            conn.register_executor(Arc::new(EnumerableExecutor::interpreter()));
        }
        conn
    }
}

/// A query parsed, validated and optimized once, ready to execute many
/// times with different `?` bindings. Obtained from
/// [`Connection::prepare`].
///
/// If the connection's catalog or configuration changes after
/// preparation (DDL, INSERT, new rules), the statement transparently
/// re-plans on its next execution.
pub struct PreparedStatement<'c> {
    conn: &'c Connection,
    /// Plan-cache key (normalized SQL text).
    key: String,
    /// The current plan; it carries the parsed query, so a stale one
    /// re-compiles without re-parsing.
    plan: RwLock<Arc<CachedPlan>>,
}

impl<'c> PreparedStatement<'c> {
    pub(crate) fn new(
        conn: &'c Connection,
        key: String,
        plan: Arc<CachedPlan>,
    ) -> PreparedStatement<'c> {
        PreparedStatement {
            conn,
            key,
            plan: RwLock::new(plan),
        }
    }

    /// Number of `?` parameters the statement takes.
    pub fn param_count(&self) -> usize {
        self.plan.read().params.len()
    }

    /// Declared type of each parameter (as inferred from its uses).
    pub fn param_types(&self) -> Vec<RelType> {
        self.plan.read().params.clone()
    }

    /// Output column names.
    pub fn columns(&self) -> Vec<String> {
        self.plan.read().columns.clone()
    }

    /// The current plan, re-compiled if the connection moved on since
    /// this statement was prepared (the fast path is one atomic load).
    /// While the connection has an open transaction the statement plans
    /// fresh against the transaction's snapshot on every execution and
    /// the stored plan is left untouched for use after COMMIT/ROLLBACK.
    fn current_plan(&self) -> Result<Arc<CachedPlan>> {
        let plan = self.plan.read().clone();
        if self.conn.in_transaction() {
            return self.conn.plan_for_txn(&plan.query);
        }
        if plan.generation == self.conn.generation() {
            return Ok(plan);
        }
        let fresh = self.conn.replan(&self.key, &plan.query)?;
        *self.plan.write() = fresh.clone();
        Ok(fresh)
    }

    /// Binds parameter values and executes, returning a streaming
    /// cursor. Arity and types are checked against the statement's
    /// parameters; planning is skipped entirely.
    pub fn bind(&self, params: &[Datum]) -> Result<ResultSet> {
        let plan = self.current_plan()?;
        check_bindings(&plan.params, params)?;
        ResultSet::open(self.conn, &plan, params.to_vec())
    }

    /// Binds, executes and materializes — `bind(...)` collected into a
    /// [`QueryResult`].
    pub fn query(&self, params: &[Datum]) -> Result<QueryResult> {
        self.bind(params)?.collect()
    }
}

/// A streaming cursor over query results. Rows are pulled from the
/// executing plan one batch at a time, so `LIMIT 1` over a large table
/// never materializes the table. [`ResultSet::collect`] produces the
/// materialized [`QueryResult`] view.
pub struct ResultSet {
    columns: Vec<String>,
    /// One batch is pulled and buffered at a time.
    batches: BatchOp,
    buf: VecDeque<Row>,
}

impl ResultSet {
    /// A cursor over already-materialized text rows (DDL messages,
    /// EXPLAIN).
    pub(crate) fn materialized(columns: Vec<String>, rows: Vec<Row>) -> ResultSet {
        let kinds = vec![TypeKind::Varchar; columns.len()];
        ResultSet {
            columns,
            batches: Box::new(RowsOp::new(rows, kinds)),
            buf: VecDeque::new(),
        }
    }

    /// Opens a cursor over an optimized plan with the given parameter
    /// bindings. The plan streams through the fused batch engine
    /// whatever executor the connection registered for its convention;
    /// foreign sub-trees still dispatch through the registered
    /// executors.
    pub(crate) fn open(
        conn: &Connection,
        plan: &CachedPlan,
        params: Vec<Datum>,
    ) -> Result<ResultSet> {
        let ctx = conn.exec_context().with_params(params);
        let mut batches = rcalcite_enumerable::execute_batches(&plan.physical, &ctx)?;
        batches.open()?;
        Ok(ResultSet {
            columns: plan.columns.clone(),
            batches,
            buf: VecDeque::new(),
        })
    }

    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The next row, or `None` when the cursor is exhausted. Pulls at
    /// most one batch through the plan per call.
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        while self.buf.is_empty() {
            match self.batches.next()? {
                None => return Ok(None),
                Some(b) => self.buf.extend(b.to_rows()),
            }
        }
        Ok(self.buf.pop_front())
    }

    /// Drains the cursor into a materialized [`QueryResult`].
    pub fn collect(mut self) -> Result<QueryResult> {
        let mut rows = vec![];
        while let Some(r) = self.next_row()? {
            rows.push(r);
        }
        Ok(QueryResult {
            columns: self.columns,
            rows,
        })
    }
}
