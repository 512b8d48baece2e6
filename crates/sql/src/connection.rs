//! The embedded connection facade — rcalcite's analogue of Calcite's JDBC
//! driver entry point (Avatica). A `Connection` owns the catalog, function
//! registry, planner configuration and execution context; engines and
//! adapters plug their rules, converters and executors into it.
//!
//! The query surface is prepared-statement shaped, as in Avatica:
//! [`Connection::prepare`] compiles SQL (with `?` placeholders) once into
//! a cached physical plan, and the resulting [`PreparedStatement`] binds
//! values and streams rows many times without re-planning.
//! [`Connection::query`] and [`Connection::execute`] ride the same plan
//! cache.

use crate::ast::{Expr, Query, Select, SelectItem, SetExpr, Stmt, TableExpr};
use crate::converter::{ast_type_to_kind, query_to_rel_with_views};
use crate::parser::parse;
use crate::prepared::{ConnectionBuilder, PreparedStatement, ResultSet};
use crate::validator::collect_plan_params;
use parking_lot::RwLock;
use rcalcite_core::catalog::{Catalog, MemTable, TableRef};
use rcalcite_core::cost::CostModel;
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::error::Result;
use rcalcite_core::exec::{ConventionExecutor, ExecContext};
use rcalcite_core::explain::explain_with_costs;
use rcalcite_core::index::{seek_positions, IndexDef, SeekSpec};
use rcalcite_core::lattice::{Lattice, LatticeRule};
use rcalcite_core::metadata::{MetadataProvider, MetadataQuery};
use rcalcite_core::mv::{Materialization, MaterializedViewRule};
use rcalcite_core::planner::hep::HepPlanner;
use rcalcite_core::planner::volcano::{VolcanoPlanner, VolcanoStats};
use rcalcite_core::planner::PlannerEngine;
use rcalcite_core::rel::{Rel, RelNode, RelOp};
use rcalcite_core::rex::{FunctionRegistry, RexNode};
use rcalcite_core::rules::{default_logical_rules, index_access_rules, Rule};
use rcalcite_core::stats::{analyze_table, StatsMdProvider};
use rcalcite_core::store::Version;
use rcalcite_core::traits::Convention;
use rcalcite_core::txn::{DeltaOp, Transaction};
use rcalcite_core::types::{RelType, TypeKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Result of a query: column names plus materialized rows. This is the
/// thin materialized view of a [`ResultSet`] — `ResultSet::collect()`
/// produces one; use the cursor directly to stream instead.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Formats the result as an aligned text table (for examples/demos).
    pub fn to_table(&self) -> String {
        let width = |s: &str| s.chars().count();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        // Column widths cover the header and every rendered cell, by
        // character count (not bytes, so multi-byte datums stay aligned).
        let arity = cells
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(self.columns.len());
        let mut widths = vec![0usize; arity];
        for (i, c) in self.columns.iter().enumerate() {
            widths[i] = width(c);
        }
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(width(c));
            }
        }
        let pad = |s: &str, w: usize| {
            let mut s = s.to_string();
            s.extend(std::iter::repeat_n(' ', w.saturating_sub(width(&s))));
            s
        };
        let header = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| pad(c, widths[i]))
            .collect::<Vec<_>>()
            .join(" | ");
        // The divider spans the header's character width (falling back to
        // the widest row for headerless results).
        let divider_len =
            width(&header).max(widths.iter().sum::<usize>() + 3 * arity.saturating_sub(1));
        let mut out = header;
        out.push('\n');
        out.push_str(&"-".repeat(divider_len));
        out.push('\n');
        for row in &cells {
            let line = row
                .iter()
                .enumerate()
                .map(|(i, c)| pad(c, widths[i]))
                .collect::<Vec<_>>()
                .join(" | ");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// A query compiled all the way to a physical plan, shared between the
/// plan cache and any prepared statements holding it.
pub(crate) struct CachedPlan {
    /// Output column names (from the logical plan, before physical
    /// rewrites).
    pub columns: Vec<String>,
    /// The optimized physical plan, parameters still unbound.
    pub physical: Rel,
    /// Declared type of each `?` parameter.
    pub params: Vec<RelType>,
    /// Catalog/config generation this plan was compiled under; a bump
    /// (DDL, INSERT, planner reconfiguration) invalidates it.
    pub generation: u64,
    /// The parsed statement, so preparing a cached text skips the lexer
    /// and parser, and a stale plan re-compiles without re-parsing.
    pub query: Arc<Query>,
    /// What the cost-based search spent; EXPLAIN reports a truncated one.
    pub search: VolcanoStats,
}

/// Bounded LRU of compiled plans, keyed by SQL text. Recency is an
/// atomic per-entry counter so cache *hits* — the server-workload hot
/// path — run entirely under the outer read lock.
struct PlanCache {
    capacity: usize,
    tick: AtomicU64,
    entries: HashMap<String, (Arc<CachedPlan>, AtomicU64)>,
}

impl PlanCache {
    /// `capacity` 0 disables caching entirely (every statement re-plans;
    /// the bench baseline).
    fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            tick: AtomicU64::new(0),
            entries: HashMap::new(),
        }
    }

    /// Lookup through a shared reference (read-lock friendly).
    fn get(&self, key: &str) -> Option<Arc<CachedPlan>> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        self.entries.get(key).map(|(plan, used)| {
            used.store(tick, Ordering::Relaxed);
            plan.clone()
        })
    }

    fn insert(&mut self, key: String, plan: Arc<CachedPlan>) {
        if self.capacity == 0 {
            return;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            // Evict the least recently used entry.
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, (plan, AtomicU64::new(tick)));
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// An embedded rcalcite connection.
pub struct Connection {
    catalog: Arc<Catalog>,
    functions: FunctionRegistry,
    exec: ExecContext,
    rules: Vec<Arc<dyn Rule>>,
    converters: Vec<(Convention, Convention)>,
    providers: Vec<Arc<dyn MetadataProvider>>,
    cost_model: Option<Arc<dyn CostModel>>,
    materializations: RwLock<Vec<Materialization>>,
    lattices: Vec<Arc<Lattice>>,
    /// Named views (lowercase) created through DDL; expanded inline.
    views: RwLock<std::collections::HashMap<String, Rel>>,
    /// Compiled plans keyed by SQL text, bounded LRU.
    plan_cache: RwLock<PlanCache>,
    /// The assembled cost-based planners, without and with the
    /// materialized-view substitution rule (see [`Connection::planner`]),
    /// each built once and reused until configuration changes.
    planners: RwLock<[Option<Arc<VolcanoPlanner>>; 2]>,
    /// The heuristic normalization phase, fixed for the connection.
    hep: HepPlanner,
    /// Bumped by DDL/INSERT and planner reconfiguration; cached plans
    /// compiled under an older generation are discarded.
    generation: AtomicU64,
    /// The explicit transaction opened by BEGIN, if any. While set,
    /// queries read through its snapshot (scans are substituted at plan
    /// time) and DML stages into it instead of autocommitting.
    txn: RwLock<Option<Transaction>>,
}

impl Connection {
    /// `Connection::builder(catalog).build()`: the defaults.
    pub fn new(catalog: Arc<Catalog>) -> Connection {
        Connection::builder(catalog).build()
    }

    /// The connection [`ConnectionBuilder::build`] wires the engine into.
    pub(crate) fn bare(catalog: Arc<Catalog>) -> Connection {
        Connection {
            catalog,
            functions: FunctionRegistry::new(),
            exec: ExecContext::new(),
            // The cost-based battery also weighs index access paths; the
            // heuristic phase below runs the logical battery only (index
            // choice is a cost decision, never a forced rewrite).
            rules: {
                let mut rules = default_logical_rules();
                rules.extend(index_access_rules());
                rules
            },
            converters: vec![],
            providers: vec![],
            cost_model: None,
            materializations: RwLock::new(vec![]),
            lattices: vec![],
            views: RwLock::new(std::collections::HashMap::new()),
            plan_cache: RwLock::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)),
            planners: RwLock::new([None, None]),
            hep: HepPlanner::new(default_logical_rules()),
            generation: AtomicU64::new(0),
            txn: RwLock::new(None),
        }
    }

    /// Opens a connection with a chosen plan-cache size, worker count
    /// and memory budget; `build` wires the enumerable implementation
    /// rule and the batch engine.
    pub fn builder(catalog: Arc<Catalog>) -> ConnectionBuilder {
        ConnectionBuilder::new(catalog)
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn functions_mut(&mut self) -> &mut FunctionRegistry {
        // UDF changes alter what SQL means; compiled plans are stale.
        self.invalidate_plans();
        &mut self.functions
    }

    pub fn functions(&self) -> &FunctionRegistry {
        &self.functions
    }

    /// Sets the worker count and morsel size the batch engine's
    /// exchange operators use. Purely an execution-time setting —
    /// compiled plans stay valid. Set through
    /// [`ConnectionBuilder::workers`]/[`ConnectionBuilder::morsel_size`]
    /// normally.
    pub fn set_parallelism(&mut self, p: rcalcite_core::exec::Parallelism) {
        self.exec.set_parallelism(p);
    }

    /// The parallel-execution settings queries run with.
    pub fn parallelism(&self) -> rcalcite_core::exec::Parallelism {
        self.exec.parallelism()
    }

    /// Caps the bytes build-then-stream operators hold in memory before
    /// degrading to their out-of-core forms. Execution-time only —
    /// compiled plans stay valid. Set through
    /// [`ConnectionBuilder::memory_budget`] normally.
    pub fn set_memory_budget(&mut self, budget: rcalcite_core::buffer::MemoryBudget) {
        self.exec.set_memory_budget(budget);
    }

    /// The memory budget queries run under.
    pub fn memory_budget(&self) -> &rcalcite_core::buffer::MemoryBudget {
        self.exec.memory_budget()
    }

    /// The recorder of spill activity (operators spilled, bytes moved)
    /// accumulated across this connection's queries. Tests assert
    /// through it that generous budgets never touch disk.
    pub fn spill_stats(&self) -> &rcalcite_core::buffer::SpillTracker {
        self.exec.spill_tracker()
    }

    /// Registers a planner rule (adapter pushdown, implementation, ...).
    pub fn add_rule(&mut self, rule: Arc<dyn Rule>) {
        self.rules.push(rule);
        self.invalidate_planner();
    }

    /// Registers a convention converter edge.
    pub fn add_converter(&mut self, from: Convention, to: Convention) {
        self.converters.push((from, to));
        self.invalidate_planner();
    }

    /// Registers an executor for a convention.
    pub fn register_executor(&mut self, executor: Arc<dyn ConventionExecutor>) {
        self.exec.register(executor);
    }

    pub fn exec_context(&self) -> &ExecContext {
        &self.exec
    }

    /// Registers a materialization. The defining plan is normalized with
    /// the same heuristic phase queries go through, so the substitution
    /// matcher compares like with like.
    pub fn add_materialization(&self, m: Materialization) {
        let mq = self.metadata_query();
        let (normalized, _) = self.hep.optimize_counted(&m.plan, &mq);
        let mut normalized_m = Materialization::new(m.name, m.table, normalized);
        if let Some(view) = m.maintained {
            // Keep the freshness handle: substitution consults it before
            // serving reads from the view.
            normalized_m = normalized_m.with_maintained(view);
        }
        self.materializations.write().push(normalized_m);
        self.invalidate_planner_shared();
    }

    pub fn add_lattice(&mut self, l: Arc<Lattice>) {
        self.lattices.push(l);
        self.invalidate_planner();
    }

    /// Prepends a metadata provider (consulted before the defaults).
    pub fn add_metadata_provider(&mut self, p: Arc<dyn MetadataProvider>) {
        self.providers.push(p);
        self.invalidate_plans();
    }

    pub fn set_cost_model(&mut self, m: Arc<dyn CostModel>) {
        self.cost_model = Some(m);
        self.invalidate_plans();
    }

    /// Resizes the plan cache (and drops its contents). Capacity 0
    /// disables plan caching: every statement re-plans from scratch.
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        *self.plan_cache.write() = PlanCache::new(capacity);
    }

    /// Number of compiled plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.read().len()
    }

    /// Current catalog/config generation (prepared statements compare
    /// this against their plan's to detect staleness). The connection's
    /// own bumps (local DDL, reconfiguration) add to the catalog's
    /// (maintained views transitioning fresh → stale, MV DDL from any
    /// connection sharing the catalog); both counters are monotonic, so
    /// the sum is a valid staleness stamp.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire) + self.catalog.generation()
    }

    /// Drops every cached plan (DDL, ANALYZE, a write that retires
    /// analyzed statistics, semantic configuration changes).
    fn invalidate_plans(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.plan_cache.write().clear();
    }

    /// Drops cached plans *and* the assembled planner (rule set or
    /// converter topology changed).
    fn invalidate_planner(&mut self) {
        self.invalidate_planner_shared();
    }

    fn invalidate_planner_shared(&self) {
        self.invalidate_plans();
        *self.planners.write() = [None, None];
    }

    pub fn metadata_query(&self) -> MetadataQuery {
        let mut providers = self.providers.clone();
        // ANALYZEd statistics answer after any user-registered providers
        // but before the default heuristics. The provider is pinned to the
        // current generation, so stats retired by DDL/INSERT go silent.
        providers.push(Arc::new(StatsMdProvider::new(
            self.catalog.clone(),
            self.generation(),
        )));
        MetadataQuery::new(
            providers,
            self.cost_model
                .clone()
                .unwrap_or_else(|| Arc::new(rcalcite_core::cost::DefaultCostModel::new())),
            true,
        )
    }

    /// Parses and validates SQL into a logical plan.
    pub fn parse_to_rel(&self, sql: &str) -> Result<Rel> {
        match parse(sql)? {
            Stmt::Query(q) | Stmt::Explain(q) => self.convert(&q),
            other => Err(rcalcite_core::error::CalciteError::validate(format!(
                "not a query: {other:?}"
            ))),
        }
    }

    fn convert(&self, q: &crate::ast::Query) -> Result<Rel> {
        let views = self.views.read();
        query_to_rel_with_views(&self.catalog, &self.functions, &views, q)
    }

    /// Registers a named view (also done by `CREATE VIEW`).
    pub fn add_view(&self, name: impl Into<String>, plan: Rel) {
        self.views
            .write()
            .insert(name.into().to_ascii_lowercase(), plan);
        self.invalidate_plans();
    }

    /// The assembled cost-based planner: rules, lattices, converter edges
    /// and, when `mv`, materialized-view substitution. Built on first use
    /// and reused across statements until the configuration changes —
    /// the planner itself is immutable during optimization, so sharing
    /// it is free.
    ///
    /// Substitution matches scans by table name and a maintained view's
    /// contents track the *latest* commit, so plans that must read an
    /// older version — transaction snapshots — and plans that must read
    /// the base table itself — DML locate plans, REFRESH recomputes (a
    /// view must never read itself) — compile without it.
    fn planner(&self, mv: bool) -> Arc<VolcanoPlanner> {
        if let Some(p) = &self.planners.read()[usize::from(mv)] {
            return p.clone();
        }
        let mut rules = self.rules.clone();
        let mats = self.materializations.read();
        if mv && !mats.is_empty() {
            rules.push(Arc::new(MaterializedViewRule::new(mats.clone())));
        }
        drop(mats);
        if !self.lattices.is_empty() {
            rules.push(Arc::new(LatticeRule::new(self.lattices.clone())));
        }
        let mut planner = VolcanoPlanner::new(rules);
        for (from, to) in &self.converters {
            planner.add_converter(from.clone(), to.clone());
        }
        let planner = Arc::new(planner);
        self.planners.write()[usize::from(mv)] = Some(planner.clone());
        planner
    }

    /// Optimizes a logical plan into an executable plan in the enumerable
    /// convention, using the paper's multi-stage scheme: a heuristic
    /// normalization phase followed by cost-based planning.
    pub fn optimize(&self, logical: &Rel) -> Result<Rel> {
        Ok(self.optimize_with_stats(logical)?.0)
    }

    /// [`Connection::optimize`], also reporting what the cost-based search
    /// spent (memo size, firings, bindings, whether the budget cut it).
    pub fn optimize_with_stats(&self, logical: &Rel) -> Result<(Rel, VolcanoStats)> {
        self.optimize_through(&self.planner(true), logical)
    }

    /// [`Connection::optimize`] without materialized-view substitution.
    fn optimize_no_mv(&self, logical: &Rel) -> Result<Rel> {
        Ok(self.optimize_through(&self.planner(false), logical)?.0)
    }

    fn optimize_through(
        &self,
        planner: &VolcanoPlanner,
        logical: &Rel,
    ) -> Result<(Rel, VolcanoStats)> {
        let mq = self.metadata_query();
        let normalized = self.hep.optimize(logical, &Convention::enumerable(), &mq)?;
        let (plan, _, search) =
            planner.optimize_with_stats(&normalized, &Convention::enumerable(), &mq)?;
        Ok((plan, search))
    }

    // -------------------------------------------------------------
    // Statement surface: prepare / execute / query / explain
    // -------------------------------------------------------------

    /// Compiles a query (with optional `?` placeholders) once: parse,
    /// validate, optimize — served from the plan cache when the same SQL
    /// text was prepared before. The statement then binds values and
    /// executes any number of times without re-planning.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement<'_>> {
        use rcalcite_core::error::CalciteError;
        // A text the cache holds is served before it is lexed: cache keys
        // are query texts, so a hit also proves the text is a query (an
        // EXPLAIN is stored under the text it explains, and never hits).
        let text = normalized_text(sql);
        if let Some(hit) = self.cached_plan(text) {
            return Ok(PreparedStatement::new(self, text.to_string(), hit));
        }
        let q = match parse(sql)? {
            Stmt::Query(q) => Arc::new(q),
            other => {
                return Err(CalciteError::validate(format!(
                    "only queries can be prepared, got {other:?}"
                )))
            }
        };
        let (plan, _) = self.plan_query(text, &q)?;
        Ok(PreparedStatement::new(self, text.to_string(), plan))
    }

    /// The cached plan of `key`, if compiled under the current generation.
    fn cached_plan(&self, key: &str) -> Option<Arc<CachedPlan>> {
        let hit = self.plan_cache.read().get(key)?;
        (hit.generation == self.generation()).then_some(hit)
    }

    /// Compiles `q` under cache key `key`, consulting the plan cache
    /// first. Returns the plan and whether it was served from the cache.
    pub(crate) fn plan_query(&self, key: &str, q: &Arc<Query>) -> Result<(Arc<CachedPlan>, bool)> {
        if let Some(hit) = self.cached_plan(key) {
            return Ok((hit, true));
        }
        let generation = self.generation();
        let logical = self.convert(q)?;
        let columns = logical
            .row_type()
            .fields
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let params = collect_plan_params(&logical);
        let (physical, search) = self.optimize_with_stats(&logical)?;
        let plan = Arc::new(CachedPlan {
            columns,
            physical,
            params,
            generation,
            query: q.clone(),
            search,
        });
        self.plan_cache
            .write()
            .insert(key.to_string(), plan.clone());
        Ok((plan, false))
    }

    /// Re-plans a prepared statement whose plan went stale (DDL or
    /// reconfiguration since it was compiled).
    pub(crate) fn replan(&self, key: &str, q: &Arc<Query>) -> Result<Arc<CachedPlan>> {
        Ok(self.plan_query(key, q)?.0)
    }

    /// Whether an explicit transaction (BEGIN without COMMIT/ROLLBACK) is
    /// open on this connection.
    pub fn in_transaction(&self) -> bool {
        self.txn.read().is_some()
    }

    /// Plans `q` for immediate execution. Outside a transaction this is
    /// the cached [`Connection::plan_query`]; inside one, scans of tables
    /// the transaction covers are replaced with its snapshot (BEGIN-time
    /// version plus this transaction's staged writes) and the plan is
    /// compiled fresh and never cached — it must not outlive the snapshot.
    pub(crate) fn plan_for_execution(
        &self,
        key: &str,
        q: &Arc<Query>,
    ) -> Result<(Arc<CachedPlan>, bool)> {
        if !self.in_transaction() {
            return self.plan_query(key, q);
        }
        Ok((self.plan_for_txn(q)?, false))
    }

    /// Compiles `q` against the open transaction's snapshot (uncached).
    pub(crate) fn plan_for_txn(&self, q: &Arc<Query>) -> Result<Arc<CachedPlan>> {
        let logical = self.convert(q)?;
        let columns = logical
            .row_type()
            .fields
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let params = collect_plan_params(&logical);
        let substituted = self.substitute_txn_scans(&logical);
        // No MV substitution inside a transaction: views track the latest
        // commit, which may postdate this transaction's snapshot.
        let (physical, search) = self.optimize_through(&self.planner(false), &substituted)?;
        Ok(Arc::new(CachedPlan {
            columns,
            physical,
            params,
            generation: self.generation(),
            query: q.clone(),
            search,
        }))
    }

    /// Replaces every scan of a table the open transaction covers with a
    /// table serving the transaction's read view. No-op outside a
    /// transaction; tables without MVCC support keep their live scan.
    fn substitute_txn_scans(&self, plan: &Rel) -> Rel {
        let mut guard = self.txn.write();
        match guard.as_mut() {
            Some(txn) => substitute_scans(plan, txn),
            None => plan.clone(),
        }
    }

    /// Parses, optimizes and executes a statement (query, EXPLAIN, or the
    /// DDL/DML surface of §9's standalone-engine future work), returning a
    /// streaming [`ResultSet`]. Queries ride the plan cache; DDL
    /// invalidates it, DML does not.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        use rcalcite_core::error::CalciteError;
        let message =
            |m: String| ResultSet::materialized(vec!["result".into()], vec![vec![Datum::str(m)]]);
        match parse(sql)? {
            Stmt::Explain(q) => {
                let (text, cached) = self.explain_query(plan_cache_key(sql), &Arc::new(q))?;
                let mut rows: Vec<Row> = vec![vec![Datum::str(self.explain_header(cached))]];
                rows.extend(text.lines().map(|l| vec![Datum::str(l)]));
                Ok(ResultSet::materialized(vec!["PLAN".into()], rows))
            }
            Stmt::Query(q) => {
                let (plan, _) = self.plan_for_execution(plan_cache_key(sql), &Arc::new(q))?;
                if !plan.params.is_empty() {
                    return Err(CalciteError::validate(format!(
                        "statement has {} dynamic parameter(s); use prepare() and bind()",
                        plan.params.len()
                    )));
                }
                ResultSet::open(self, &plan, vec![])
            }
            Stmt::CreateTable { name, columns } => {
                let (schema_name, table_name) = self.split_name(&name)?;
                let schema = self.catalog.schema(&schema_name).ok_or_else(|| {
                    CalciteError::validate(format!("schema '{schema_name}' not found"))
                })?;
                let mut b = rcalcite_core::types::RowTypeBuilder::new();
                for c in &columns {
                    let kind = ast_type_to_kind(&c.ty);
                    b = if c.not_null {
                        b.add_not_null(c.name.clone(), kind)
                    } else {
                        b.add(c.name.clone(), kind)
                    };
                }
                schema.add_table(table_name.clone(), MemTable::new(b.build(), vec![]));
                self.invalidate_plans();
                Ok(message(format!("table {schema_name}.{table_name} created")))
            }
            Stmt::CreateView { name, query } => {
                let plan = self.convert(&query)?;
                reject_params(&plan, "CREATE VIEW")?;
                let key = name.join(".").to_ascii_lowercase();
                self.views.write().insert(key.clone(), plan);
                self.invalidate_plans();
                Ok(message(format!("view {key} created")))
            }
            Stmt::CreateMaterializedView { name, query } => {
                // Compile the definition once into a delta plan; shapes
                // with per-operator maintenance rules stay incrementally
                // up to date from the commit feed, the rest fall back to
                // staleness tracking + REFRESH MATERIALIZED VIEW.
                let plan = self.convert(&query)?;
                reject_params(&plan, "CREATE MATERIALIZED VIEW")?;
                if self.in_transaction() {
                    return Err(CalciteError::unsupported(
                        "CREATE MATERIALIZED VIEW cannot run inside a transaction",
                    ));
                }
                let alias = name.join(".").to_ascii_lowercase();
                let vname = name.last().expect("parsed name").to_ascii_lowercase();
                let qualified = format!("mv.{vname}");
                let schema = self.mv_schema();
                if schema.table(&vname).is_some() {
                    return Err(CalciteError::validate(format!(
                        "materialized view '{vname}' already exists"
                    )));
                }
                let row_type = plan.row_type().clone();
                let txns = self.catalog.txns();
                let (view, n) = match rcalcite_core::DeltaPlan::compile(&plan) {
                    Ok(mut delta) => {
                        // Populate the storage and subscribe to the commit
                        // feed atomically: under the commit lock no
                        // transaction can apply between init's snapshots
                        // and the registration.
                        txns.with_commit_lock(
                            || -> Result<(Arc<rcalcite_core::MaintainedView>, usize)> {
                                let rows = delta.init()?;
                                let n = rows.len();
                                let storage = MemTable::new(row_type.clone(), rows);
                                schema.add_table(vname.clone(), storage.clone());
                                let view = rcalcite_core::MaintainedView::new_maintained(
                                    "mv",
                                    &vname,
                                    storage,
                                    plan.clone(),
                                    delta,
                                );
                                self.catalog.ivm().register(view.clone());
                                Ok((view, n))
                            },
                        )?
                    }
                    Err(unsupported) => {
                        // No maintenance rule for this shape: run the
                        // definition once and track staleness through base
                        // versions. Versions are captured before execution
                        // so a racing commit makes the view stale, never
                        // silently wrong.
                        let versions =
                            txns.with_commit_lock(|| rcalcite_core::ivm::base_versions(&plan));
                        let physical = self.optimize_no_mv(&plan)?;
                        let rows = self.exec.execute_collect(&physical)?;
                        let n = rows.len();
                        let storage = MemTable::new(row_type.clone(), rows);
                        schema.add_table(vname.clone(), storage.clone());
                        let view = rcalcite_core::MaintainedView::new_refresh_only(
                            "mv",
                            &vname,
                            storage,
                            plan.clone(),
                            unsupported.to_string(),
                            versions,
                        );
                        self.catalog.ivm().register(view.clone());
                        (view, n)
                    }
                };
                self.views
                    .write()
                    .insert(alias, rcalcite_core::rel::scan(view.table.clone()));
                // Registered through add_materialization so the defining
                // plan is normalized; the rebuilt planner picks it up on
                // the next optimize call.
                self.add_materialization(
                    rcalcite_core::mv::Materialization::new(
                        qualified.clone(),
                        view.table.clone(),
                        plan,
                    )
                    .with_maintained(view.clone()),
                );
                self.catalog.bump_generation();
                let how = match view.unsupported_reason() {
                    None => "incrementally maintained".to_string(),
                    Some(r) => format!("refresh-only: {r}"),
                };
                Ok(message(format!(
                    "materialized view {qualified} created ({n} rows, {how})"
                )))
            }
            Stmt::DropMaterializedView { name, if_exists } => {
                let alias = name.join(".").to_ascii_lowercase();
                let vname = name.last().expect("parsed name").to_ascii_lowercase();
                let qualified = format!("mv.{vname}");
                let existed = self.catalog.ivm().unregister(&qualified);
                if !existed && !if_exists {
                    return Err(CalciteError::validate(format!(
                        "materialized view '{vname}' not found"
                    )));
                }
                if existed {
                    let mut views = self.views.write();
                    views.remove(&alias);
                    views.remove(&vname);
                    drop(views);
                    self.materializations
                        .write()
                        .retain(|m| m.name != qualified);
                    if let Some(s) = self.catalog.schema("mv") {
                        s.remove_table(&vname);
                    }
                    self.catalog.stats().retire(&qualified);
                    self.catalog.bump_generation();
                    self.invalidate_planner_shared();
                }
                Ok(message(format!(
                    "materialized view {qualified} {}",
                    if existed { "dropped" } else { "did not exist" }
                )))
            }
            Stmt::RefreshMaterializedView { name } => {
                let vname = name.last().expect("parsed name").to_ascii_lowercase();
                let qualified = format!("mv.{vname}");
                let view = self.catalog.ivm().get(&qualified).ok_or_else(|| {
                    CalciteError::validate(format!("materialized view '{vname}' not found"))
                })?;
                if self.in_transaction() {
                    return Err(CalciteError::unsupported(
                        "REFRESH MATERIALIZED VIEW cannot run inside a transaction",
                    ));
                }
                let txns = self.catalog.txns();
                if view.is_maintained() {
                    txns.with_commit_lock(|| view.refresh_maintained())?;
                } else {
                    // Full recompute. Versions are captured before the
                    // defining query runs, so a commit racing the
                    // recompute leaves the view stale, never wrong; the
                    // swap runs under the commit lock so maintenance
                    // passes never observe a half-replaced table.
                    let versions = txns.with_commit_lock(|| view.capture_versions());
                    let physical = self.optimize_no_mv(&view.plan)?;
                    let rows = self.exec.execute_collect(&physical)?;
                    txns.with_commit_lock(|| view.complete_refresh(rows, versions));
                }
                self.catalog.stats().retire(&qualified);
                self.catalog.bump_generation();
                self.invalidate_plans();
                Ok(message(format!("materialized view {qualified} refreshed")))
            }
            Stmt::Insert { table, source } => {
                let (schema_name, table_name) = self.split_name(&table)?;
                let tref = self.catalog.resolve(&[&schema_name, &table_name])?;
                let plan = self.convert(&source)?;
                reject_params(&plan, "INSERT")?;
                let arity = tref.table.row_type().arity();
                if plan.row_type().arity() != arity {
                    return Err(CalciteError::validate(format!(
                        "INSERT arity mismatch: table has {arity} columns, query produces {}",
                        plan.row_type().arity()
                    )));
                }
                // Only MVCC-capable tables take rows: the write is
                // WAL-logged and joins the open transaction if one is
                // active.
                if tref.table.txn_snapshot().is_none() {
                    return Err(CalciteError::unsupported(format!(
                        "INSERT is only supported on built-in tables, not '{}'",
                        tref.qualified_name()
                    )));
                }
                // The source query reads through the open transaction's
                // snapshot, so INSERT INTO t SELECT ... FROM t sees this
                // transaction's staged rows, not other writers'. Inside a
                // transaction MV substitution is disabled for the same
                // reason as queries: the view postdates the snapshot.
                // The snapshot plans are scoped to the read: they pin the
                // transaction's version, and released, the next read
                // applies the rows staged below to it in place.
                let rows = {
                    let substituted = self.substitute_txn_scans(&plan);
                    let physical = if self.in_transaction() {
                        self.optimize_no_mv(&substituted)?
                    } else {
                        self.optimize(&substituted)?
                    };
                    self.exec.execute_collect(&physical)?
                };
                let n = rows.len();
                let start = tref.table.reserve_row_ids(n)?;
                let ops = rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, row)| DeltaOp::Insert {
                        row_id: start + i as u64,
                        row,
                    })
                    .collect();
                self.stage_or_autocommit(&tref, |_| Ok(ops))?;
                Ok(message(format!("{n} rows inserted")))
            }
            Stmt::DropTable { name, if_exists } => {
                let (schema_name, table_name) = self.split_name(&name)?;
                let schema = self.catalog.schema(&schema_name).ok_or_else(|| {
                    CalciteError::validate(format!("schema '{schema_name}' not found"))
                })?;
                let existed = schema.remove_table(&table_name);
                if !existed && !if_exists {
                    return Err(CalciteError::validate(format!(
                        "table '{schema_name}.{table_name}' not found"
                    )));
                }
                self.catalog
                    .stats()
                    .retire(&format!("{schema_name}.{table_name}"));
                self.invalidate_plans();
                Ok(message(format!(
                    "table {schema_name}.{table_name} {}",
                    if existed { "dropped" } else { "did not exist" }
                )))
            }
            Stmt::CreateIndex {
                name,
                table,
                columns,
                hash,
            } => {
                let (schema_name, table_name) = self.split_name(&table)?;
                let tref = self.catalog.resolve(&[&schema_name, &table_name])?;
                let rt = tref.table.row_type();
                let mut cols = vec![];
                for c in &columns {
                    let i = rt.field_index(c).ok_or_else(|| {
                        CalciteError::validate(format!(
                            "no column '{c}' on table '{}'",
                            tref.qualified_name()
                        ))
                    })?;
                    cols.push(i);
                }
                let def = if hash {
                    rcalcite_core::IndexDef::hash(name.clone(), cols)
                } else {
                    rcalcite_core::IndexDef::ordered(name.clone(), cols)
                };
                if !tref.table.create_index(&def)? {
                    return Err(CalciteError::unsupported(format!(
                        "table '{}' does not support indexes",
                        tref.qualified_name()
                    )));
                }
                // A new access path exists: compiled plans must re-plan
                // to see it (the data — and its statistics — are
                // unchanged).
                self.invalidate_plans();
                Ok(message(format!(
                    "index {name} created on {schema_name}.{table_name}"
                )))
            }
            Stmt::DropIndex {
                name,
                table,
                if_exists,
            } => {
                let targets: Vec<TableRef> = match &table {
                    Some(parts) => {
                        let (s, t) = self.split_name(parts)?;
                        vec![self.catalog.resolve(&[&s, &t])?]
                    }
                    None => {
                        // No ON clause: search every table for the index.
                        let mut all = vec![];
                        for s in self.catalog.schema_names() {
                            let schema = self.catalog.schema(&s).expect("listed schema");
                            for t in schema.table_names() {
                                let tref = self.catalog.resolve(&[&s, &t])?;
                                if tref.table.indexes().iter().any(|d| d.name == name) {
                                    all.push(tref);
                                }
                            }
                        }
                        all
                    }
                };
                let mut dropped = false;
                for tref in &targets {
                    dropped |= tref.table.drop_index(&name)?;
                }
                if !dropped && !if_exists {
                    return Err(CalciteError::validate(format!("index '{name}' not found")));
                }
                // The access path is gone; plans that seek it must
                // re-plan back to scans.
                self.invalidate_plans();
                Ok(message(format!(
                    "index {name} {}",
                    if dropped { "dropped" } else { "did not exist" }
                )))
            }
            Stmt::Analyze { name } => {
                let targets: Vec<TableRef> = match &name {
                    Some(parts) => {
                        let (s, t) = self.split_name(parts)?;
                        vec![self.catalog.resolve(&[&s, &t])?]
                    }
                    None => {
                        let mut all = vec![];
                        for s in self.catalog.schema_names() {
                            let schema = self.catalog.schema(&s).expect("listed schema");
                            for t in schema.table_names() {
                                all.push(self.catalog.resolve(&[&s, &t])?);
                            }
                        }
                        all
                    }
                };
                // Fresh statistics change cost comparisons, so cached plans
                // are retired first; the new snapshot is stamped with the
                // post-bump generation and stays live until the next
                // DDL/INSERT retires it the same way.
                self.invalidate_plans();
                let generation = self.generation();
                let n = targets.len();
                for tref in targets {
                    let stats = analyze_table(tref.table.as_ref())?;
                    self.catalog
                        .stats()
                        .put(tref.qualified_name(), generation, Arc::new(stats));
                }
                Ok(message(format!("analyzed {n} table(s)")))
            }
            Stmt::Update {
                table,
                assignments,
                selection,
            } => {
                let n = self.execute_dml(&table, Some(&assignments), selection.as_ref())?;
                Ok(message(format!("{n} rows updated")))
            }
            Stmt::Delete { table, selection } => {
                let n = self.execute_dml(&table, None, selection.as_ref())?;
                Ok(message(format!("{n} rows deleted")))
            }
            Stmt::ExplainDml(inner) => {
                let (table, selection) = match inner.as_ref() {
                    Stmt::Update {
                        table, selection, ..
                    }
                    | Stmt::Delete { table, selection } => (table, selection),
                    other => {
                        return Err(CalciteError::validate(format!("cannot EXPLAIN {other:?}")))
                    }
                };
                let (schema_name, table_name) = self.split_name(table)?;
                let qualified = format!("{schema_name}.{table_name}");
                let (header, what) = match inner.as_ref() {
                    Stmt::Update { assignments, .. } => {
                        let cols: Vec<String> =
                            assignments.iter().map(|(c, _)| c.clone()).collect();
                        (
                            format!("Update({qualified}, set: [{}])", cols.join(", ")),
                            "UPDATE",
                        )
                    }
                    _ => (format!("Delete({qualified})"), "DELETE"),
                };
                let (_, physical) = self.dml_locate_plan(table, selection.as_ref(), what)?;
                let mq = self.metadata_query();
                let mut rows: Vec<Row> = vec![vec![Datum::str(header)]];
                rows.push(vec![Datum::str("-- located rows:")]);
                for line in explain_with_costs(&physical, &mq).lines() {
                    rows.push(vec![Datum::str(line)]);
                }
                Ok(ResultSet::materialized(vec!["PLAN".into()], rows))
            }
            Stmt::Begin => {
                let mut guard = self.txn.write();
                if guard.is_some() {
                    return Err(CalciteError::validate(
                        "a transaction is already in progress",
                    ));
                }
                let txn = self.catalog.txns().begin(&self.catalog.all_tables());
                let msg = format!("transaction {} started", txn.id());
                *guard = Some(txn);
                Ok(message(msg))
            }
            Stmt::Commit => {
                let txn = self
                    .txn
                    .write()
                    .take()
                    .ok_or_else(|| CalciteError::validate("no transaction in progress"))?;
                let written = txn.written_tables();
                // commit() consumes the handle: win or lose the
                // first-committer-wins check, the transaction is finished
                // and the connection leaves transaction mode. A conflict
                // surfaces as a retryable error; the caller re-BEGINs.
                let commit_ts = txn.commit()?;
                self.retire_stats(&written);
                Ok(message(format!("transaction committed at ts {commit_ts}")))
            }
            Stmt::Rollback => {
                let txn = self
                    .txn
                    .write()
                    .take()
                    .ok_or_else(|| CalciteError::validate("no transaction in progress"))?;
                txn.rollback();
                Ok(message("transaction rolled back".to_string()))
            }
        }
    }

    /// Parses, optimizes and executes a statement, materializing the
    /// result — [`Connection::execute`] collected into a [`QueryResult`].
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.execute(sql)?.collect()
    }

    // -------------------------------------------------------------
    // DML: UPDATE / DELETE / transactional INSERT
    // -------------------------------------------------------------

    /// The located-rows subplan of a DML statement: `SELECT * FROM t
    /// [WHERE ...]` planned through the normal pipeline, so the
    /// cost-based choice between a full scan and an index seek applies
    /// to writes too. Returns (logical, physical).
    fn dml_locate_plan(
        &self,
        table: &[String],
        selection: Option<&Expr>,
        what: &str,
    ) -> Result<(Rel, Rel)> {
        let q = Query {
            body: SetExpr::Select(Box::new(Select {
                stream: false,
                distinct: false,
                items: vec![SelectItem::Wildcard],
                from: Some(TableExpr::Table {
                    name: table.to_vec(),
                    alias: None,
                }),
                selection: selection.cloned(),
                group_by: vec![],
                having: None,
            })),
            order_by: vec![],
            offset: None,
            limit: None,
        };
        let logical = self.convert(&q)?;
        reject_params(&logical, what)?;
        // The locate plan must address the base table's own rows (its
        // positions become row ids to write), so a materialized view can
        // never stand in for the scan.
        let physical = self.optimize_no_mv(&logical)?;
        Ok((logical, physical))
    }

    /// Compiles UPDATE's SET expressions by converting `SELECT <exprs>
    /// FROM t` — assignments get the same name resolution, typing and
    /// function registry as queries. Returns (column index, compiled
    /// expression) pairs in statement order.
    fn compile_assignments(
        &self,
        table: &[String],
        tref: &TableRef,
        assignments: &[(String, Expr)],
    ) -> Result<Vec<(usize, RexNode)>> {
        use rcalcite_core::error::CalciteError;
        let q = Query {
            body: SetExpr::Select(Box::new(Select {
                stream: false,
                distinct: false,
                items: assignments
                    .iter()
                    .map(|(_, e)| SelectItem::Expr {
                        expr: e.clone(),
                        alias: None,
                    })
                    .collect(),
                from: Some(TableExpr::Table {
                    name: table.to_vec(),
                    alias: None,
                }),
                selection: None,
                group_by: vec![],
                having: None,
            })),
            order_by: vec![],
            offset: None,
            limit: None,
        };
        let logical = self.convert(&q)?;
        reject_params(&logical, "UPDATE")?;
        let RelOp::Project { exprs, .. } = &logical.op else {
            return Err(CalciteError::unsupported(
                "UPDATE SET expressions must be scalar (no aggregates or window functions)",
            ));
        };
        let rt = tref.table.row_type();
        let mut out: Vec<(usize, RexNode)> = vec![];
        for ((name, _), expr) in assignments.iter().zip(exprs) {
            let i = rt.field_index(name).ok_or_else(|| {
                CalciteError::validate(format!(
                    "no column '{name}' on table '{}'",
                    tref.qualified_name()
                ))
            })?;
            if out.iter().any(|(j, _)| *j == i) {
                return Err(CalciteError::validate(format!(
                    "column '{name}' assigned more than once"
                )));
            }
            let col = &rt.field(i).ty;
            let ety = expr.ty();
            if ety.kind == TypeKind::Null && !col.nullable {
                return Err(CalciteError::validate(format!(
                    "cannot assign NULL to NOT NULL column '{name}' of table '{}'",
                    tref.qualified_name()
                )));
            }
            // Same implicit-cast rule as comparisons and set operations:
            // the assigned expression must widen into the column type
            // (INTEGER → DOUBLE is fine, the reverse or a cross-kind
            // assignment needs an explicit CAST).
            let compatible = col.kind == TypeKind::Any
                || col
                    .least_restrictive(ety)
                    .is_some_and(|lr| lr.kind == col.kind);
            if !compatible {
                return Err(CalciteError::validate(format!(
                    "cannot assign {} to column '{name}' ({}) of table '{}'",
                    ety.kind,
                    col.kind,
                    tref.qualified_name()
                )));
            }
            // Coerce widened values so the stored datum matches the
            // column kind exactly (e.g. INTEGER literal into a DOUBLE
            // column), keeping the stored columns and indexes typed.
            let expr = if ety.kind != col.kind
                && ety.kind != TypeKind::Null
                && col.kind != TypeKind::Any
            {
                expr.clone().cast(col.with_nullable(ety.nullable))
            } else {
                expr.clone()
            };
            out.push((i, expr));
        }
        Ok(out)
    }

    /// Shared UPDATE/DELETE implementation: plans the located-rows
    /// subquery, finds target positions in the transaction's read view,
    /// stages one delta op per row, and commits immediately unless an
    /// explicit transaction is open (then the writes stay staged until
    /// COMMIT). Returns the number of rows written.
    fn execute_dml(
        &self,
        table: &[String],
        assignments: Option<&[(String, Expr)]>,
        selection: Option<&Expr>,
    ) -> Result<usize> {
        use rcalcite_core::error::CalciteError;
        let (schema_name, table_name) = self.split_name(table)?;
        let tref = self.catalog.resolve(&[&schema_name, &table_name])?;
        let qualified = tref.qualified_name();
        let what = if assignments.is_some() {
            "UPDATE"
        } else {
            "DELETE"
        };
        let (logical, physical) = self.dml_locate_plan(table, selection, what)?;
        let sets = match assignments {
            Some(a) => Some(self.compile_assignments(table, &tref, a)?),
            None => None,
        };
        let not_capable = || {
            CalciteError::unsupported(format!(
                "table '{qualified}' does not support transactional writes"
            ))
        };
        let build_ops = |view: Arc<Version>| -> Result<Vec<DeltaOp>> {
            let positions = locate_rows(&physical, &logical, &view)?;
            positions
                .into_iter()
                .map(|pos| {
                    let row_id = view.row_id(pos);
                    Ok(match &sets {
                        Some(sets) => {
                            let old = view.row(pos);
                            let mut row = old.clone();
                            for (i, expr) in sets {
                                row[*i] = expr.eval(&old)?;
                            }
                            DeltaOp::Update { row_id, row }
                        }
                        None => DeltaOp::Delete { row_id },
                    })
                })
                .collect()
        };
        // `build_ops` releases the view it reads: the next read of an
        // explicit transaction then applies its writes in place, and
        // COMMIT holds the only pin on the version it replaces.
        self.stage_or_autocommit(&tref, |txn| {
            build_ops(txn.read_view(&qualified).ok_or_else(not_capable)?)
        })
    }

    /// After a committed write: retires the analyzed statistics of the
    /// written tables (only theirs). Cached plans survive a write — they
    /// capture no data (scans and seeks snapshot at execution), exactly
    /// as they already do on every other connection sharing the catalog
    /// — unless the write actually dropped statistics that may have
    /// steered them: that happens once per ANALYZE, not once per write.
    fn retire_stats(&self, written: &[String]) {
        let mut dropped = false;
        for t in written {
            dropped |= self.catalog.stats().retire(t);
        }
        if dropped {
            self.invalidate_plans();
        }
    }

    /// The one write path of INSERT, UPDATE and DELETE: stages the ops
    /// `build` makes — from the transaction, whose read view UPDATE and
    /// DELETE locate their rows in — into the open transaction, or wraps
    /// them in an autocommit transaction over this table only (begin →
    /// stage → commit) when none is open. On autocommit the table's
    /// statistics are retired immediately; in an explicit transaction
    /// that happens at COMMIT.
    fn stage_or_autocommit(
        &self,
        tref: &TableRef,
        build: impl FnOnce(&mut Transaction) -> Result<Vec<DeltaOp>>,
    ) -> Result<usize> {
        let qualified = tref.qualified_name();
        let mut guard = self.txn.write();
        if let Some(txn) = guard.as_mut() {
            let ops = build(txn)?;
            return txn.stage(&qualified, ops);
        }
        drop(guard);
        let mut txn = self.catalog.txns().begin(std::slice::from_ref(tref));
        let ops = build(&mut txn)?;
        let n = txn.stage(&qualified, ops)?;
        txn.commit()?;
        if n > 0 {
            self.retire_stats(&[qualified]);
        }
        Ok(n)
    }

    /// The catalog schema holding materialized-view storage (`mv`),
    /// created on first use. A real schema — not a side table — so
    /// ANALYZE, transactions and direct scans treat view storage like
    /// any other table.
    fn mv_schema(&self) -> Arc<rcalcite_core::catalog::Schema> {
        if let Some(s) = self.catalog.schema("mv") {
            return s;
        }
        self.catalog
            .add_schema("mv", rcalcite_core::catalog::Schema::new());
        self.catalog.schema("mv").expect("just added")
    }

    /// Resolves `[schema.]name` to (schema, name) using the default schema.
    fn split_name(&self, parts: &[String]) -> Result<(String, String)> {
        use rcalcite_core::error::CalciteError;
        match parts {
            [t] => {
                let s = self.catalog.default_schema_name().ok_or_else(|| {
                    CalciteError::validate("no default schema for unqualified name")
                })?;
                Ok((s, t.to_ascii_lowercase()))
            }
            [s, t] => Ok((s.to_ascii_lowercase(), t.to_ascii_lowercase())),
            _ => Err(CalciteError::validate(format!(
                "cannot resolve name {parts:?}"
            ))),
        }
    }

    /// EXPLAIN helper returning the plan as one string. Accepts a bare
    /// query or an `EXPLAIN ...` statement; both this and
    /// `query("EXPLAIN ...")` render through the same path, and the first
    /// line reports whether the plan came from the plan cache.
    pub fn explain(&self, sql: &str) -> Result<String> {
        use rcalcite_core::error::CalciteError;
        let q = match parse(sql)? {
            Stmt::Query(q) | Stmt::Explain(q) => q,
            other => return Err(CalciteError::validate(format!("cannot EXPLAIN {other:?}"))),
        };
        let (text, cached) = self.explain_query(plan_cache_key(sql), &Arc::new(q))?;
        Ok(format!("{}\n{text}", self.explain_header(cached)))
    }

    /// The EXPLAIN header line: plan-cache outcome plus the worker
    /// count, so plans pasted from differently configured connections
    /// are distinguishable in bug reports.
    fn explain_header(&self, cached: bool) -> String {
        format!(
            "-- plan cache: {} | workers: {}",
            hit_str(cached),
            self.parallelism().workers
        )
    }

    /// The shared EXPLAIN implementation: plans the way the query would
    /// run ([`Connection::plan_for_execution`]: through the cache, so
    /// EXPLAIN observes — and warms — the same entries queries use;
    /// inside a transaction, against its snapshot, uncached) and renders
    /// the physical plan with cost annotations. With more than one
    /// worker, the exchange placement the parallel engine uses is
    /// appended as a second section; operators the memory budget would
    /// push to disk follow as `-- spill:` lines, and a parallel join
    /// whose shared build the budget does not charge as an
    /// `-- unbudgeted:` line.
    fn explain_query(&self, key: &str, q: &Arc<Query>) -> Result<(String, bool)> {
        let (plan, cached) = self.plan_for_execution(key, q)?;
        let mq = self.metadata_query();
        let mut text = explain_with_costs(&plan.physical, &mq);
        text.push_str(&rcalcite_core::explain::explain_estimates(
            &plan.physical,
            &mq,
        ));
        let p = self.parallelism();
        if let Some(parallel) = rcalcite_enumerable::explain_parallel(&plan.physical, p) {
            text.push_str(&format!(
                "-- parallel plan (workers={}, morsel_size={}):\n",
                p.workers, p.morsel_size
            ));
            text.push_str(&parallel);
        }
        if let Some(spill) =
            rcalcite_enumerable::explain_spill(&plan.physical, &mq, self.memory_budget(), p)
        {
            text.push_str(&spill);
        }
        self.append_mv_markers(&mut text, &plan.physical, q)?;
        if plan.search.truncated {
            text.push_str(&format!(
                "-- planner: search truncated ({} expressions, {} firings)\n",
                plan.search.expressions, plan.search.rule_firings
            ));
        }
        Ok((text, cached))
    }

    /// Appends `-- mv:` verdict lines to an EXPLAIN: which materialized
    /// views serve reads in this plan, and which would have been
    /// substituted but were bypassed as stale.
    fn append_mv_markers(&self, text: &mut String, physical: &Rel, q: &Query) -> Result<()> {
        let mats = self.materializations.read();
        if mats.is_empty() {
            return Ok(());
        }
        let mut scanned = vec![];
        collect_scan_names(physical, &mut scanned);
        // The stale-bypass check re-runs substitution on the normalized
        // logical plan — exactly what the planner's rule would have seen.
        let mq = self.metadata_query();
        let logical = self.convert(q)?;
        let normalized = self
            .hep
            .optimize(&logical, &Convention::enumerable(), &mq)?;
        for m in mats.iter() {
            let target = m.table.qualified_name();
            let read = scanned.iter().any(|s| s.eq_ignore_ascii_case(&target));
            if read {
                if m.is_usable() {
                    text.push_str(&format!("-- mv: substituted {} (fresh)\n", m.name));
                } else {
                    // Only a direct scan of the view's storage reaches a
                    // stale view; substitution skips it.
                    text.push_str(&format!("-- mv: {} (stale, read directly)\n", m.name));
                }
            } else if !m.is_usable() && would_substitute(&normalized, m) {
                text.push_str(&format!("-- mv: {} (stale, bypassed)\n", m.name));
            }
        }
        Ok(())
    }
}

/// Default bound on the number of compiled plans a connection keeps.
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// Collects the qualified name of every stored table `plan` reads.
fn collect_scan_names(plan: &Rel, out: &mut Vec<String>) {
    match &plan.op {
        RelOp::Scan { table } | RelOp::IndexSeek { table, .. } | RelOp::IndexJoin { table, .. } => {
            out.push(table.qualified_name())
        }
        _ => {}
    }
    for i in &plan.inputs {
        collect_scan_names(i, out);
    }
}

/// Whether the substitution matcher would rewrite any subtree of `plan`
/// to read from `m` (ignoring freshness — callers use this to report a
/// stale view as bypassed).
fn would_substitute(plan: &Rel, m: &Materialization) -> bool {
    if !rcalcite_core::mv::substitute(plan, std::slice::from_ref(m)).is_empty() {
        return true;
    }
    plan.inputs.iter().any(|i| would_substitute(i, m))
}

/// Rebuilds `plan` with every scan of a transaction-covered table
/// replaced by a [`rcalcite_core::SnapshotTable`] serving the
/// transaction's read view. The snapshot table keeps the original
/// schema/name so plans still render recognizably in EXPLAIN.
fn substitute_scans(plan: &Rel, txn: &mut Transaction) -> Rel {
    let inputs: Vec<Rel> = plan
        .inputs
        .iter()
        .map(|i| substitute_scans(i, txn))
        .collect();
    let op = match &plan.op {
        RelOp::Scan { table } => match txn.snapshot_table(&table.qualified_name()) {
            Some(snap) => RelOp::Scan {
                table: TableRef::new(table.schema.clone(), table.name.clone(), snap),
            },
            None => plan.op.clone(),
        },
        other => other.clone(),
    };
    RelNode::new(op, plan.convention.clone(), inputs)
}

/// What the optimized locate subplan does: an optional index seek plus
/// residual filter conditions over the base row, or `None` when the
/// shape is not a pure seek/filter pipeline over the target table (the
/// caller then falls back to a full-scan evaluation).
#[allow(clippy::type_complexity)]
fn analyze_locate(plan: &Rel) -> Option<(Option<(IndexDef, SeekSpec)>, Vec<RexNode>)> {
    let mut node = plan;
    let mut residuals: Vec<RexNode> = vec![];
    loop {
        match &node.op {
            RelOp::Convert { .. } => node = &node.inputs[0],
            RelOp::Project { .. } => {
                // Filters collected so far sit above this projection and
                // reference its output columns, not the base row — the
                // positions they'd select can't be trusted.
                if !residuals.is_empty() {
                    return None;
                }
                node = &node.inputs[0];
            }
            RelOp::Filter { condition } => {
                residuals.push(condition.clone());
                node = &node.inputs[0];
            }
            RelOp::Scan { .. } => return Some((None, residuals)),
            RelOp::IndexSeek {
                index,
                seek,
                projection,
                ..
            } => {
                if projection.is_some() {
                    return None;
                }
                return Some((Some((index.clone(), seek.clone())), residuals));
            }
            _ => return None,
        }
    }
}

/// Collects every Filter condition in a (single-chain) logical locate
/// plan; for `SELECT * FROM t WHERE p` these are all over the base row.
fn collect_conditions(plan: &Rel, out: &mut Vec<RexNode>) {
    if let RelOp::Filter { condition } = &plan.op {
        out.push(condition.clone());
    }
    for i in &plan.inputs {
        collect_conditions(i, out);
    }
}

/// Whether every condition evaluates to TRUE on `row` (SQL three-valued
/// logic: NULL and FALSE both reject).
fn eval_all(conditions: &[RexNode], row: &Row) -> Result<bool> {
    for c in conditions {
        if c.eval(row)? != Datum::Bool(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluates the locate subplan against a transaction's version,
/// returning matching positions in ascending order. An IndexSeek-shaped
/// plan probes the version's index, which carries the transaction's own
/// writes; any other plan shape (an index created after BEGIN, or a seek
/// constant that does not evaluate) scans the version evaluating the
/// full logical predicate.
fn locate_rows(physical: &Rel, logical: &Rel, view: &Arc<Version>) -> Result<Vec<usize>> {
    if let Some((Some((index, seek)), residuals)) = analyze_locate(physical) {
        if let Some(probe) = view.index_probe(&index.name) {
            if let Ok(bound) = seek.bind(|e| e.eval(&[])) {
                let mut out = vec![];
                for pos in seek_positions(probe.as_ref(), &bound) {
                    if eval_all(&residuals, &view.row(pos))? {
                        out.push(pos);
                    }
                }
                return Ok(out);
            }
        }
    }
    let mut conditions = vec![];
    collect_conditions(logical, &mut conditions);
    let mut out = vec![];
    for (pos, row) in Arc::clone(view).into_rows().enumerate() {
        if eval_all(&conditions, &row)? {
            out.push(pos);
        }
    }
    Ok(out)
}

/// Normalizes a statement's text into its plan-cache key. `EXPLAIN <q>`
/// maps to `<q>`'s key, so EXPLAIN reports on the entry the query itself
/// would use.
fn plan_cache_key(sql: &str) -> &str {
    let t = normalized_text(sql);
    // Strip a leading EXPLAIN keyword case-insensitively, matching the
    // parser's keyword handling.
    if t.len() > 7
        && t[..7].eq_ignore_ascii_case("EXPLAIN")
        && t.as_bytes()[7].is_ascii_whitespace()
    {
        return t[7..].trim();
    }
    t
}

/// A statement's text without surrounding whitespace and trailing
/// semicolons — what the plan cache is keyed and probed by.
fn normalized_text(sql: &str) -> &str {
    sql.trim().trim_end_matches(';').trim()
}

/// `?` placeholders are only meaningful through `prepare()`/`bind()`.
/// In DDL the stored plan would be spliced into later statements whose
/// own parameters are numbered from 0 as well, colliding with the
/// view's — reject them up front.
fn reject_params(plan: &Rel, what: &str) -> Result<()> {
    let n = collect_plan_params(plan).len();
    if n == 0 {
        Ok(())
    } else {
        Err(rcalcite_core::error::CalciteError::validate(format!(
            "dynamic parameters are not allowed in {what} ({n} found); \
             only queries can be prepared"
        )))
    }
}

fn hit_str(cached: bool) -> &'static str {
    if cached {
        "hit"
    } else {
        "miss"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcalcite_core::catalog::{MemTable, Schema};
    use rcalcite_core::types::{RowTypeBuilder, TypeKind};

    fn connection() -> Connection {
        let catalog = Catalog::new();
        let s = Schema::new();
        s.add_table(
            "emp",
            MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("deptno", TypeKind::Integer)
                    .add("sal", TypeKind::Integer)
                    .build(),
                vec![
                    vec![Datum::Int(10), Datum::Int(100)],
                    vec![Datum::Int(10), Datum::Int(200)],
                    vec![Datum::Int(20), Datum::Int(300)],
                ],
            ),
        );
        catalog.add_schema("hr", s);
        Connection::builder(catalog).workers(1).build()
    }

    #[test]
    fn end_to_end_sql() {
        let conn = connection();
        let r = conn
            .query("SELECT deptno, SUM(sal) AS total FROM emp GROUP BY deptno ORDER BY deptno")
            .unwrap();
        assert_eq!(r.columns, vec!["deptno", "total"]);
        assert_eq!(
            r.rows,
            vec![
                vec![Datum::Int(10), Datum::Int(300)],
                vec![Datum::Int(20), Datum::Int(300)],
            ]
        );
    }

    #[test]
    fn zero_arity_result_set_keeps_its_row_count() {
        // No SQL selects zero columns, so the plan is built by hand: a
        // logical projection of nothing over the compiled scan, whose
        // enumerable child streams through the registered executor.
        let conn = connection();
        let sql = "SELECT deptno FROM emp";
        let Stmt::Query(q) = parse(sql).unwrap() else {
            unreachable!("a query")
        };
        let (scan, _) = conn.plan_query(sql, &Arc::new(q)).unwrap();
        let plan = CachedPlan {
            columns: vec![],
            physical: rcalcite_core::rel::project(scan.physical.clone(), vec![], vec![]),
            params: vec![],
            generation: scan.generation,
            query: scan.query.clone(),
            search: scan.search.clone(),
        };
        let r = ResultSet::open(&conn, &plan, vec![])
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(r.rows, vec![Vec::<Datum>::new(); 3]);
    }

    #[test]
    fn explain_returns_physical_plan() {
        let conn = connection();
        let text = conn
            .explain("SELECT deptno FROM emp WHERE sal > 150")
            .unwrap();
        assert!(text.contains("[enumerable]"), "{text}");
        assert!(text.contains("rows="), "{text}");
    }

    #[test]
    fn explain_statement_through_query() {
        let conn = connection();
        let r = conn.query("EXPLAIN SELECT deptno FROM emp").unwrap();
        assert_eq!(r.columns, vec!["PLAN"]);
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn query_result_table_format() {
        let conn = connection();
        let r = conn
            .query("SELECT deptno FROM emp ORDER BY deptno LIMIT 1")
            .unwrap();
        let table = r.to_table();
        assert!(table.contains("deptno"));
        assert!(table.contains("10"));
    }

    #[test]
    fn errors_propagate() {
        let conn = connection();
        assert!(conn.query("SELECT nope FROM emp").is_err());
        assert!(conn.query("SELEC 1").is_err());
    }

    #[test]
    fn prepared_statement_binds_many_times() {
        let conn = connection();
        let stmt = conn
            .prepare("SELECT deptno, sal FROM emp WHERE sal > ? ORDER BY sal")
            .unwrap();
        assert_eq!(stmt.param_count(), 1);
        assert_eq!(stmt.columns(), vec!["deptno", "sal"]);
        let r = stmt.query(&[Datum::Int(150)]).unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Datum::Int(10), Datum::Int(200)],
                vec![Datum::Int(20), Datum::Int(300)],
            ]
        );
        let r = stmt.query(&[Datum::Int(250)]).unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Int(20), Datum::Int(300)]]);
        // Identical to the inlined-literal query.
        let inline = conn
            .query("SELECT deptno, sal FROM emp WHERE sal > 250 ORDER BY sal")
            .unwrap();
        assert_eq!(r, inline);
    }

    #[test]
    fn prepared_bind_errors() {
        let conn = connection();
        let stmt = conn
            .prepare("SELECT deptno FROM emp WHERE sal > ?")
            .unwrap();
        // Wrong arity.
        assert!(stmt.query(&[]).is_err());
        assert!(stmt.query(&[Datum::Int(1), Datum::Int(2)]).is_err());
        // Type mismatch: sal is INTEGER, a string cannot compare.
        assert!(stmt.query(&[Datum::str("nope")]).is_err());
        // NULL binds (and matches nothing under three-valued logic).
        assert_eq!(stmt.query(&[Datum::Null]).unwrap().rows.len(), 0);
        // Executing parameterized SQL without preparing is an error.
        assert!(conn.query("SELECT deptno FROM emp WHERE sal > ?").is_err());
    }

    #[test]
    fn plan_cache_hits_and_explain_marker() {
        let conn = connection();
        let sql = "SELECT deptno FROM emp WHERE sal > 150";
        let first = conn.explain(sql).unwrap();
        assert!(first.starts_with("-- plan cache: miss"), "{first}");
        let second = conn.explain(sql).unwrap();
        assert!(second.starts_with("-- plan cache: hit"), "{second}");
        // query("EXPLAIN ...") reports through the same path, whatever
        // the keyword's casing.
        for kw in ["EXPLAIN", "explain", "eXpLaIn"] {
            let r = conn.query(&format!("{kw} {sql}")).unwrap();
            assert_eq!(r.columns, vec!["PLAN"]);
            let header = r.rows[0][0].to_string();
            assert!(header.starts_with("-- plan cache: hit"), "{kw}: {header}");
            // The header names the worker count.
            assert_eq!(header, "-- plan cache: hit | workers: 1", "{kw}");
        }
    }

    #[test]
    fn prepare_serves_a_cached_text_without_parsing_it() {
        let conn = connection();
        let sql = "SELECT deptno FROM emp WHERE sal > ?";
        let first = conn.prepare(sql).unwrap();
        // The hit builds the same statement: columns, parameters, rows.
        let again = conn.prepare(&format!("  {sql} ; ")).unwrap();
        assert_eq!(conn.plan_cache_len(), 1);
        assert_eq!(again.columns(), first.columns());
        assert_eq!(again.param_count(), 1);
        assert_eq!(again.query(&[Datum::Int(150)]).unwrap().rows.len(), 2);
        // A hit proves the text is a query: an EXPLAIN of a cached text is
        // cached under the text it explains, and is still not preparable.
        assert!(conn.explain(sql).unwrap().starts_with("-- plan cache: hit"));
        assert!(conn.prepare(&format!("EXPLAIN {sql}")).is_err());
        // A stale entry is not served: the text re-plans under the new
        // generation, against the new table.
        conn.query("CREATE TABLE hr.t3 (v INTEGER)").unwrap();
        assert!(conn.cached_plan(sql).is_none());
        let fresh = conn.prepare(sql).unwrap();
        assert!(conn.cached_plan(sql).is_some());
        assert_eq!(fresh.query(&[Datum::Int(250)]).unwrap().rows.len(), 1);
    }

    #[test]
    fn explain_reports_a_truncated_search_and_only_then() {
        let mut conn = connection();
        conn.add_rule(Arc::new(rcalcite_core::rules::JoinCommuteRule));
        let sql = "SELECT e.sal FROM emp e JOIN emp f ON e.deptno = f.deptno WHERE f.sal > 150";
        let complete = conn.explain(sql).unwrap();
        assert!(!complete.contains("-- planner:"), "{complete}");
        // The same connection with a planner whose budget runs out after
        // the first implementations, before the join orders are explored.
        conn.invalidate_plans();
        conn.planners.write()[1] = Some(Arc::new(
            VolcanoPlanner::new(conn.rules.clone()).with_budget(1_000, 12),
        ));
        let cut = conn.explain(sql).unwrap();
        let line = cut
            .lines()
            .find(|l| l.starts_with("-- planner: search truncated ("))
            .unwrap_or_else(|| panic!("{cut}"));
        assert!(line.ends_with(" firings)"), "{line}");
        assert!(line.contains(" expressions, "), "{line}");
    }

    #[test]
    fn params_rejected_outside_queries() {
        let conn = connection();
        conn.query("CREATE TABLE hr.t2 (v INTEGER)").unwrap();
        for sql in [
            "CREATE VIEW v AS SELECT deptno FROM emp WHERE sal > ?",
            "CREATE MATERIALIZED VIEW mv AS SELECT deptno FROM emp WHERE sal > ?",
            "INSERT INTO hr.t2 SELECT deptno FROM emp WHERE sal > ?",
        ] {
            let err = conn.query(sql).unwrap_err().to_string();
            assert!(err.contains("dynamic parameters"), "{sql}: {err}");
        }
        // Non-queries cannot be prepared either.
        assert!(conn.prepare("DROP TABLE hr.t2").is_err());
    }

    #[test]
    fn ddl_invalidates_cached_plans() {
        let conn = connection();
        let sql = "SELECT COUNT(*) AS c FROM emp WHERE deptno = ?";
        let stmt = conn.prepare(sql).unwrap();
        assert_eq!(
            stmt.query(&[Datum::Int(10)]).unwrap().rows,
            vec![vec![Datum::Int(2)]]
        );
        assert!(conn.explain(sql).unwrap().starts_with("-- plan cache: hit"));
        for ddl in [
            "CREATE TABLE hr.t (a INTEGER)",
            "CREATE INDEX emp_dept ON emp (deptno)",
            "ANALYZE",
            "DROP TABLE hr.t",
        ] {
            conn.query(ddl).unwrap();
            let marker = conn.explain(sql).unwrap();
            assert!(marker.starts_with("-- plan cache: miss"), "{ddl}: {marker}");
        }
        // The held statement re-plans and still answers.
        assert_eq!(
            stmt.query(&[Datum::Int(10)]).unwrap().rows,
            vec![vec![Datum::Int(2)]]
        );
    }

    /// Writes leave the writer's cached plans alone — plans capture no
    /// data — and the held statement keeps answering from current rows.
    #[test]
    fn dml_keeps_cached_plans() {
        let conn = connection();
        let sql = "SELECT COUNT(*) AS c, SUM(sal) AS s FROM emp WHERE deptno = ?";
        let stmt = conn.prepare(sql).unwrap();
        let dept10 = |c: i64, s: i64| {
            let marker = conn.explain(sql).unwrap();
            assert!(marker.starts_with("-- plan cache: hit"), "{marker}");
            assert_eq!(
                stmt.query(&[Datum::Int(10)]).unwrap().rows,
                vec![vec![Datum::Int(c), Datum::Int(s)]]
            );
        };
        dept10(2, 300);
        conn.query("UPDATE emp SET sal = sal + 1 WHERE deptno = 10")
            .unwrap();
        dept10(2, 302);
        conn.query("INSERT INTO emp VALUES (10, 8)").unwrap();
        dept10(3, 310);
        conn.query("DELETE FROM emp WHERE sal = 8").unwrap();
        dept10(2, 302);
        conn.query("BEGIN").unwrap();
        conn.query("UPDATE emp SET deptno = 10 WHERE deptno = 20")
            .unwrap();
        conn.query("COMMIT").unwrap();
        dept10(3, 602);
        // Dropping analyzed statistics is what does re-plan: the first
        // write after an ANALYZE, and only that one.
        conn.query("ANALYZE").unwrap();
        conn.query(sql.replace('?', "10").as_str()).unwrap();
        stmt.query(&[Datum::Int(10)]).unwrap();
        conn.query("UPDATE emp SET sal = sal - 1 WHERE sal = 300")
            .unwrap();
        let marker = conn.explain(sql).unwrap();
        assert!(marker.starts_with("-- plan cache: miss"), "{marker}");
        conn.query("UPDATE emp SET sal = sal + 1 WHERE sal = 299")
            .unwrap();
        dept10(3, 602);
    }

    #[test]
    fn plan_cache_is_bounded_lru() {
        let conn = connection();
        conn.set_plan_cache_capacity(2);
        conn.query("SELECT deptno FROM emp").unwrap();
        conn.query("SELECT sal FROM emp").unwrap();
        assert_eq!(conn.plan_cache_len(), 2);
        // Touch the first so the second is the LRU victim.
        conn.query("SELECT deptno FROM emp").unwrap();
        conn.query("SELECT deptno, sal FROM emp").unwrap();
        assert_eq!(conn.plan_cache_len(), 2);
        assert!(conn
            .explain("SELECT deptno FROM emp")
            .unwrap()
            .starts_with("-- plan cache: hit"));
        assert!(conn
            .explain("SELECT sal FROM emp")
            .unwrap()
            .starts_with("-- plan cache: miss"));
    }

    #[test]
    fn result_set_streams_rows() {
        let conn = connection();
        let mut rs = conn
            .execute("SELECT deptno FROM emp ORDER BY deptno")
            .unwrap();
        assert_eq!(rs.columns(), ["deptno"]);
        assert_eq!(rs.next_row().unwrap(), Some(vec![Datum::Int(10)]));
        assert_eq!(rs.next_row().unwrap(), Some(vec![Datum::Int(10)]));
        assert_eq!(rs.next_row().unwrap(), Some(vec![Datum::Int(20)]));
        assert_eq!(rs.next_row().unwrap(), None);
    }

    /// The row engine is the oracle: the connection's optimized plan,
    /// run row-at-a-time on a fresh context.
    fn row_oracle(conn: &Connection, sql: &str) -> Vec<Row> {
        let plan = conn.optimize(&conn.parse_to_rel(sql).unwrap()).unwrap();
        let mut ctx = ExecContext::new();
        rcalcite_enumerable::register_executors(&mut ctx);
        ctx.execute_collect(&plan).unwrap()
    }

    #[test]
    fn builder_wires_the_fused_engine() {
        let catalog = connection().catalog().clone();
        let conn = Connection::builder(catalog).build();
        let sql = "SELECT deptno, SUM(sal) AS s FROM hr.emp GROUP BY deptno ORDER BY deptno";
        let r = conn.query(sql).unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Datum::Int(10), Datum::Int(300)],
                vec![Datum::Int(20), Datum::Int(300)],
            ]
        );
        assert_eq!(r.rows, row_oracle(&conn, sql));
    }

    #[test]
    fn builder_parallelism_end_to_end() {
        use rcalcite_core::exec::Parallelism;
        let catalog = Catalog::new();
        let s = Schema::new();
        s.add_table(
            "t",
            MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("k", TypeKind::Integer)
                    .add_not_null("v", TypeKind::Integer)
                    .build(),
                (0..200)
                    .map(|i| vec![Datum::Int(i % 7), Datum::Int(i)])
                    .collect(),
            ),
        );
        catalog.add_schema("hr", s);
        let sql = "SELECT k, SUM(v) AS s FROM t WHERE v > 20 GROUP BY k ORDER BY k";
        let conn = Connection::builder(catalog)
            .workers(3)
            .morsel_size(8)
            .build();
        assert_eq!(conn.parallelism(), Parallelism::new(3, 8));
        let reference = row_oracle(&conn, sql);
        assert_eq!(conn.query(sql).unwrap().rows, reference);
        // EXPLAIN names the workers on its header and renders the
        // exchange placement.
        let text = conn.explain(sql).unwrap();
        assert!(text.contains("| workers: 3\n"), "{text}");
        assert!(text.contains("-- parallel plan"), "{text}");
        assert!(text.contains("Exchange["), "{text}");
        // Prepared statements ride the same parallel execution path.
        let stmt = conn
            .prepare("SELECT k, SUM(v) AS s FROM t WHERE v > ? GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(stmt.query(&[Datum::Int(20)]).unwrap().rows, reference);
    }

    #[test]
    fn builder_memory_budget_end_to_end() {
        let catalog = Catalog::new();
        let s = Schema::new();
        s.add_table(
            "t",
            MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("k", TypeKind::Integer)
                    .add_not_null("v", TypeKind::Integer)
                    .build(),
                (0..5000)
                    .map(|i| vec![Datum::Int(i % 97), Datum::Int((i * 37) % 5000)])
                    .collect(),
            ),
        );
        catalog.add_schema("hr", s);
        let sql = "SELECT a.k, a.v FROM t AS a JOIN t AS b ON a.v = b.v ORDER BY a.v, a.k";
        let reference = Connection::builder(catalog.clone())
            .workers(1)
            .build()
            .query(sql)
            .unwrap();
        // One spill page of budget: the join build and the sort input
        // (5000 two-Int rows each, ~90 KiB as columns) must go to disk.
        let conn = Connection::builder(catalog.clone())
            .workers(1)
            .memory_budget(32 * 1024)
            .build();
        assert_eq!(conn.query(sql).unwrap(), reference);
        assert!(!conn.spill_stats().stayed_in_memory());
        let ops: Vec<&str> = conn.spill_stats().events().iter().map(|e| e.op).collect();
        assert!(ops.contains(&"hash_join"), "{ops:?}");
        assert!(ops.contains(&"sort"), "{ops:?}");
        // EXPLAIN predicts the degradation from planner metadata.
        let text = conn.explain(sql).unwrap();
        assert!(text.contains("-- spill: hash_join"), "{text}");
        assert!(text.contains("partitions"), "{text}");
        // At two workers, five morsels of probe side: the join is placed
        // in parallel, its shared build is not charged, and EXPLAIN says
        // so instead of promising partitions that never spill.
        let conn = Connection::builder(catalog)
            .workers(2)
            .morsel_size(1024)
            .memory_budget(32 * 1024)
            .build();
        assert_eq!(conn.query(sql).unwrap(), reference);
        let ops: Vec<&str> = conn.spill_stats().events().iter().map(|e| e.op).collect();
        assert!(!ops.contains(&"hash_join"), "{ops:?}");
        let text = conn.explain(sql).unwrap();
        assert!(text.contains("Gather[ordered, workers=2, probe]"), "{text}");
        assert!(text.contains("-- unbudgeted: hash_join"), "{text}");
        assert!(text.contains("not charged against the budget"), "{text}");
        assert!(!text.contains("-- spill: hash_join"), "{text}");
        assert!(!text.contains("partitions"), "{text}");
    }

    /// `Connection::new` builds what the builder builds: its budget is
    /// charged, by every statement kind, and its EXPLAIN predicts the
    /// spill.
    #[test]
    fn connection_new_honours_its_memory_budget() {
        let mut conn = Connection::new(connection().catalog().clone());
        conn.set_parallelism(rcalcite_core::exec::Parallelism::serial());
        conn.query("CREATE TABLE hr.t (k INTEGER, v INTEGER)")
            .unwrap();
        let values: Vec<String> = (0..5000)
            .map(|i| format!("({}, {})", i % 97, (i * 37) % 5000))
            .collect();
        conn.query(&format!("INSERT INTO hr.t VALUES {}", values.join(", ")))
            .unwrap();
        conn.query("ANALYZE").unwrap();
        conn.set_memory_budget(rcalcite_core::buffer::MemoryBudget::bytes(32 * 1024));
        let sql = "SELECT a.k, b.v FROM hr.t AS a JOIN hr.t AS b ON a.v = b.v";
        let text = conn.explain(sql).unwrap();
        assert!(
            text.starts_with("-- plan cache: miss | workers: 1\n"),
            "{text}"
        );
        assert!(text.contains("-- spill: hash_join"), "{text}");
        let mut rows = conn.query(sql).unwrap().rows;
        let mut oracle = row_oracle(&conn, sql);
        rows.sort();
        oracle.sort();
        assert_eq!(rows, oracle);
        assert!(!conn.spill_stats().stayed_in_memory());
        // INSERT … SELECT runs on the same engine as the SELECT: its
        // 5 000-group aggregate spills under the same budget.
        conn.query("CREATE TABLE hr.byv (v INTEGER, c INTEGER)")
            .unwrap();
        conn.query("INSERT INTO hr.byv SELECT v, COUNT(*) FROM hr.t GROUP BY v")
            .unwrap();
        let ops: Vec<&str> = conn.spill_stats().events().iter().map(|e| e.op).collect();
        assert!(ops.contains(&"aggregate"), "{ops:?}");
    }

    #[test]
    fn to_table_handles_empty_and_wide_cells() {
        // Empty result: header plus divider of matching width.
        let empty = QueryResult {
            columns: vec!["a".into(), "long_name".into()],
            rows: vec![],
        };
        let t = empty.to_table();
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].chars().count(), lines[0].chars().count());
        assert!(lines[1].chars().all(|c| c == '-'));
        // Multi-character (and multi-byte) cells widen their column; the
        // divider spans the header, which is padded to the same width.
        let wide = QueryResult {
            columns: vec!["x".into()],
            rows: vec![vec![Datum::str("ünïcödé-value")]],
        };
        let t = wide.to_table();
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0].chars().count(), "ünïcödé-value".chars().count());
        assert_eq!(lines[1].chars().count(), lines[0].chars().count());
        assert_eq!(lines[2].chars().count(), lines[0].chars().count());
    }
}
