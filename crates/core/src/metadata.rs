//! Metadata providers (paper §6). Metadata "serves two main purposes:
//! (i) guiding the planner towards the goal of reducing the cost of the
//! overall query plan, and (ii) providing information to the rules while
//! they are being applied". Providers are pluggable and chained; results
//! are memoized in a cache, "which yields significant performance
//! improvements" — reproduced and measured by `bench_metadata`.

use crate::cost::{Cost, CostModel, DefaultCostModel};
use crate::datum::Datum;
use crate::rel::{Rel, RelOp};
use crate::rex::{Op, RexNode};
use crate::traits::{Collation, FieldCollation};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A source of optimizer metadata. Every method returns `None` when the
/// provider has no opinion, letting the next provider in the chain answer
/// (systems "may choose to write providers that override the existing
/// functions", §6).
#[allow(unused_variables)]
pub trait MetadataProvider: Send + Sync {
    /// Estimated output cardinality.
    fn row_count(&self, rel: &Rel, mq: &MetadataQuery) -> Option<f64> {
        None
    }

    /// Fraction of `rel`'s output rows satisfying `predicate`.
    fn selectivity(&self, rel: &Rel, predicate: &RexNode, mq: &MetadataQuery) -> Option<f64> {
        None
    }

    /// Estimated number of distinct values over `cols` of `rel`'s output.
    fn distinct_count(&self, rel: &Rel, cols: &[usize], mq: &MetadataQuery) -> Option<f64> {
        None
    }

    /// Cost of executing this operator alone (inputs excluded).
    fn non_cumulative_cost(&self, rel: &Rel, mq: &MetadataQuery) -> Option<Cost> {
        None
    }

    /// Orderings the output is known to have.
    fn collations(&self, rel: &Rel, mq: &MetadataQuery) -> Option<Vec<Collation>> {
        None
    }

    /// Column sets known to be unique in the output.
    fn unique_keys(&self, rel: &Rel, mq: &MetadataQuery) -> Option<Vec<Vec<usize>>> {
        None
    }

    /// Average output row size in bytes.
    fn average_row_size(&self, rel: &Rel, mq: &MetadataQuery) -> Option<f64> {
        None
    }

    /// Maximum useful degree of parallelism (paper lists this among the
    /// default provider's functions).
    fn parallelism(&self, rel: &Rel, mq: &MetadataQuery) -> Option<f64> {
        None
    }
}

#[derive(Clone, PartialEq)]
enum CacheVal {
    F64(f64),
    Cost(Cost),
    Collations(Vec<Collation>),
    Keys(Vec<Vec<usize>>),
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    rel: usize,
    kind: u8,
    aux: u64,
}

/// The entry point rules and planners use to ask metadata questions. Owns
/// the provider chain, the cost model and the memoization cache.
pub struct MetadataQuery {
    providers: Vec<Arc<dyn MetadataProvider>>,
    cost_model: Arc<dyn CostModel>,
    cache_enabled: bool,
    cache: Mutex<HashMap<CacheKey, CacheVal>>,
    /// Keeps cached `Rel`s alive so pointer keys stay unique.
    keepalive: Mutex<Vec<Rel>>,
}

impl MetadataQuery {
    /// Default chain: just the built-in provider.
    pub fn standard() -> MetadataQuery {
        MetadataQuery::new(vec![], Arc::new(DefaultCostModel::new()), true)
    }

    pub fn new(
        mut providers: Vec<Arc<dyn MetadataProvider>>,
        cost_model: Arc<dyn CostModel>,
        cache_enabled: bool,
    ) -> MetadataQuery {
        // The default provider terminates every chain.
        providers.push(Arc::new(DefaultMdProvider));
        MetadataQuery {
            providers,
            cost_model,
            cache_enabled,
            cache: Mutex::new(HashMap::new()),
            keepalive: Mutex::new(vec![]),
        }
    }

    /// A query with custom providers consulted *before* the defaults.
    pub fn with_providers(providers: Vec<Arc<dyn MetadataProvider>>) -> MetadataQuery {
        MetadataQuery::new(providers, Arc::new(DefaultCostModel::new()), true)
    }

    /// Disables the memoization cache (for the §6b ablation bench).
    pub fn without_cache() -> MetadataQuery {
        MetadataQuery::new(vec![], Arc::new(DefaultCostModel::new()), false)
    }

    pub fn cost_model(&self) -> &Arc<dyn CostModel> {
        &self.cost_model
    }

    pub fn set_cost_model(&mut self, model: Arc<dyn CostModel>) {
        self.cost_model = model;
    }

    pub fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }

    fn key(&self, rel: &Rel, kind: u8, aux: u64) -> CacheKey {
        CacheKey {
            rel: Arc::as_ptr(rel) as usize,
            kind,
            aux,
        }
    }

    fn cached<T, F>(
        &self,
        rel: &Rel,
        kind: u8,
        aux: u64,
        wrap: fn(T) -> CacheVal,
        unwrap: fn(CacheVal) -> T,
        compute: F,
    ) -> T
    where
        T: Clone,
        F: FnOnce() -> T,
    {
        if !self.cache_enabled {
            return compute();
        }
        let key = self.key(rel, kind, aux);
        if let Some(v) = self.cache.lock().get(&key) {
            return unwrap(v.clone());
        }
        let v = compute();
        self.keepalive.lock().push(rel.clone());
        self.cache.lock().insert(key, wrap(v.clone()));
        v
    }

    // -----------------------------------------------------------------
    // Public metadata queries
    // -----------------------------------------------------------------

    pub fn row_count(&self, rel: &Rel) -> f64 {
        self.cached(
            rel,
            0,
            0,
            CacheVal::F64,
            |v| match v {
                CacheVal::F64(f) => f,
                _ => unreachable!(),
            },
            || {
                for p in &self.providers {
                    if let Some(v) = p.row_count(rel, self) {
                        return v.max(1e-6);
                    }
                }
                100.0
            },
        )
    }

    pub fn selectivity(&self, rel: &Rel, predicate: &RexNode) -> f64 {
        let mut h = DefaultHasher::new();
        predicate.digest().hash(&mut h);
        self.cached(
            rel,
            1,
            h.finish(),
            CacheVal::F64,
            |v| match v {
                CacheVal::F64(f) => f,
                _ => unreachable!(),
            },
            || {
                for p in &self.providers {
                    if let Some(v) = p.selectivity(rel, predicate, self) {
                        return v.clamp(0.0, 1.0);
                    }
                }
                0.25
            },
        )
    }

    pub fn distinct_count(&self, rel: &Rel, cols: &[usize]) -> f64 {
        let mut h = DefaultHasher::new();
        cols.hash(&mut h);
        self.cached(
            rel,
            2,
            h.finish(),
            CacheVal::F64,
            |v| match v {
                CacheVal::F64(f) => f,
                _ => unreachable!(),
            },
            || {
                for p in &self.providers {
                    if let Some(v) = p.distinct_count(rel, cols, self) {
                        return v.max(1.0);
                    }
                }
                (self.row_count(rel) / 10.0).max(1.0)
            },
        )
    }

    pub fn non_cumulative_cost(&self, rel: &Rel) -> Cost {
        self.cached(
            rel,
            3,
            0,
            CacheVal::Cost,
            |v| match v {
                CacheVal::Cost(c) => c,
                _ => unreachable!(),
            },
            || {
                for p in &self.providers {
                    if let Some(v) = p.non_cumulative_cost(rel, self) {
                        return v;
                    }
                }
                Cost::ZERO
            },
        )
    }

    /// Cost of the whole subtree: the paper's "overall cost of executing a
    /// subexpression in the operator tree".
    pub fn cumulative_cost(&self, rel: &Rel) -> Cost {
        self.cached(
            rel,
            4,
            0,
            CacheVal::Cost,
            |v| match v {
                CacheVal::Cost(c) => c,
                _ => unreachable!(),
            },
            || {
                let mut c = self.non_cumulative_cost(rel);
                for i in &rel.inputs {
                    c = c.plus(&self.cumulative_cost(i));
                }
                c
            },
        )
    }

    pub fn collations(&self, rel: &Rel) -> Vec<Collation> {
        self.cached(
            rel,
            5,
            0,
            CacheVal::Collations,
            |v| match v {
                CacheVal::Collations(c) => c,
                _ => unreachable!(),
            },
            || {
                for p in &self.providers {
                    if let Some(v) = p.collations(rel, self) {
                        return v;
                    }
                }
                vec![]
            },
        )
    }

    /// The group key a streaming aggregate over `input` flushes on
    /// (§7.2): the first key in `group` whose column leads one of
    /// `input`'s collations ascending. Once that key moves on, every row
    /// of its previous value has been seen. Returns the key's position
    /// in `group` and the collation it ascends in; `None` means the
    /// aggregate must see its whole input before it emits a row.
    pub fn ascending_group_key(
        &self,
        input: &Rel,
        group: &[usize],
    ) -> Option<(usize, FieldCollation)> {
        let leading: Vec<FieldCollation> = self
            .collations(input)
            .into_iter()
            .filter_map(|c| c.into_iter().next())
            .filter(|fc| !fc.descending)
            .collect();
        group.iter().enumerate().find_map(|(pos, &g)| {
            let fc = leading.iter().find(|fc| fc.field == g)?;
            Some((pos, fc.clone()))
        })
    }

    pub fn unique_keys(&self, rel: &Rel) -> Vec<Vec<usize>> {
        self.cached(
            rel,
            6,
            0,
            CacheVal::Keys,
            |v| match v {
                CacheVal::Keys(k) => k,
                _ => unreachable!(),
            },
            || {
                for p in &self.providers {
                    if let Some(v) = p.unique_keys(rel, self) {
                        return v;
                    }
                }
                vec![]
            },
        )
    }

    pub fn average_row_size(&self, rel: &Rel) -> f64 {
        for p in &self.providers {
            if let Some(v) = p.average_row_size(rel, self) {
                return v;
            }
        }
        rel.row_type().arity() as f64 * 8.0
    }

    pub fn parallelism(&self, rel: &Rel) -> f64 {
        for p in &self.providers {
            if let Some(v) = p.parallelism(rel, self) {
                return v;
            }
        }
        1.0
    }

    /// Whether the column set is known unique on `rel`.
    pub fn are_columns_unique(&self, rel: &Rel, cols: &[usize]) -> bool {
        self.unique_keys(rel)
            .iter()
            .any(|k| k.iter().all(|c| cols.contains(c)))
    }
}

/// The built-in metadata provider: implements the estimates that "Calcite
/// will do the rest of the work" with, given basic table statistics.
pub struct DefaultMdProvider;

impl DefaultMdProvider {
    /// Selectivity of `pred`, where `ndv(col)` is the distinct count of
    /// the column a `col = literal` comparison reads.
    fn predicate_selectivity(pred: &RexNode, ndv: &dyn Fn(usize) -> f64) -> f64 {
        let sel = match pred {
            RexNode::Literal { .. } => {
                if pred.is_always_true() {
                    1.0
                } else {
                    0.0
                }
            }
            RexNode::Call { op, args, .. } => match op {
                Op::And => args
                    .iter()
                    .map(|a| Self::predicate_selectivity(a, ndv))
                    .product(),
                Op::Or => args
                    .iter()
                    .map(|a| Self::predicate_selectivity(a, ndv))
                    .fold(0.0, |acc, s| (acc + s).min(1.0)),
                Op::Not => 1.0 - Self::predicate_selectivity(&args[0], ndv),
                Op::Eq => {
                    // Equality against a literal: 1/NDV when one side is a
                    // plain column reference.
                    if let (Some(col), true) = (args[0].as_input_ref(), args[1].is_literal()) {
                        1.0 / ndv(col)
                    } else if let (true, Some(col)) = (args[0].is_literal(), args[1].as_input_ref())
                    {
                        1.0 / ndv(col)
                    } else {
                        0.15
                    }
                }
                Op::Ne => 0.85,
                Op::Lt | Op::Le | Op::Gt | Op::Ge => 0.5,
                Op::Like => 0.25,
                Op::IsNull => 0.1,
                Op::IsNotNull => 0.9,
                _ => 0.25,
            },
            // A parameter's value is unknown at planning time; treat it
            // like a boolean column reference.
            RexNode::InputRef { .. } | RexNode::DynamicParam { .. } => 0.5,
        };
        // Composed estimates (nested NOT/AND chains, float round-off) can
        // land outside [0, 1]; a selectivity never can.
        sel.clamp(0.0, 1.0)
    }

    /// Join-condition selectivity relative to the Cartesian product.
    fn join_selectivity(rel: &Rel, cond: &RexNode, mq: &MetadataQuery) -> f64 {
        let left = &rel.inputs[0];
        let right = &rel.inputs[1];
        let left_arity = left.row_type().arity();
        // A column is counted on the input that produces it: the join's
        // own distinct count starts from the join's row count, which is
        // what this selectivity is computing.
        let ndv = |col: usize| {
            if col < left_arity {
                mq.distinct_count(left, &[col])
            } else {
                mq.distinct_count(right, &[col - left_arity])
            }
        };
        let mut sel = 1.0;
        for c in cond.conjuncts() {
            if let RexNode::Call {
                op: Op::Eq, args, ..
            } = &c
            {
                if let (Some(a), Some(b)) = (args[0].as_input_ref(), args[1].as_input_ref()) {
                    sel *= if (a < left_arity) != (b < left_arity) {
                        1.0 / ndv(a).max(ndv(b)).max(1.0)
                    } else {
                        0.15
                    };
                    continue;
                }
            }
            sel *= Self::predicate_selectivity(&c, &ndv);
        }
        // Kept in [0, 1] so the Semi/Anti cardinality math below never
        // raises a negative base to a fractional power (NaN).
        sel.clamp(0.0, 1.0)
    }
}

impl MetadataProvider for DefaultMdProvider {
    fn row_count(&self, rel: &Rel, mq: &MetadataQuery) -> Option<f64> {
        let rc = match &rel.op {
            RelOp::Scan { table } => table.table.statistic().row_count,
            RelOp::IndexSeek {
                table, index, seek, ..
            } => {
                // Without histograms (see StatsMdProvider for the analyzed
                // path): each equality column divides by the same NDV
                // heuristic as distinct_count, a range bound halves.
                let stat = table.table.statistic();
                let n = stat.row_count.max(1.0);
                let mut total = 0.0;
                for p in &seek.probes {
                    let mut rows = n;
                    if !p.eq.is_empty() {
                        let eq_cols = &index.columns[..p.eq.len()];
                        let unique = stat
                            .keys
                            .iter()
                            .any(|k| k.iter().all(|c| eq_cols.contains(c)));
                        if unique {
                            rows = 1.0;
                        } else {
                            for _ in &p.eq {
                                rows /= (n / 10.0).max(1.0).min(n);
                            }
                        }
                    }
                    if p.lower.is_some() {
                        rows *= 0.5;
                    }
                    if p.upper.is_some() {
                        rows *= 0.5;
                    }
                    total += rows;
                }
                total.min(n)
            }
            RelOp::IndexJoin {
                kind,
                condition,
                table,
                index,
                left_keys,
            } => {
                // Same shape as the Join estimate: equi-selectivity is
                // 1/max(NDV) per key pair, with the right-side NDV read
                // from the indexed table's statistic.
                let left = &rel.inputs[0];
                let l = mq.row_count(left);
                let stat = table.table.statistic();
                let r = stat.row_count.max(1.0);
                let mut sel = 1.0;
                for (i, lk) in left_keys.iter().enumerate() {
                    let ndv_l = mq.distinct_count(left, &[*lk]);
                    let unique = stat
                        .keys
                        .iter()
                        .any(|k| k.len() == 1 && k[0] == index.columns[i]);
                    let ndv_r = if unique { r } else { (r / 10.0).max(1.0) };
                    sel *= 1.0 / ndv_l.max(ndv_r).max(1.0);
                }
                // Conjuncts beyond the probed keys act as a residual filter.
                let extra = condition.conjuncts().len().saturating_sub(left_keys.len());
                sel *= 0.25f64.powi(extra as i32);
                let sel = sel.clamp(0.0, 1.0);
                match kind {
                    crate::rel::JoinKind::Inner => l * r * sel,
                    crate::rel::JoinKind::Left => (l * r * sel).max(l),
                    crate::rel::JoinKind::Right => (l * r * sel).max(r),
                    crate::rel::JoinKind::Full => (l * r * sel).max(l + r),
                    crate::rel::JoinKind::Semi => l * (1.0 - (1.0 - sel).powf(r.max(0.0))).min(1.0),
                    crate::rel::JoinKind::Anti => {
                        l * (1.0 - sel * r.min(1.0 / sel.max(1e-9))).max(0.1)
                    }
                }
            }
            RelOp::Values { tuples, .. } => tuples.len() as f64,
            RelOp::Filter { condition } => {
                mq.row_count(&rel.inputs[0]) * mq.selectivity(&rel.inputs[0], condition)
            }
            RelOp::Project { .. } | RelOp::Window { .. } | RelOp::Delta | RelOp::Convert { .. } => {
                mq.row_count(&rel.inputs[0])
            }
            RelOp::Join { kind, condition } => {
                let l = mq.row_count(&rel.inputs[0]);
                let r = mq.row_count(&rel.inputs[1]);
                let sel = Self::join_selectivity(rel, condition, mq);
                match kind {
                    crate::rel::JoinKind::Inner => l * r * sel,
                    crate::rel::JoinKind::Left => (l * r * sel).max(l),
                    crate::rel::JoinKind::Right => (l * r * sel).max(r),
                    crate::rel::JoinKind::Full => (l * r * sel).max(l + r),
                    crate::rel::JoinKind::Semi => l * (1.0 - (1.0 - sel).powf(r.max(0.0))).min(1.0),
                    crate::rel::JoinKind::Anti => {
                        l * (1.0 - sel * r.min(1.0 / sel.max(1e-9))).max(0.1)
                    }
                }
            }
            RelOp::Aggregate { group, aggs: _ } => {
                if group.is_empty() {
                    1.0
                } else {
                    let input = &rel.inputs[0];
                    let ndv = mq.distinct_count(input, group);
                    ndv.min(mq.row_count(input))
                }
            }
            RelOp::Sort { offset, fetch, .. } => {
                let n = mq.row_count(&rel.inputs[0]);
                let after_offset = (n - offset.unwrap_or(0) as f64).max(0.0);
                match fetch {
                    Some(f) => after_offset.min(*f as f64),
                    None => after_offset,
                }
            }
            RelOp::Union { all } => {
                let total: f64 = rel.inputs.iter().map(|i| mq.row_count(i)).sum();
                if *all {
                    total
                } else {
                    total * 0.8
                }
            }
            RelOp::Intersect { .. } => {
                rel.inputs
                    .iter()
                    .map(|i| mq.row_count(i))
                    .fold(f64::INFINITY, f64::min)
                    * 0.5
            }
            RelOp::Minus { .. } => mq.row_count(&rel.inputs[0]) * 0.5,
        };
        // Degenerate inputs (empty tables, runaway products) must not leak
        // NaN/∞ into cost comparisons — those poison every plan they touch.
        if rc.is_finite() {
            Some(rc.max(1e-6))
        } else {
            Some(f64::MAX / 1e6)
        }
    }

    fn selectivity(&self, rel: &Rel, predicate: &RexNode, mq: &MetadataQuery) -> Option<f64> {
        Some(Self::predicate_selectivity(predicate, &|col| {
            mq.distinct_count(rel, &[col])
        }))
    }

    fn distinct_count(&self, rel: &Rel, cols: &[usize], mq: &MetadataQuery) -> Option<f64> {
        let rc = mq.row_count(rel);
        match &rel.op {
            RelOp::Scan { table } => {
                let stat = table.table.statistic();
                let unique = stat.keys.iter().any(|k| k.iter().all(|c| cols.contains(c)));
                if unique {
                    Some(rc)
                } else {
                    Some((rc / 10.0).max(1.0).min(rc))
                }
            }
            RelOp::Filter { .. } => {
                // Distinctness shrinks with the filtered fraction but not
                // below 1.
                let input = &rel.inputs[0];
                let base = mq.distinct_count(input, cols);
                let frac = rc / mq.row_count(input).max(1e-9);
                Some((base * frac.max(0.1)).max(1.0))
            }
            RelOp::Aggregate { group, .. } => {
                // Group columns of an aggregate are unique.
                if cols.iter().all(|c| *c < group.len()) {
                    Some(rc)
                } else {
                    Some((rc / 10.0).max(1.0))
                }
            }
            _ => {
                if mq.are_columns_unique(rel, cols) {
                    Some(rc)
                } else {
                    Some((rc / 10.0).max(1.0).min(rc))
                }
            }
        }
    }

    fn non_cumulative_cost(&self, rel: &Rel, mq: &MetadataQuery) -> Option<Cost> {
        let out_rows = mq.row_count(rel);
        let factor = mq.cost_model().convention_factor(&rel.convention);
        let cost = match &rel.op {
            RelOp::Scan { .. } => Cost::new(out_rows, out_rows, out_rows, 0.0),
            RelOp::IndexSeek { table, seek, .. } => {
                // One binary search per probe plus per-row gather. The
                // gather touches rows at random positions, so each output
                // row is priced above a sequential-scan row (4 cpu + 2 io
                // vs the scan's 1 + 1): the seek only wins when the
                // estimated selectivity is genuinely narrow.
                let n = table.table.statistic().row_count.max(2.0);
                let probes = seek.probes.len().max(1) as f64;
                Cost::new(
                    out_rows,
                    probes * n.log2() + 4.0 * out_rows,
                    2.0 * out_rows,
                    0.0,
                )
            }
            RelOp::IndexJoin { table, .. } => {
                // One index probe per left row, no build side: beats hash
                // join when the left input is small relative to the
                // indexed table (which a hash join must scan and build).
                let l = mq.row_count(&rel.inputs[0]);
                let r = table.table.statistic().row_count.max(2.0);
                Cost::new(out_rows, l * r.log2() + 2.0 * out_rows, out_rows, 0.0)
            }
            RelOp::Values { tuples, .. } => {
                Cost::new(tuples.len() as f64, tuples.len() as f64, 0.0, 0.0)
            }
            RelOp::Filter { .. } => {
                // Predicate evaluation is cheap relative to join per-row
                // work (hashing/probing); the 0.5 factor reflects that.
                let n = mq.row_count(&rel.inputs[0]);
                Cost::new(out_rows, n * 0.5, 0.0, 0.0)
            }
            RelOp::Project { exprs, .. } => {
                let n = mq.row_count(&rel.inputs[0]);
                Cost::new(out_rows, n * exprs.len().max(1) as f64 * 0.25, 0.0, 0.0)
            }
            RelOp::Join { .. } => {
                let l = mq.row_count(&rel.inputs[0]);
                let r = mq.row_count(&rel.inputs[1]);
                // Hash-join shaped, matching the executors: the RIGHT input
                // is the build side (hash table memory + ~3 units/row to
                // build), the left streams through as probe (~1 unit/row).
                // The asymmetry is what lets JoinCommuteRule win when the
                // smaller input isn't already on the right.
                Cost::new(out_rows, l + 3.0 * r + out_rows, 0.0, r)
            }
            RelOp::Aggregate { .. } => {
                let n = mq.row_count(&rel.inputs[0]);
                Cost::new(out_rows, n, 0.0, out_rows)
            }
            RelOp::Sort {
                collation, fetch, ..
            } => {
                let n = mq.row_count(&rel.inputs[0]);
                if collation.is_empty() {
                    // Pure limit.
                    Cost::new(out_rows, out_rows, 0.0, 0.0)
                } else if let Some(f) = fetch {
                    // Top-K heap.
                    let k = (*f as f64).max(1.0);
                    Cost::new(out_rows, n * k.log2().max(1.0), 0.0, k)
                } else {
                    Cost::new(out_rows, n * n.max(2.0).log2(), 0.0, n)
                }
            }
            RelOp::Window { functions } => {
                let n = mq.row_count(&rel.inputs[0]);
                Cost::new(
                    out_rows,
                    n * n.max(2.0).log2() * functions.len().max(1) as f64,
                    0.0,
                    n,
                )
            }
            RelOp::Union { .. } | RelOp::Intersect { .. } | RelOp::Minus { .. } => {
                let n: f64 = rel.inputs.iter().map(|i| mq.row_count(i)).sum();
                Cost::new(out_rows, n, 0.0, out_rows)
            }
            RelOp::Delta => Cost::new(out_rows, 0.0, 0.0, 0.0),
            RelOp::Convert { .. } => {
                // Rows crossing an engine boundary pay a transfer IO cost:
                // this is what makes pushing work *into* backends win.
                let n = mq.row_count(&rel.inputs[0]);
                Cost::new(out_rows, n, n * mq.cost_model().transfer_factor(), 0.0)
            }
        };
        Some(cost.times(factor))
    }

    fn collations(&self, rel: &Rel, mq: &MetadataQuery) -> Option<Vec<Collation>> {
        match &rel.op {
            RelOp::Scan { table } => Some(table.table.statistic().collations),
            RelOp::Sort { collation, .. } => {
                if collation.is_empty() {
                    Some(mq.collations(&rel.inputs[0]))
                } else {
                    Some(vec![collation.clone()])
                }
            }
            RelOp::Filter { .. } | RelOp::Delta | RelOp::Convert { .. } => {
                Some(mq.collations(&rel.inputs[0]))
            }
            RelOp::Project { exprs, .. } => {
                // A collation survives projection up to its first column
                // that is not projected as a bare reference. A window
                // start `f - f % c` keeps the order of `f` but ties rows
                // `f` told apart, so it ends the mapped prefix.
                let mut out = vec![];
                for c in mq.collations(&rel.inputs[0]) {
                    let mut mapped = vec![];
                    for fc in &c {
                        let bare = exprs
                            .iter()
                            .position(|e| e.as_input_ref() == Some(fc.field));
                        let start = || {
                            exprs
                                .iter()
                                .position(|e| window_start_field(e) == Some(fc.field))
                        };
                        let Some(i) = bare.or_else(start) else {
                            break;
                        };
                        mapped.push(FieldCollation {
                            field: i,
                            ..fc.clone()
                        });
                        if bare.is_none() {
                            break;
                        }
                    }
                    if !mapped.is_empty() {
                        out.push(mapped);
                    }
                }
                Some(out)
            }
            _ => Some(vec![]),
        }
    }

    fn unique_keys(&self, rel: &Rel, mq: &MetadataQuery) -> Option<Vec<Vec<usize>>> {
        match &rel.op {
            RelOp::Scan { table } => Some(table.table.statistic().keys),
            RelOp::Filter { .. } | RelOp::Sort { .. } | RelOp::Delta | RelOp::Convert { .. } => {
                Some(mq.unique_keys(&rel.inputs[0]))
            }
            RelOp::Aggregate { group, .. } => {
                if group.is_empty() {
                    Some(vec![])
                } else {
                    Some(vec![(0..group.len()).collect()])
                }
            }
            RelOp::Project { exprs, .. } => {
                let mut out = vec![];
                for key in mq.unique_keys(&rel.inputs[0]) {
                    let mapped: Option<Vec<usize>> = key
                        .iter()
                        .map(|k| exprs.iter().position(|e| e.as_input_ref() == Some(*k)))
                        .collect();
                    if let Some(m) = mapped {
                        out.push(m);
                    }
                }
                Some(out)
            }
            _ => Some(vec![]),
        }
    }

    fn average_row_size(&self, rel: &Rel, _mq: &MetadataQuery) -> Option<f64> {
        Some(rel.row_type().arity() as f64 * 8.0)
    }

    fn parallelism(&self, rel: &Rel, mq: &MetadataQuery) -> Option<f64> {
        match &rel.op {
            RelOp::Scan { .. } | RelOp::Values { .. } => Some(1.0),
            _ => Some(
                rel.inputs
                    .iter()
                    .map(|i| mq.parallelism(i))
                    .fold(1.0, f64::max),
            ),
        }
    }
}

/// The field `e` takes the window start of: `$f - $f % c` for a
/// non-zero literal `c` (TUMBLE's desugaring, §7.2), a non-decreasing
/// function of `$f`.
pub fn window_start_field(e: &RexNode) -> Option<usize> {
    let RexNode::Call {
        op: Op::Minus,
        args,
        ..
    } = e
    else {
        return None;
    };
    let [f, offset] = args.as_slice() else {
        return None;
    };
    let RexNode::Call {
        op: Op::Mod,
        args: m,
        ..
    } = offset
    else {
        return None;
    };
    let [g, c] = m.as_slice() else {
        return None;
    };
    let field = f.as_input_ref()?;
    let width = matches!(c.as_literal(), Some(Datum::Interval(n) | Datum::Int(n)) if *n != 0);
    (width && g.as_input_ref() == Some(field)).then_some(field)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemTable, Statistic, TableRef};
    use crate::rel::{self, JoinKind};
    use crate::traits::Convention;
    use crate::types::{RelType, RowTypeBuilder, TypeKind};
    use std::sync::Arc;

    fn table(rows: f64, keys: Vec<Vec<usize>>) -> TableRef {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add("v", TypeKind::Double)
                .build(),
            vec![],
        )
        .with_statistic(Statistic {
            row_count: rows,
            keys,
            collations: vec![],
        });
        TableRef::new("s", "t", t)
    }

    #[test]
    fn scan_row_count_from_statistics() {
        let mq = MetadataQuery::standard();
        let s = rel::scan(table(500.0, vec![]));
        assert_eq!(mq.row_count(&s), 500.0);
    }

    #[test]
    fn filter_reduces_row_count() {
        let mq = MetadataQuery::standard();
        let s = rel::scan(table(1000.0, vec![]));
        let f = rel::filter(
            s.clone(),
            RexNode::input(1, RelType::nullable(TypeKind::Double)).gt(RexNode::lit_double(0.0)),
        );
        assert!(mq.row_count(&f) < mq.row_count(&s));
        assert_eq!(mq.row_count(&f), 500.0);
    }

    #[test]
    fn equality_on_unique_key_selects_one_row() {
        let mq = MetadataQuery::standard();
        let s = rel::scan(table(1000.0, vec![vec![0]]));
        let f = rel::filter(
            s,
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).eq(RexNode::lit_int(7)),
        );
        assert!((mq.row_count(&f) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn join_row_count_uses_key_ndv() {
        let mq = MetadataQuery::standard();
        let dims = rel::scan(table(100.0, vec![vec![0]]));
        let facts = rel::scan(table(10_000.0, vec![]));
        // facts.id = dims.id: the estimate must be far below the Cartesian
        // product (1e6) and scale with the key NDV.
        let cond = RexNode::input(0, RelType::not_null(TypeKind::Integer))
            .eq(RexNode::input(2, RelType::not_null(TypeKind::Integer)));
        let j = rel::join(facts, dims, JoinKind::Inner, cond);
        let rc = mq.row_count(&j);
        assert!(
            (100.0..=10_000.0).contains(&rc),
            "rc = {rc} should be well below the 1e6 Cartesian product"
        );
    }

    #[test]
    fn aggregate_cardinality_bounded_by_input() {
        let mq = MetadataQuery::standard();
        let s = rel::scan(table(1000.0, vec![]));
        let agg = rel::aggregate(s, vec![0], vec![]);
        assert!(mq.row_count(&agg) <= 1000.0);
        let global = rel::aggregate(rel::scan(table(1000.0, vec![])), vec![], vec![]);
        assert_eq!(mq.row_count(&global), 1.0);
    }

    #[test]
    fn limit_caps_row_count() {
        let mq = MetadataQuery::standard();
        let s = rel::scan(table(1000.0, vec![]));
        let lim = rel::sort_limit(s, vec![], None, Some(10));
        assert_eq!(mq.row_count(&lim), 10.0);
    }

    #[test]
    fn cumulative_cost_grows_with_tree() {
        let mq = MetadataQuery::standard();
        let s = rel::scan(table(1000.0, vec![]));
        let f = rel::filter(
            s.clone(),
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).gt(RexNode::lit_int(0)),
        );
        let cs = mq.cumulative_cost(&s);
        let cf = mq.cumulative_cost(&f);
        assert!(mq.cost_model().weigh(&cf) > mq.cost_model().weigh(&cs));
    }

    #[test]
    fn convert_costs_transfer_io() {
        let mq = MetadataQuery::standard();
        let s = rel::scan(table(1000.0, vec![]));
        let conv = crate::rel::RelNode::new(
            crate::rel::RelOp::Convert {
                from: Convention::none(),
            },
            Convention::enumerable(),
            vec![s],
        );
        let c = mq.non_cumulative_cost(&conv);
        assert!(c.io > 0.0, "converter must charge IO, got {c}");
    }

    #[test]
    fn cache_hits_make_cache_nonempty() {
        let mq = MetadataQuery::standard();
        let s = rel::scan(table(1000.0, vec![]));
        assert_eq!(mq.cache_len(), 0);
        let _ = mq.row_count(&s);
        let before = mq.cache_len();
        let _ = mq.row_count(&s);
        assert_eq!(mq.cache_len(), before);
        assert!(before > 0);
    }

    #[test]
    fn custom_provider_overrides_default() {
        struct Fixed;
        impl MetadataProvider for Fixed {
            fn row_count(&self, _rel: &Rel, _mq: &MetadataQuery) -> Option<f64> {
                Some(42.0)
            }
        }
        let mq = MetadataQuery::with_providers(vec![Arc::new(Fixed)]);
        let s = rel::scan(table(1000.0, vec![]));
        assert_eq!(mq.row_count(&s), 42.0);
        // Other metadata still answered by the default provider.
        assert!(mq.cumulative_cost(&s).cpu > 0.0);
    }

    #[test]
    fn composed_selectivities_stay_in_unit_interval() {
        let mq = MetadataQuery::standard();
        let s = rel::scan(table(1000.0, vec![]));
        let p = RexNode::input(1, RelType::nullable(TypeKind::Double)).gt(RexNode::lit_double(0.0));
        // NOT over an AND of many clauses: the unclamped product can round
        // below 0 / above 1; the estimate must stay a probability.
        let and = RexNode::call(Op::And, vec![p.clone(); 8]);
        let not = RexNode::call(Op::Not, vec![and.clone()]);
        let double_not = RexNode::call(Op::Not, vec![not.clone()]);
        for pred in [&and, &not, &double_not] {
            let sel = mq.selectivity(&s, pred);
            assert!((0.0..=1.0).contains(&sel), "sel = {sel}");
        }
        // Deep NOT chains over OR folds likewise.
        let or = RexNode::call(Op::Or, vec![p; 16]);
        let sel = mq.selectivity(&s, &RexNode::call(Op::Not, vec![or]));
        assert!((0.0..=1.0).contains(&sel), "sel = {sel}");
    }

    #[test]
    fn empty_table_estimates_stay_finite() {
        let mq = MetadataQuery::standard();
        let empty = rel::scan(table(0.0, vec![]));
        let other = rel::scan(table(0.0, vec![]));
        // row_count floors at a positive epsilon, never 0/NaN.
        let rc = mq.row_count(&empty);
        assert!(rc.is_finite() && rc > 0.0, "rc = {rc}");
        // Semi/Anti cardinality math on empty inputs must not produce NaN
        // (negative base to fractional power) or divide-by-zero artifacts.
        let cond = RexNode::input(0, RelType::not_null(TypeKind::Integer))
            .eq(RexNode::input(2, RelType::not_null(TypeKind::Integer)));
        for kind in [
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::Full,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let j = rel::join(empty.clone(), other.clone(), kind, cond.clone());
            let rc = mq.row_count(&j);
            assert!(rc.is_finite() && rc > 0.0, "join rc = {rc}");
            let cost = mq.cumulative_cost(&j);
            assert!(mq.cost_model().weigh(&cost).is_finite());
        }
    }

    #[test]
    fn join_cost_charges_build_on_right_input() {
        // The executors build the hash table on input(1): putting the big
        // input there must cost strictly more, so commute can flip it.
        let mq = MetadataQuery::standard();
        let big = rel::scan(table(10_000.0, vec![]));
        let small = rel::scan(table(100.0, vec![]));
        let cond = RexNode::input(0, RelType::not_null(TypeKind::Integer))
            .eq(RexNode::input(2, RelType::not_null(TypeKind::Integer)));
        let build_small = rel::join(big.clone(), small.clone(), JoinKind::Inner, cond.clone());
        let build_big = rel::join(small, big, JoinKind::Inner, cond);
        let cs = mq.non_cumulative_cost(&build_small);
        let cb = mq.non_cumulative_cost(&build_big);
        assert!(
            cs.memory < cb.memory,
            "memory {} !< {}",
            cs.memory,
            cb.memory
        );
        assert!(
            mq.cost_model().weigh(&cs) < mq.cost_model().weigh(&cb),
            "build-small must be cheaper"
        );
    }

    #[test]
    fn unique_keys_through_project() {
        let mq = MetadataQuery::standard();
        let s = rel::scan(table(100.0, vec![vec![0]]));
        let p = rel::project(
            s,
            vec![
                RexNode::input(1, RelType::nullable(TypeKind::Double)),
                RexNode::input(0, RelType::not_null(TypeKind::Integer)),
            ],
            vec!["v".into(), "id".into()],
        );
        assert!(mq.are_columns_unique(&p, &[1]));
        assert!(!mq.are_columns_unique(&p, &[0]));
    }

    #[test]
    fn window_start_keeps_the_order_it_floors() {
        // Input ordered on (id, v): a window start over `id` stays
        // ascending but ends the prefix; one over `v` is not ordered.
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add("v", TypeKind::Integer)
                .build(),
            vec![],
        )
        .with_statistic(
            Statistic::of_rows(10.0)
                .with_collation(vec![FieldCollation::asc(0), FieldCollation::asc(1)]),
        );
        let s = rel::scan(TableRef::new("s", "t", t));
        let int = |i| RexNode::input(i, RelType::not_null(TypeKind::Integer));
        let start = |i| {
            RexNode::call(
                Op::Minus,
                vec![
                    int(i),
                    RexNode::call(Op::Mod, vec![int(i), RexNode::lit_int(10)]),
                ],
            )
        };
        assert_eq!(window_start_field(&start(1)), Some(1));
        assert_eq!(
            window_start_field(&RexNode::call(Op::Minus, vec![int(0), int(0)])),
            None
        );
        let mq = MetadataQuery::standard();
        let p = rel::project(
            s,
            vec![start(1), int(1), start(0)],
            vec!["w".into(), "v".into(), "t".into()],
        );
        assert_eq!(mq.collations(&p), vec![vec![FieldCollation::asc(2)]]);
        assert_eq!(mq.ascending_group_key(&p, &[0, 1]), None);
        assert_eq!(
            mq.ascending_group_key(&p, &[0, 2]),
            Some((1, FieldCollation::asc(2)))
        );
    }
}
