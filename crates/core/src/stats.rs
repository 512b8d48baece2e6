//! Table statistics for cost-based planning (paper §6): per-table row
//! counts and per-column NDV, min/max, null fraction and equi-depth
//! histograms, collected by `ANALYZE` and served to the planner through
//! [`StatsMdProvider`] in the [`MetadataQuery`] provider chain.
//!
//! The paper's pitch — "for many \[systems\], it is sufficient to provide
//! statistics about their input data ... and Calcite will do the rest of
//! the work" — only pays off when those statistics are real. This module
//! replaces the default provider's magic constants (`row_count/10`
//! distinct counts, fixed 0.5 range selectivities) with bucket math over
//! the data actually in the tables.
//!
//! Statistics are versioned by the same DDL/DML generation counter the
//! plan cache uses: a snapshot collected at generation `g` stays valid
//! for every later generation until the *touched table's* entry is
//! explicitly retired. Writes and DROP retire only the table they
//! modify, so an `ANALYZE` survives unrelated DDL/DML (a CREATE INDEX
//! elsewhere, an INSERT into another table) instead of being thrown
//! away on every generation bump.

use crate::catalog::{Catalog, Table};
use crate::datum::{Column, Datum};
use crate::error::Result;
use crate::metadata::{MetadataProvider, MetadataQuery};
use crate::rel::{Rel, RelOp};
use crate::rex::{Op, RexNode};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Number of equi-depth histogram buckets `ANALYZE` builds per column.
pub const DEFAULT_HISTOGRAM_BUCKETS: usize = 32;

/// One equi-depth histogram bucket over a column's numeric domain:
/// `[lo, hi]` inclusive, holding `rows` values of `ndv` distinct ones.
/// Buckets never split a value: a heavily-skewed value occupies whole
/// buckets of its own, so its equality estimate stays accurate.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    pub lo: f64,
    pub hi: f64,
    pub rows: f64,
    pub ndv: f64,
}

/// Statistics for one column.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    /// Number of distinct non-null values.
    pub ndv: f64,
    /// Fraction of rows that are NULL.
    pub null_frac: f64,
    /// Minimum non-null value, projected onto the numeric domain
    /// (`None` for non-numeric or all-NULL columns).
    pub min: Option<f64>,
    /// Maximum non-null value on the numeric domain.
    pub max: Option<f64>,
    /// Equi-depth histogram over non-null numeric values; empty when the
    /// column is non-numeric (NDV/null fraction still apply).
    pub histogram: Vec<Bucket>,
}

impl ColumnStats {
    fn nonnull_rows(&self) -> f64 {
        self.histogram.iter().map(|b| b.rows).sum()
    }

    /// Estimated rows with `col = v` (absolute count, not a fraction).
    pub fn est_eq_rows(&self, v: f64, table_rows: f64) -> f64 {
        if self.histogram.is_empty() {
            return table_rows * (1.0 - self.null_frac) / self.ndv.max(1.0);
        }
        match (self.min, self.max) {
            (Some(lo), Some(hi)) if v >= lo && v <= hi => {}
            _ => return 0.0,
        }
        // A value never splits across buckets, so singleton buckets give
        // exact counts for skewed values; otherwise assume the bucket's
        // distinct values share its rows uniformly.
        let mut rows = 0.0;
        for b in &self.histogram {
            if v < b.lo || v > b.hi {
                continue;
            }
            if b.lo == b.hi {
                rows += b.rows;
            } else {
                rows += b.rows / b.ndv.max(1.0);
                break;
            }
        }
        rows
    }

    /// Estimated rows with `col < v`, by summing full buckets below `v`
    /// and interpolating linearly inside the boundary bucket.
    pub fn est_lt_rows(&self, v: f64, table_rows: f64) -> f64 {
        if self.histogram.is_empty() {
            return table_rows * (1.0 - self.null_frac) / 3.0;
        }
        let mut rows = 0.0;
        for b in &self.histogram {
            if b.hi < v {
                rows += b.rows;
            } else if b.lo < v {
                // Partial bucket: linear interpolation on the value range.
                let frac = if b.hi > b.lo {
                    (v - b.lo) / (b.hi - b.lo)
                } else {
                    0.0
                };
                rows += b.rows * frac.clamp(0.0, 1.0);
            }
        }
        rows.min(self.nonnull_rows())
    }

    /// Estimated rows for a comparison of this column against `v`.
    pub fn est_cmp_rows(&self, op: &Op, v: f64, table_rows: f64) -> f64 {
        let nonnull = if self.histogram.is_empty() {
            table_rows * (1.0 - self.null_frac)
        } else {
            self.nonnull_rows()
        };
        match op {
            Op::Eq => self.est_eq_rows(v, table_rows),
            Op::Ne => (nonnull - self.est_eq_rows(v, table_rows)).max(0.0),
            Op::Lt => self.est_lt_rows(v, table_rows),
            Op::Le => self.est_lt_rows(v, table_rows) + self.est_eq_rows(v, table_rows),
            Op::Gt => (nonnull - self.est_lt_rows(v, table_rows) - self.est_eq_rows(v, table_rows))
                .max(0.0),
            Op::Ge => (nonnull - self.est_lt_rows(v, table_rows)).max(0.0),
            _ => nonnull * 0.25,
        }
    }
}

/// Statistics for one table, as collected by `ANALYZE`.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    pub row_count: f64,
    /// Mean row width in bytes (feeds spill predictions).
    pub avg_row_bytes: f64,
    /// Per-column statistics, positionally aligned with the row type.
    pub columns: Vec<ColumnStats>,
}

/// Projects a datum onto the numeric domain histograms are built over.
/// Strings and nested values have no useful linear order here and return
/// `None` (their columns still get NDV and null-fraction statistics).
pub fn numeric_value(d: &Datum) -> Option<f64> {
    match d {
        Datum::Int(i) => Some(*i as f64),
        Datum::Double(f) if f.is_finite() => Some(*f),
        Datum::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        Datum::Date(days) => Some(*days as f64),
        Datum::Timestamp(ms) | Datum::Interval(ms) => Some(*ms as f64),
        _ => None,
    }
}

/// Rough in-memory width of a datum, for `avg_row_bytes`.
fn datum_bytes(d: &Datum) -> f64 {
    match d {
        Datum::Null => 1.0,
        Datum::Str(s) => 16.0 + s.len() as f64,
        Datum::Array(a) => 16.0 + a.iter().map(datum_bytes).sum::<f64>(),
        _ => 8.0,
    }
}

/// Builds an equi-depth histogram over `values` (sorted in place). Equal
/// values never split across buckets, and any value whose run alone
/// reaches the bucket depth gets a singleton `[v, v]` bucket — so skewed
/// heavy hitters are counted exactly instead of averaged into their
/// neighbours.
pub fn equi_depth_histogram(values: &mut [f64], buckets: usize) -> Vec<Bucket> {
    if values.is_empty() || buckets == 0 {
        return vec![];
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("non-finite value in histogram"));
    let n = values.len();
    let depth = (n as f64 / buckets as f64).ceil().max(1.0) as usize;
    let mut out: Vec<Bucket> = vec![];
    // Accumulator for the bucket currently being filled with light runs.
    let mut acc: Option<Bucket> = None;
    let mut i = 0;
    while i < n {
        let v = values[i];
        let mut j = i + 1;
        while j < n && values[j] == v {
            j += 1;
        }
        let run = (j - i) as f64;
        if j - i >= depth {
            // Heavy hitter: close the open bucket, then a bucket of its own.
            out.extend(acc.take());
            out.push(Bucket {
                lo: v,
                hi: v,
                rows: run,
                ndv: 1.0,
            });
        } else {
            let b = acc.get_or_insert(Bucket {
                lo: v,
                hi: v,
                rows: 0.0,
                ndv: 0.0,
            });
            b.hi = v;
            b.rows += run;
            b.ndv += 1.0;
            if b.rows >= depth as f64 {
                out.extend(acc.take());
            }
        }
        i = j;
    }
    out.extend(acc);
    out
}

/// Computes full table statistics from columnar data. `rows` is the table
/// row count (needed when `cols` is empty).
pub fn analyze_columns(cols: &[Column], rows: usize) -> TableStats {
    analyze_chunks(cols.len(), rows, std::iter::once(cols))
}

/// [`analyze_columns`] over a table stored as a sequence of column
/// chunks (each `arity` columns wide, in position order), read in place:
/// the answer is the one the concatenated columns would give.
pub fn analyze_chunks<'a>(
    arity: usize,
    rows: usize,
    chunks: impl Iterator<Item = &'a [Column]> + Clone,
) -> TableStats {
    let mut columns = Vec::with_capacity(arity);
    let mut total_bytes = 0.0;
    for c in 0..arity {
        let mut n = 0usize;
        let mut nulls = 0usize;
        let mut distinct: HashSet<Datum> = HashSet::new();
        let mut nums: Vec<f64> = Vec::new();
        let mut numeric_only = true;
        let cells = chunks.clone().flat_map(|chunk| {
            let col = &chunk[c];
            (0..col.len()).map(move |i| col.get(i))
        });
        for d in cells {
            n += 1;
            total_bytes += datum_bytes(&d);
            if d.is_null() {
                nulls += 1;
                continue;
            }
            match numeric_value(&d) {
                Some(v) => nums.push(v),
                None => numeric_only = false,
            }
            distinct.insert(d);
        }
        let histogram = if numeric_only {
            equi_depth_histogram(&mut nums, DEFAULT_HISTOGRAM_BUCKETS)
        } else {
            vec![]
        };
        let (min, max) = if numeric_only && !nums.is_empty() {
            // `nums` is sorted by the histogram builder.
            (Some(nums[0]), Some(nums[nums.len() - 1]))
        } else {
            (None, None)
        };
        columns.push(ColumnStats {
            ndv: distinct.len() as f64,
            null_frac: if n > 0 { nulls as f64 / n as f64 } else { 0.0 },
            min,
            max,
            histogram,
        });
    }
    TableStats {
        row_count: rows as f64,
        avg_row_bytes: if rows > 0 {
            total_bytes / rows as f64
        } else {
            0.0
        },
        columns,
    }
}

/// Computes `ANALYZE` statistics for any [`Table`]: over the chunks of
/// its [`Table::txn_snapshot`] version in place when it has one,
/// otherwise over its row scan pivoted through [`Column::from_rows`].
pub fn analyze_table(table: &dyn Table) -> Result<TableStats> {
    if let Some(version) = table.txn_snapshot() {
        return Ok(version.analyze());
    }
    let rows: Vec<crate::datum::Row> = table.scan()?.collect();
    let rt = table.row_type();
    let cols: Vec<Column> = rt
        .fields
        .iter()
        .enumerate()
        .map(|(i, f)| Column::from_rows(&f.ty.kind, &rows, i))
        .collect();
    Ok(analyze_columns(&cols, rows.len()))
}

/// The catalog's statistics store: qualified table name → (generation,
/// stats). Entries are generation-stamped and served to any lookup at
/// that generation *or later*; writes that invalidate a table's
/// statistics call [`StatsRegistry::retire`] for that table alone.
#[derive(Default)]
pub struct StatsRegistry {
    entries: RwLock<HashMap<String, (u64, Arc<TableStats>)>>,
}

impl StatsRegistry {
    /// Stores statistics collected at `generation`.
    pub fn put(&self, name: impl Into<String>, generation: u64, stats: Arc<TableStats>) {
        self.entries
            .write()
            .insert(name.into().to_ascii_lowercase(), (generation, stats));
    }

    /// The stats for `name` as seen at `generation`: entries stamped at a
    /// later generation are invisible (they describe data this generation
    /// has not seen), entries from earlier generations remain valid until
    /// retired.
    pub fn get(&self, name: &str, generation: u64) -> Option<Arc<TableStats>> {
        self.entries
            .read()
            .get(&name.to_ascii_lowercase())
            .filter(|(g, _)| *g <= generation)
            .map(|(_, s)| s.clone())
    }

    /// Retires one table's statistics after a write to that table;
    /// returns whether an entry existed. Statistics for other tables are
    /// untouched — this is what scopes invalidation per table instead of
    /// per generation.
    pub fn retire(&self, name: &str) -> bool {
        self.entries
            .write()
            .remove(&name.to_ascii_lowercase())
            .is_some()
    }

    /// The stats for `name` regardless of generation (inspection/tests).
    pub fn get_any(&self, name: &str) -> Option<(u64, Arc<TableStats>)> {
        self.entries.read().get(&name.to_ascii_lowercase()).cloned()
    }

    pub fn remove(&self, name: &str) -> bool {
        self.entries
            .write()
            .remove(&name.to_ascii_lowercase())
            .is_some()
    }

    pub fn clear(&self) {
        self.entries.write().clear();
    }

    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Sorted names of analyzed tables.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// Metadata provider backed by `ANALYZE`d statistics. Sits between any
/// user-registered providers and the default provider in the
/// [`MetadataQuery`] chain: it answers for scans of analyzed tables and
/// stays silent (`None`) otherwise, so everything above scans — filters,
/// joins, aggregates — still composes through the default provider's
/// recursive estimates, now seeded with real leaf cardinalities, NDVs and
/// histogram selectivities.
pub struct StatsMdProvider {
    catalog: Arc<Catalog>,
    /// The connection generation this query runs at; stats stamped with
    /// any other generation are ignored.
    generation: u64,
}

impl StatsMdProvider {
    pub fn new(catalog: Arc<Catalog>, generation: u64) -> StatsMdProvider {
        StatsMdProvider {
            catalog,
            generation,
        }
    }

    fn scan_stats(&self, rel: &Rel) -> Option<Arc<TableStats>> {
        let table = match &rel.op {
            RelOp::Scan { table } => table,
            // An index seek reads the same analyzed table; its *output*
            // cardinality is priced separately in `row_count`.
            RelOp::IndexSeek { table, .. } => table,
            _ => return None,
        };
        self.catalog
            .stats()
            .get(&table.qualified_name(), self.generation)
    }

    /// Histogram estimate of one bound probe's output rows: the equality
    /// prefix multiplies per-column fractions (independence), the range
    /// bounds interpolate on the next key column's buckets. Probes whose
    /// values are dynamic parameters fall back to per-column NDV.
    fn probe_rows(stats: &TableStats, columns: &[usize], probe: &crate::index::SeekProbe) -> f64 {
        let rc = stats.row_count.max(1.0);
        let mut rows = rc;
        for (i, e) in probe.eq.iter().enumerate() {
            let Some(cs) = stats.columns.get(columns[i]) else {
                rows *= 0.15;
                continue;
            };
            let est = match e.as_literal().and_then(numeric_value) {
                Some(v) => cs.est_eq_rows(v, rc),
                None => rc * (1.0 - cs.null_frac) / cs.ndv.max(1.0),
            };
            rows *= (est / rc).clamp(0.0, 1.0);
        }
        if probe.lower.is_none() && probe.upper.is_none() {
            return rows;
        }
        let range_frac = match columns
            .get(probe.eq.len())
            .and_then(|c| stats.columns.get(*c))
        {
            None => 0.25,
            Some(cs) => {
                let bound_frac = |b: &(RexNode, bool), op_incl: Op, op_excl: Op| match b
                    .0
                    .as_literal()
                    .and_then(numeric_value)
                {
                    Some(v) => cs.est_cmp_rows(if b.1 { &op_incl } else { &op_excl }, v, rc) / rc,
                    None => 0.5,
                };
                let below = probe
                    .upper
                    .as_ref()
                    .map_or(1.0, |b| bound_frac(b, Op::Le, Op::Lt));
                let above = probe
                    .lower
                    .as_ref()
                    .map_or(1.0, |b| bound_frac(b, Op::Ge, Op::Gt));
                // P(lower ∧ upper) on one column: the fractions overlap.
                (below + above - 1.0).clamp(0.0, 1.0)
            }
        };
        rows * range_frac
    }

    /// Histogram-backed selectivity of `pred` over an analyzed scan.
    /// Composite predicates recurse with independence assumptions; forms
    /// the histogram cannot answer fall back to the same constants the
    /// default provider uses, so a partially-unknown predicate still
    /// benefits from the known parts.
    fn predicate_selectivity(stats: &TableStats, pred: &RexNode) -> f64 {
        let rc = stats.row_count.max(1.0);
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
                    .map(|a| Self::predicate_selectivity(stats, a))
                    .product(),
                Op::Or => {
                    1.0 - args
                        .iter()
                        .map(|a| 1.0 - Self::predicate_selectivity(stats, a))
                        .product::<f64>()
                }
                Op::Not => 1.0 - Self::predicate_selectivity(stats, &args[0]),
                Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                    match column_versus_value(stats, op, args) {
                        Some((cs, cmp, v)) => cs.est_cmp_rows(&cmp, v, stats.row_count) / rc,
                        None => default_cmp_selectivity(op),
                    }
                }
                Op::IsNull => column_stats(stats, &args[0]).map_or(0.1, |cs| cs.null_frac),
                Op::IsNotNull => column_stats(stats, &args[0]).map_or(0.9, |cs| 1.0 - cs.null_frac),
                Op::Like => 0.25,
                _ => 0.25,
            },
            RexNode::InputRef { .. } | RexNode::DynamicParam { .. } => 0.5,
        };
        sel.clamp(0.0, 1.0)
    }
}

fn column_stats<'s>(stats: &'s TableStats, e: &RexNode) -> Option<&'s ColumnStats> {
    stats.columns.get(strip_cast(e).as_input_ref()?)
}

/// Matches `col <cmp> literal` / `literal <cmp> col` (through casts) and
/// returns the column's stats, the normalized operator and the numeric
/// comparison value.
fn column_versus_value<'s>(
    stats: &'s TableStats,
    op: &Op,
    args: &[RexNode],
) -> Option<(&'s ColumnStats, Op, f64)> {
    if let (Some(cs), Some(lit)) = (column_stats(stats, &args[0]), args[1].as_literal()) {
        return Some((cs, op.clone(), numeric_value(lit)?));
    }
    if let (Some(lit), Some(cs)) = (args[0].as_literal(), column_stats(stats, &args[1])) {
        return Some((cs, op.swapped()?, numeric_value(lit)?));
    }
    None
}

/// The default provider's constants, used when the histogram has no
/// answer (non-numeric comparison, column-vs-column, parameter).
fn default_cmp_selectivity(op: &Op) -> f64 {
    match op {
        Op::Eq => 0.15,
        Op::Ne => 0.85,
        _ => 0.5,
    }
}

fn strip_cast(e: &RexNode) -> &RexNode {
    match e {
        RexNode::Call {
            op: Op::Cast, args, ..
        } => strip_cast(&args[0]),
        other => other,
    }
}

impl MetadataProvider for StatsMdProvider {
    fn row_count(&self, rel: &Rel, _mq: &MetadataQuery) -> Option<f64> {
        let stats = self.scan_stats(rel)?;
        match &rel.op {
            RelOp::IndexSeek { index, seek, .. } => {
                // This estimate is what arbitrates seek vs scan: summed
                // per-probe histogram cardinality, capped by the table.
                let total: f64 = seek
                    .probes
                    .iter()
                    .map(|p| Self::probe_rows(&stats, &index.columns, p))
                    .sum();
                Some(total.min(stats.row_count).max(1e-6))
            }
            _ => Some(stats.row_count),
        }
    }

    fn selectivity(&self, rel: &Rel, predicate: &RexNode, _mq: &MetadataQuery) -> Option<f64> {
        let stats = self.scan_stats(rel)?;
        // Residual predicates above a projected seek reference projected
        // column positions the table stats can't be indexed by directly.
        if let RelOp::IndexSeek {
            projection: Some(_),
            ..
        } = &rel.op
        {
            return None;
        }
        Some(Self::predicate_selectivity(&stats, predicate))
    }

    fn distinct_count(&self, rel: &Rel, cols: &[usize], _mq: &MetadataQuery) -> Option<f64> {
        let stats = self.scan_stats(rel)?;
        // Map output positions back to base-table columns through an
        // index-only projection, if any.
        let projection = match &rel.op {
            RelOp::IndexSeek { projection, .. } => projection.as_ref(),
            _ => None,
        };
        // Multi-column NDV: independence-assumption product, capped by
        // the row count.
        let mut ndv = 1.0;
        for c in cols {
            let base = match projection {
                Some(proj) => *proj.get(*c)?,
                None => *c,
            };
            ndv *= stats.columns.get(base)?.ndv.max(1.0);
        }
        Some(ndv.clamp(1.0, stats.row_count.max(1.0)))
    }

    fn average_row_size(&self, rel: &Rel, _mq: &MetadataQuery) -> Option<f64> {
        let stats = self.scan_stats(rel)?;
        (stats.avg_row_bytes > 0.0).then_some(stats.avg_row_bytes)
    }

    fn parallelism(&self, rel: &Rel, _mq: &MetadataQuery) -> Option<f64> {
        // Useful scan parallelism: one worker per morsel, bounded so the
        // estimate stays a placement hint rather than a thread count.
        let stats = self.scan_stats(rel)?;
        Some(
            (stats.row_count / crate::exec::DEFAULT_MORSEL_SIZE as f64)
                .ceil()
                .clamp(1.0, 64.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemTable, Schema, TableRef};
    use crate::rel;
    use crate::types::{RelType, RowTypeBuilder, TypeKind};

    fn int_column(values: Vec<Option<i64>>) -> Column {
        let rows: Vec<crate::datum::Row> = values
            .into_iter()
            .map(|v| vec![v.map_or(Datum::Null, Datum::Int)])
            .collect();
        Column::from_rows(&TypeKind::Integer, &rows, 0)
    }

    #[test]
    fn analyze_uniform_column() {
        let col = int_column((0..1000).map(Some).collect());
        let stats = analyze_columns(&[col], 1000);
        assert_eq!(stats.row_count, 1000.0);
        let cs = &stats.columns[0];
        assert_eq!(cs.ndv, 1000.0);
        assert_eq!(cs.null_frac, 0.0);
        assert_eq!(cs.min, Some(0.0));
        assert_eq!(cs.max, Some(999.0));
        assert_eq!(cs.histogram.len(), DEFAULT_HISTOGRAM_BUCKETS);
        // Equality: ~1 row; range: interpolated.
        assert!((cs.est_eq_rows(500.0, 1000.0) - 1.0).abs() < 1.0);
        let lt = cs.est_lt_rows(250.0, 1000.0);
        assert!((200.0..=300.0).contains(&lt), "lt(250) = {lt}");
    }

    #[test]
    fn analyze_skewed_column_isolates_heavy_value() {
        // 900 copies of 7, plus 0..100.
        let mut vals: Vec<Option<i64>> = std::iter::repeat_n(Some(7), 900).collect();
        vals.extend((0..100).map(Some));
        let col = int_column(vals);
        let stats = analyze_columns(&[col], 1000);
        let cs = &stats.columns[0];
        // 7 is also in 0..100, so distinct values are exactly 0..100.
        assert_eq!(cs.ndv, 100.0);
        // The heavy value lives in singleton buckets: exact estimate.
        let est = cs.est_eq_rows(7.0, 1000.0);
        assert!((est - 900.0).abs() <= 32.0, "eq(7) = {est}");
        // A light value is not dragged up by the skew.
        let est = cs.est_eq_rows(90.0, 1000.0);
        assert!(est <= 40.0, "eq(90) = {est}");
    }

    #[test]
    fn analyze_nulls_and_out_of_range() {
        let mut vals: Vec<Option<i64>> = (0..80).map(Some).collect();
        vals.extend(std::iter::repeat_n(None, 20));
        let col = int_column(vals);
        let stats = analyze_columns(&[col], 100);
        let cs = &stats.columns[0];
        assert_eq!(cs.null_frac, 0.2);
        assert_eq!(cs.ndv, 80.0);
        // Out-of-range equality estimates zero rows.
        assert_eq!(cs.est_eq_rows(500.0, 100.0), 0.0);
        assert_eq!(cs.est_eq_rows(-1.0, 100.0), 0.0);
        // Range below min / above max covers nothing / everything non-null.
        assert_eq!(cs.est_lt_rows(-5.0, 100.0), 0.0);
        assert_eq!(cs.est_cmp_rows(&Op::Ge, -5.0, 100.0), 80.0);
    }

    #[test]
    fn registry_is_generation_stamped() {
        let reg = StatsRegistry::default();
        let stats = Arc::new(TableStats {
            row_count: 42.0,
            ..TableStats::default()
        });
        reg.put("hr.emp", 3, stats);
        assert!(reg.get("hr.emp", 3).is_some());
        assert!(reg.get("HR.EMP", 3).is_some());
        // Later generations still see the entry: unrelated DDL/DML does
        // not throw analyzed statistics away.
        assert!(reg.get("hr.emp", 4).is_some());
        // Earlier generations must not see stats from their future.
        assert!(reg.get("hr.emp", 2).is_none());
        assert_eq!(reg.get_any("hr.emp").unwrap().0, 3);
        assert_eq!(reg.names(), vec!["hr.emp"]);
        // A write to the table retires its entry alone.
        assert!(reg.retire("hr.emp"));
        assert!(!reg.retire("hr.emp"));
        assert!(reg.is_empty());
    }

    #[test]
    fn provider_answers_for_analyzed_scans_only() {
        let catalog = Catalog::new();
        let schema = Schema::new();
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("v", TypeKind::Integer)
                .build(),
            (0..200).map(|i| vec![Datum::Int(i)]).collect(),
        );
        schema.add_table("t", t.clone());
        catalog.add_schema("hr", schema);
        let stats = Arc::new(analyze_table(t.as_ref() as &dyn Table).unwrap());
        catalog.stats().put("hr.t", 0, stats);

        let provider = Arc::new(StatsMdProvider::new(catalog.clone(), 0));
        let mq = MetadataQuery::with_providers(vec![provider]);
        let scan = rel::scan(TableRef::new("hr", "t", t.clone()));
        assert_eq!(mq.row_count(&scan), 200.0);
        assert_eq!(mq.distinct_count(&scan, &[0]), 200.0);
        // Histogram-backed range selectivity: v < 50 is ~25%.
        let pred = RexNode::input(0, RelType::not_null(TypeKind::Integer)).lt(RexNode::lit_int(50));
        let sel = mq.selectivity(&scan, &pred);
        assert!((0.2..=0.3).contains(&sel), "sel = {sel}");
        // Stats survive unrelated generation bumps ...
        let later = Arc::new(StatsMdProvider::new(catalog.clone(), 1));
        let mq2 = MetadataQuery::with_providers(vec![later]);
        assert_eq!(mq2.row_count(&scan), 200.0);
        // ... until the table itself is retired; then the provider goes
        // silent and the default chain answers with its heuristics.
        catalog.stats().retire("hr.t");
        let stale = Arc::new(StatsMdProvider::new(catalog, 1));
        let mq = MetadataQuery::with_providers(vec![stale]);
        assert_eq!(mq.distinct_count(&scan, &[0]), 20.0); // rc/10 fallback
    }

    #[test]
    fn analyze_table_via_row_scan_fallback() {
        // A table without a columnar surface still analyzes through scan().
        struct RowsOnly(Arc<MemTable>);
        impl Table for RowsOnly {
            fn row_type(&self) -> crate::types::RowType {
                self.0.row_type()
            }
            fn scan(&self) -> Result<Box<dyn Iterator<Item = crate::datum::Row> + Send>> {
                self.0.scan()
            }
        }
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("v", TypeKind::Integer)
                .build(),
            (0..10).map(|i| vec![Datum::Int(i % 3)]).collect(),
        );
        let stats = analyze_table(&RowsOnly(t)).unwrap();
        assert_eq!(stats.row_count, 10.0);
        assert_eq!(stats.columns[0].ndv, 3.0);
    }
}
